(** TLB-consistency oracle: an omniscient cross-check that every resident
    TLB entry agrees with the page tables, run at shootdown-completion and
    quiescent points.

    Processors with a consistency action pending or a queue drain in
    progress may legitimately hold stale entries (they are out of the
    active set and will destroy them before touching the pmap); such CPUs
    are skipped.

    The check is pure — no simulated time passes, no PRNG draws happen —
    so attaching the oracle never perturbs the run it audits. *)

type violation_kind =
  | Unmapped  (** TLB caches a translation the page table no longer has *)
  | Wrong_frame  (** TLB points at a different physical frame *)
  | Excess_rights  (** TLB grants rights the PTE has withdrawn *)

type violation = {
  v_cpu : int;
  v_space : int;
  v_vpn : Hw.Addr.vpn;
  v_kind : violation_kind;
  v_at : float;  (** sim time of the check that caught it *)
  v_reason : string;  (** checkpoint label, e.g. ["shootdown-complete"] *)
}

type t

val attach : ?max_kept:int -> Pmap.ctx -> t
(** Create an oracle and install it as [ctx.oracle_check], so every
    [Shootdown.with_update] completion (any policy) and every
    [Machine.run] quiescent point audits the TLBs.  At most [max_kept]
    violation records are retained (the count is exact regardless). *)

val consistent : t -> bool
(** No violation was ever observed. *)

val checks : t -> int

val batch_entries_skipped : t -> int
(** TLB entries excused because an open gather batch covers their page:
    the PTE already changed but the batched invalidation has not flushed
    yet. *)

val gen_entries_skipped : t -> int
(** TLB entries excused because their generation stamp lags their space's
    current generation (docs/ELISION.md): the MMU rejects and evicts such
    an entry at its next lookup, so it can never be exercised. *)

val violation_count : t -> int

val violations : t -> violation list
(** Retained records, oldest first. *)

val describe_violation : violation -> string
