(** Deferred shootdown batching, after Linux's [mmu_gather] (see
    [docs/BATCHING.md]).

    A gather batch accumulates unmap/protect operations against one pmap:
    each operation applies its page-table change {e eagerly} under the
    pmap lock (paying the same lazy-check and per-page costs as its
    unbatched equivalent) while {e deferring} all TLB invalidation.
    {!flush} then retires every accumulated range in a single consistency
    round — one lock/interrupt/quiesce cycle instead of one per
    operation.

    The caller's contract is the mmu_gather contract: between an
    operation and the flush, stale translations may survive in any TLB
    (including the caller's own), so nothing a batched operation frees
    may be reused until the flush ([Vm.Batch] holds frame frees and
    other teardown until then).  The batch announces its in-flight ranges in
    [ctx.open_batches], which is how the consistency oracle knows they
    are legal mid-protocol staleness.

    Lazy evaluation is preserved per operation: ranges the lazy check
    proves unmapped contribute nothing, and a batch that accumulated
    nothing flushes for free.  Overflow semantics are preserved by
    construction: the flush queues one range action per coalesced range,
    so an oversized batch latches the responders' queue-overflow flag and
    they flush everything. *)

type t

val start : Pmap.ctx -> Pmap.t -> t
(** Open a batch against [pmap] and register it in [ctx.open_batches]. *)

val unmap : t -> Sim.Cpu.t -> lo:Hw.Addr.vpn -> hi:Hw.Addr.vpn -> unit
(** Eagerly clear every mapping in [lo, hi), deferring the TLB
    invalidations to the flush.
    @raise Invalid_argument after {!finish}. *)

val protect :
  t ->
  Sim.Cpu.t ->
  lo:Hw.Addr.vpn ->
  hi:Hw.Addr.vpn ->
  prot:Hw.Addr.prot ->
  unit
(** Eagerly set the protection of every mapping in [lo, hi).  Only
    rights-reducing changes defer an invalidation; [Prot_none] behaves
    like {!unmap}.
    @raise Invalid_argument after {!finish}. *)

val flush : t -> Sim.Cpu.t -> unit
(** Retire all pending ranges in one consistency round.  A batch with nothing pending flushes for free (no
    lock, no round, no cost).  The batch stays open for further
    operations.
    @raise Invalid_argument after {!finish}. *)

val finish : t -> Sim.Cpu.t -> unit
(** {!flush}, then unregister the batch; further use raises.
    @raise Invalid_argument if already finished. *)

val pending_ops : t -> int
(** Operations queued since the last flush. *)

val pending_pages : t -> int
(** Total pages across the pending coalesced ranges. *)

val pending_ranges : t -> (Hw.Addr.vpn * Hw.Addr.vpn) list
(** The pending coalesced ranges, sorted and disjoint. *)

val should_flush : t -> bool
(** Has the batch reached [Params.batch_max_ops] queued operations?
    Callers use this to bound how long frees stay quarantined. *)

val insert_range :
  (Hw.Addr.vpn * Hw.Addr.vpn) list ->
  lo:Hw.Addr.vpn ->
  hi:Hw.Addr.vpn ->
  (Hw.Addr.vpn * Hw.Addr.vpn) list
(** Insert [lo, hi) into a sorted disjoint range list, merging
    overlapping and adjacent ranges; empty ranges are dropped.  Pure —
    exposed for the coalescing tests. *)
