(** The Mach TLB shootdown algorithm (paper section 4, Figure 1), plus the
    alternative consistency policies used as baselines.

    The protocol, in four phases:
    + the {e initiator} queues consistency actions for every processor
      using the pmap and interrupts the non-idle ones;
    + the {e responders} acknowledge by leaving the active set and spin
      while any relevant pmap is locked;
    + the initiator, once every interrupted processor has acknowledged or
      stopped using the pmap, performs the page-table update;
    + on unlock, the responders drain their action queues (invalidating
      TLB entries or flushing) and rejoin the active set. *)

val with_update :
  ?elide_reuse:bool ->
  Pmap.ctx ->
  Sim.Cpu.t ->
  Pmap.t ->
  lo:Hw.Addr.vpn ->
  hi:Hw.Addr.vpn ->
  may_be_inconsistent:(unit -> bool) ->
  update:(unit -> unit) ->
  unit
(** Wrap a pmap modification of pages [lo, hi) in the consistency protocol
    selected by [Params.consistency].  [may_be_inconsistent] is evaluated
    under the pmap lock and embodies the lazy-evaluation check; [update]
    performs the page-table change (phase 3).

    [elide_reuse] (default false) marks call sites whose update only
    removes mappings: with [Params.elide_reuse_flushes] on, a user-pmap
    round with remote users is then elided by bumping the space's TLB
    generation instead — stale entries die on the tag check at their next
    lookup (docs/ELISION.md). *)

val with_update_ranges :
  ?elide_reuse:bool ->
  ?origin:Instrument.Probe.kind ->
  Pmap.ctx ->
  Sim.Cpu.t ->
  Pmap.t ->
  ranges:(Hw.Addr.vpn * Hw.Addr.vpn) list ->
  may_be_inconsistent:(unit -> bool) ->
  update:(unit -> unit) ->
  unit
(** General form of {!with_update} used by [Gather.flush]: retire a list
    of disjoint [lo, hi) ranges in a single protocol round, queueing one
    range action per coalesced range.  The flush-threshold decision is
    made on the total page count, and a large batch naturally overflows
    the fixed-size action queues into the responders' flush-everything
    path.  A singleton list is exactly {!with_update}.

    [origin] (default [Instrument.Probe.Round]) tags the round's
    [Round_start] probe — [Gather.flush] passes [Gather_flush]; the flight
    recorder retags an elided round [Elided] regardless (docs/TAIL.md). *)

val gen_limit : int
(** Generation-counter wrap budget: at this value the elision path runs a
    real space flush on every TLB and restarts the counter from 1. *)

val idle_check : Pmap.ctx -> Sim.Cpu.t -> unit
(** Idle processors are never interrupted but must drain queued actions
    before becoming active; the scheduler's idle loop calls this. *)

val install : Pmap.ctx -> unit
(** Wire the responder — the shootdown interrupt service routine, phases
    2 and 4 — into every CPU's shootdown-interrupt dispatch. *)
