(** Map-level batched deallocation: a [Core.Gather] bound to one address
    map (see [docs/BATCHING.md]).

    On top of the gather's deferred TLB invalidation this layer defers
    the two things only the map layer can: the deallocated ranges stay
    {e quarantined} against reallocation (a stale translation could
    still resolve them), and the doomed entries' object references — and
    so their physical frames — are only dropped after the flush, so no
    frame is recycled while a stale translation may still point at it.

    A batch auto-flushes when it reaches [Params.batch_max_ops] queued
    operations, bounding how long frames sit in limbo. *)

type t

val start : Vmstate.t -> Vm_map.t -> t
(** Open a batch against [map] (registers a gather on its pmap). *)

val map : t -> Vm_map.t
(** The map this batch is bound to. *)

val deallocate : t -> Sim.Sched.thread -> lo:Hw.Addr.vpn -> hi:Hw.Addr.vpn -> unit
(** Like {!Vm_map.deallocate}, but the TLB round, the quarantine lift
    and the object teardown all wait for the flush.  Auto-flushes past
    [Params.batch_max_ops]. *)

val flush : t -> Sim.Sched.thread -> unit
(** Retire all pending invalidations in one round, then release the
    deferred objects and lift the quarantines.  The batch stays open. *)

val finish : t -> Sim.Sched.thread -> unit
(** {!flush}, then unregister the gather; further use raises. *)
