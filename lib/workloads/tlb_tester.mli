(** The TLB-consistency tester of paper section 5.1.

    A page (or several) of counters incremented by spinning child threads
    through the simulated MMU; the main thread reprotects the region
    read-only, snapshots the counters, and any counter that advances
    afterwards was written through a stale TLB entry.  On an n-CPU
    machine, k < n children cause exactly one shootdown involving exactly
    k processors — the Figure 2 microbenchmark. *)

type result = {
  consistent : bool;
  processors : int; (** processors involved in the shootdown *)
  initiator_elapsed : float; (** us; [nan] if no shootdown event *)
  increments_total : int;
  violations : int; (** counters that advanced after reprotection *)
}

val run :
  ?pages:int ->
  ?churn_rounds:int ->
  ?churn_gap:float ->
  ?warmup:float ->
  ?grace:float ->
  Vm.Machine.t ->
  children:int ->
  unit ->
  result
(** Run the tester on a freshly booted machine (consumes it).  [warmup]
    (default 3000 us) is how long the children hammer the page
    before the reprotect; [grace] (default 2000 us) how long stale
    entries get to do damage afterwards.  The 1024-CPU scale sweeps
    raise both.

    [churn_rounds] (default 0) adds a churn phase between warmup and
    reprotect: that many main-thread-touched throwaway pages are
    deallocated one at a time, [churn_gap] us apart (default 150), each
    unmap a complete k-responder shootdown round.  The tail-attribution
    sweep (experiments/tail) uses this to give each trial a real
    population of rounds; with the default 0 the run is event-for-event
    the historical single-round tester.
    @raise Invalid_argument if [children >= ncpus]. *)

val run_fresh :
  ?params:Sim.Params.t ->
  ?pages:int ->
  ?churn_rounds:int ->
  ?churn_gap:float ->
  ?warmup:float ->
  ?grace:float ->
  children:int ->
  seed:int64 ->
  unit ->
  result
(** Boot a machine with [seed] and run once. *)
