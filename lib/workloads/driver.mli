(** Shared scaffolding for the evaluation applications (paper section
    5.2): run a workload on a fresh machine and extract the measurements
    in the shape of Tables 1-4. *)

exception
  Workload_fault of { workload : string; what : string; cpu : int; now : float }
(** A workload self-check failed (e.g. a writer observed a stale counter,
    or memory it expected to fault stayed writable).  Follows the
    [Sched.Broken_invariant] convention: [cpu] is [-1] and [now] is [nan]
    where that context does not exist at the raise site.  Registered with
    [Printexc], so counterexample traces and fault-run backtraces print
    the full context. *)

val fault : workload:string -> what:string -> ?cpu:int -> ?now:float -> unit -> 'a
(** Raise {!Workload_fault} with the given context (defaults: [cpu = -1],
    [now = nan]). *)

type report = {
  name : string;
  runtime : float; (** simulated us *)
  busy_time : float; (** total CPU busy time *)
  kernel_initiators : Instrument.Summary.initiator list;
  user_initiators : Instrument.Summary.initiator list;
  responders : float list; (** sampled responder elapsed times *)
  skipped_lazy : int; (** shootdowns avoided by the lazy check *)
  ipis_sent : int;
  shootdowns_initiated : int; (** consistency rounds actually run *)
  batches_opened : int;
  batch_ops : int; (** operations queued into gather batches *)
  batch_flushes : int; (** batch flushes that ran a round *)
  rounds_elided : int;
      (** shootdown rounds replaced by a generation bump
          (docs/ELISION.md) *)
  gen_bumps : int; (** generation bumps published *)
  gen_stale_drops : int;
      (** generation-stale TLB entries evicted at lookup, summed over
          every CPU's TLB *)
}

val run :
  ?params:Sim.Params.t ->
  ?trace:Instrument.Trace.t ->
  ?attach:(Vm.Machine.t -> unit) ->
  name:string ->
  (Vm.Machine.t -> Sim.Sched.thread -> unit) ->
  report
(** [trace], when given, is attached to the machine's pmap context and
    engine before the body runs, so the whole workload emits structured
    shootdown spans into it.  [attach] runs after the machine boots and
    before the body — the hook the batching ablation uses to install the
    consistency oracle on every trial. *)

val scaled_responder_time : Sim.Params.t -> report -> float
(** Sampled responder time summed and scaled from the
    [responder_sample_cpus] sampled processors to all of them. *)

val overhead_percent : Sim.Params.t -> report -> float
(** Initiator plus sample-scaled responder time over busy time, the
    paper's pessimistic accounting. *)
