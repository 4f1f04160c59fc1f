(** The "Mach" evaluation application (paper section 5.2): a parallel
    kernel build.  Single-threaded compile tasks with no inter-task
    sharing — so no user shootdowns — but heavy pageable kernel-buffer
    churn, the dominant source of kernel-pmap shootdowns; buffers never
    touched are the lazy-evaluation savings of Table 1. *)

type config = {
  jobs : int;
  parallelism : int;
  buffers_per_job : int;
  buffer_pages : int;
  use_fraction : float; (** fraction of buffers actually written *)
  source_pages : int;
  compute_per_buffer : float;
}

val default_config : config

val run :
  ?params:Sim.Params.t ->
  ?trace:Instrument.Trace.t ->
  ?attach:(Vm.Machine.t -> unit) ->
  ?cfg:config ->
  unit ->
  Driver.report
