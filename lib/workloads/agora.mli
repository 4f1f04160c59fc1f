(** The "Agora" evaluation application (paper section 5.2): a wavefront
    shortest-path search whose shootdown signature is bimodal — kernel
    shootdowns involving 11-15 processors while all workers are busy
    during setup, then only 1-4 processors once the workers are
    barrier-paced and mostly blocked. *)

type config = {
  workers : int;
  runs : int;
  setup_buffers : int;
  buffer_pages : int;
  wavefronts : int;
  phase_mean : float;
  straggler_allocs : int;
}

val default_config : config
val run :
  ?params:Sim.Params.t ->
  ?trace:Instrument.Trace.t ->
  ?attach:(Vm.Machine.t -> unit) ->
  ?cfg:config ->
  unit ->
  Driver.report
