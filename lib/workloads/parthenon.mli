(** The "Parthenon" evaluation application (paper section 5.2): a
    15-way-parallel theorem prover run five times in succession.  Thread
    startup performs the cthreads stack ritual whose guard-page reprotect
    is the user shootdown lazy evaluation eliminates (70 -> 0 in Table 1);
    the barely-touched kernel stacks freed at thread exit supply the few
    kernel events. *)

type config = {
  workers : int;
  runs : int;
  initial_work : int;
  expand_mean : float;
  branch_prob : float;
  max_items : int;
  kernel_stack_pages : int;
  kernel_stack_touch_prob : float;
}

val default_config : config
val run :
  ?params:Sim.Params.t ->
  ?trace:Instrument.Trace.t ->
  ?attach:(Vm.Machine.t -> unit) ->
  ?cfg:config ->
  unit ->
  Driver.report
