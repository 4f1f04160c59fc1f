(** The "Camelot" evaluation application (paper section 5.2): an 8-way
    transaction load against a recoverable segment.  Commit write-protects
    the pages a transaction dirtied (first-write detection), producing
    the only user-pmap shootdowns among the four applications — usually
    one page, involving few processors because the workers mostly wait on
    the log. *)

type config = {
  workers : int;
  transactions : int;
  db_pages : int;
  touch_per_txn_max : int;
  think_mean : float;
  log_latency : float;
  log_buffer_every : int;
}

val default_config : config
val run :
  ?params:Sim.Params.t ->
  ?trace:Instrument.Trace.t ->
  ?attach:(Vm.Machine.t -> unit) ->
  ?cfg:config ->
  unit ->
  Driver.report
