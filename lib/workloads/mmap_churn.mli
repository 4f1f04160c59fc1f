(** The mmap-churn server workload (docs/ELISION.md): a long-running
    multi-threaded server whose workers map, fill, serve and unmap a
    request buffer at high rate.  Every unmap hits freshly written pages
    with the shared space in use everywhere, so the per-request shootdown
    cannot be skipped lazily — the traffic pattern generation-tagged
    flush elision collapses (arXiv 2409.10946). *)

type config = {
  workers : int;  (** server threads sharing one address space *)
  requests : int;  (** requests served per worker *)
  buffer_pages_max : int;  (** request buffers are 1..max pages *)
  service_mean : float;  (** us of request handling, buffer mapped *)
  think_mean : float;  (** us between requests *)
}

val default_config : config

val run :
  ?params:Sim.Params.t ->
  ?trace:Instrument.Trace.t ->
  ?attach:(Vm.Machine.t -> unit) ->
  ?cfg:config ->
  unit ->
  Driver.report
