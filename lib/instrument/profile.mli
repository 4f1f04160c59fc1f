(** Per-CPU simulated-time attribution for the contention profiler.

    Hooks in [Sim.Cpu], [Sim.Bus] and [Sim.Spinlock], and the
    shootdown protocol's probe stream ({!probe_observer}), classify every
    clock advance into a {!category}; whatever no hook sees (blocked or idle coroutines) is the [idle] remainder.  Named
    {!Histogram}s for lock wait/hold, bus queue depth, IPI latency and
    shootdown phases ride along.  Both merge exactly across trials, so
    `--jobs N` sweeps stay deterministic (docs/PROFILING.md). *)

type category =
  | Compute  (** attributed clock advances outside any bracketed region *)
  | Lock_spin  (** spinning on a held [Sim.Spinlock] *)
  | Ack_wait  (** shootdown barrier: waiting on acks / the pmap lock *)
  | Bus_wait  (** queueing + service on the (cluster) bus *)
  | Interconnect_wait
      (** queueing + service + wire latency on the inter-cluster
          interconnect; only a clustered [Sim.Bus] charges it
          (docs/TOPOLOGY.md) *)
  | Intr_dispatch  (** interrupt vectoring, handler service, return *)
  | Queue_drain  (** executing queued consistency actions *)

val categories : category list
(** In report order. *)

val category_name : category -> string

type t

val create : ncpus:int -> unit -> t
val ncpus : t -> int

val set_tracer : t -> Trace.t option -> unit
(** When set, every {!leave} also emits a ["prof.<category>"] span
    covering the region, for the Perfetto timeline. *)

val enter : t -> cpu:int -> at:float -> category -> unit
(** Push a region: subsequent {!account} calls on [cpu] charge it. *)

val leave : t -> cpu:int -> at:float -> unit
(** Pop the innermost region (no-op on an empty stack). *)

val account : t -> cpu:int -> float -> unit
(** Charge a clock advance to the current category of [cpu]. *)

val account_as : t -> cpu:int -> category -> float -> unit
(** Charge a clock advance to a fixed category, bypassing the stack
    (how [Sim.Bus] charges stalls to [Bus_wait]). *)

val observe : t -> name:string -> float -> unit
(** Record a sample into the named histogram, creating it on first use. *)

val probe_observer : t -> Probe.t -> unit
(** [probe_observer t] is a consumer of one machine's shootdown probe
    stream ([Vm.Machine.attach_profile] subscribes it): it brackets the
    initiator's barrier and every responder or idle-check stall as
    [Ack_wait], queued-action execution as [Queue_drain], and samples
    the [shoot/initiator_us], [shoot/barrier_us], [shoot/update_us] and
    [shoot/responder_us] histograms.  Each application keeps its own
    per-CPU pairing state, so build one per machine. *)

val histogram : t -> name:string -> Histogram.t option

val get : t -> cpu:int -> category -> float
val attributed : t -> cpu:int -> float
(** Sum of all category buckets for one CPU. *)

val category_total : t -> category -> float
val attributed_total : t -> float

val set_clusters : t -> int array -> unit
(** Record the CPU-to-cluster map of a clustered machine (index = CPU
    id).  Purely a report-time annotation: attribution stays per-CPU, so
    {!merge} semantics are unchanged.
    @raise Invalid_argument when the map length is not [ncpus]. *)

val cluster_total : t -> cluster:int -> category -> float
(** Category total summed over the CPUs of one cluster (with no cluster
    map: cluster 0 holds everything). *)

val set_total : t -> float -> unit
(** Record the per-CPU simulated time span (engine time at the end of the
    run); {!merge} sums it across trials. *)

val total : t -> float

val idle : t -> cpu:int -> float
(** [total - attributed]: simulated time the hooks never saw. *)

val merge : into:t -> t -> unit
(** Element-wise exact merge of buckets, totals and histograms.
    @raise Invalid_argument when the CPU counts differ. *)

val to_json : t -> Json.t
(** Schema ["tlbshoot-profile-v1"]: per-CPU and total buckets (including
    the idle remainder) plus the named histograms, sorted by name.  On a
    clustered machine ({!set_clusters}), also a per-cluster section. *)
