(** Memory interconnect modelled as FCFS servers.

    Flat topology: a single shared bus whose queueing delays reproduce
    the bus congestion the paper observes above ~12 busy processors.
    Clustered topology ([Params.topology]): one bus per cluster of CPUs
    joined by an interconnect; transactions to another node cross local
    bus, interconnect and remote bus in sequence (docs/TOPOLOGY.md).
    With one cluster the flat code path runs, byte-identical to the
    historical single-server bus. *)

type t

val create : Engine.t -> Params.t -> t

val access : t -> ?n:int -> ?who:int -> ?home:int -> unit -> unit
(** [access t ~n ~who ~home ()] performs [n] transactions from the
    calling coroutine, delaying it for queueing plus service time.
    [who] is the issuing CPU for the profiler's Bus_wait attribution
    (default -1: unattributed, homed on cluster 0).  [home] is a CPU id
    on the node owning the referenced memory; default is the issuer's
    own node.  On a clustered bus a remote access also queues on the
    interconnect (charged to Interconnect_wait) and the remote node's
    bus; on a flat bus [home] is ignored. *)

val set_profile : t -> Instrument.Profile.t option -> unit
(** Attach the contention profiler: every {!access} charges its bus
    stalls to the issuer's Bus_wait bucket (and interconnect stalls to
    Interconnect_wait) and records the queue depth seen at enqueue.  One
    branch of cost while [None]. *)

val post_async : t -> ?who:int -> ?home:int -> n:int -> unit -> unit
(** Consume bandwidth without blocking the caller (DMA-like traffic). *)

val clusters : t -> int
(** Number of cluster buses (1 = flat). *)

val clustered : t -> bool
val cluster_of_cpu : t -> int -> int

val home_cpu : t -> cluster:int -> int
(** A representative CPU id on the given cluster (its first CPU) — what
    callers pass as [?home] to address memory on that node. *)

val transactions : t -> int
(** Transactions summed over the cluster buses (flat: the single bus). *)

val total_wait : t -> float
val total_busy : t -> float
