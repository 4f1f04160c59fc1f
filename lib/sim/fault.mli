(** Deterministic fault injection for the shootdown protocol.

    A {!plan} perturbs exactly the hardware assumptions the paper's
    software protocol leans on: IPIs arrive, responders get to run, lock
    holders keep running, action queues do not overflow.  All decisions
    and magnitudes come from a dedicated SplitMix64 stream per CPU, so a
    faulty run is still a pure function of [(Params.seed, plan)].

    A zero plan produces no injector at all ({!injector} returns [None]),
    which guarantees the healthy paths consume the same PRNG draws and
    schedule the same events as a build without this module — the basis
    of the byte-identical zero-fault regression gate. *)

type plan = {
  ipi_drop_rate : float;  (** P(shootdown IPI silently lost) *)
  ipi_delay_rate : float;  (** P(shootdown IPI delayed in flight) *)
  ipi_delay_mean : float;  (** mean extra latency of a delayed IPI, us *)
  responder_stall_rate : float;
      (** P(responder stuck in an overlong device-masked section before
          its shootdown handler runs) *)
  responder_stall_mean : float;  (** mean stall length, us *)
  lock_preempt_rate : float;
      (** P(a spinlock holder is preempted right after acquiring) *)
  lock_preempt_mean : float;  (** mean preemption length, us *)
  queue_overflow_rate : float;
      (** P(an initiator's enqueue finds the target queue full, latching
          the overflow-to-full-flush path) *)
  fault_seed : int64;  (** extra entropy; distinguishes equal-rate plans *)
}

val none : plan
(** All rates zero: inject nothing. *)

type t
(** A per-CPU injector: the plan plus its private PRNG and counters. *)

val injector : plan -> seed:int64 -> t option
(** [None] when [is_none plan] — the zero-fault fast path. *)

type ipi_fate = Deliver | Drop | Delay of float

val ipi_fate : t -> ipi_fate
(** Decide the fate of one outgoing shootdown IPI. *)

val responder_stall : t -> float option
(** Extra masked delay before a shootdown handler runs, if any. *)

val lock_preemption : t -> float option
(** Extra critical-section delay after a spinlock acquire, if any. *)

val forced_overflow : t -> bool
(** Whether to force the target's action queue into overflow. *)

(** Aggregated injection counts, for reports. *)
type counters = {
  dropped : int;
  delayed : int;
  stalls : int;
  preempts : int;
  overflows : int;
}

val zero_counters : counters
val add_counters : counters -> counters -> counters

val total_counters : t option array -> counters
(** Sum over a machine's per-CPU injectors. *)
