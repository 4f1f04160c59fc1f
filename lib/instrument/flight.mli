(** Per-round flight recorder with critical-path attribution.

    Where {!Profile} and {!Histogram} aggregate, a flight recorder keeps
    one causal record per consistency round — the initiator's timestamp
    chain plus every responder's delivery/enter/ack/drain times — and
    reduces each to an exact per-phase blame decomposition, a critical
    path (which phase, and for the barrier which straggler responder,
    made the round slow), a bounded top-K reservoir of the slowest
    rounds, and exact whole-run phase totals.  Detached it costs the
    simulation one branch; attached it costs zero simulated time and
    draws nothing from any PRNG (docs/TAIL.md). *)

(** The six consecutive initiator phases of a round, in causal order. *)
type phase =
  | Lock_wait  (** entering the algorithm → pmap lock acquired *)
  | Setup  (** entry bookkeeping + the lazy inconsistency check *)
  | Post  (** local invalidate, action queueing, IPI sends (phase 1) *)
  | Ack_wait  (** the acknowledgement barrier (phase 2) *)
  | Update  (** the page-table change itself (phase 3) *)
  | Finish  (** gen bump / forced invalidation / unlock (phase 4) *)

val phases : phase list
(** In causal order. *)

val phase_name : phase -> string

(** What kind of consistency round a record describes. *)
type kind = Probe.kind =
  | Round  (** an ordinary shootdown round *)
  | Gather_flush  (** a gather batch retiring its deferred ranges *)
  | Elided  (** replaced by a generation bump (no IPIs) *)

val kind_name : kind -> string

(** One responder's view of a round; timestamps are [nan] until the
    corresponding event is observed. *)
type responder = {
  r_cpu : int;
  mutable r_posted : float;
  mutable r_enter : float;
  mutable r_ack : float;
  mutable r_drain : float;
  mutable r_done : float;
}

(** The causal record of one round.  The chain
    [t_start <= t_lock <= t_shoot <= t_barrier <= t_barrier_done
     <= t_update_done <= t_end] bounds the six phases. *)
type record = {
  seq : int;
  cpu : int;
  kind : kind;
  pmap : string;
  pages : int;
  t_start : float;
  mutable t_lock : float;
  mutable t_shoot : float;
  mutable t_barrier : float;
  mutable t_barrier_done : float;
  mutable t_update_done : float;
  mutable t_end : float;
  mutable retries : int;
  mutable responders : responder list;  (** reversed posting order *)
}

val duration : record -> float
(** End-to-end latency, [t_end -. t_start]. *)

val blame : record -> (phase * float) list
(** The per-phase blame decomposition: adjacent differences of the
    timestamp chain, with [Finish] the exact residual so the six
    durations sum to {!duration} bit for bit. *)

val attributed_exactly : record -> bool
(** No unattributed time: every chain timestamp finite, every phase
    nonnegative, and the {!blame} sum exactly equal to {!duration}.
    A missed capture point or mis-ordered hook fails this. *)

(** Critical-path attribution for one record. *)
type critical = {
  c_phase : phase;  (** the phase with the largest blame *)
  c_blame : float;
  c_cpu : int;
      (** when [c_phase] is [Ack_wait]: the responder whose ack arrived
          last; [-1] otherwise *)
  c_detail : string;  (** ["delivery"] | ["handler"] | [""] *)
}

val critical : record -> critical

type t

val default_top_k : int
(** 16. *)

val create : ?top_k:int -> ncpus:int -> unit -> t
(** A recorder for initiator CPUs [0 .. ncpus-1] keeping the [top_k]
    slowest rounds.
    @raise Invalid_argument when [top_k < 1] or [ncpus < 1]. *)

val set_timeline : t -> Timeline.t option -> unit
(** Attach a timeline to receive the derived series as rounds complete:
    counters [rounds], [ipis], [elisions], [retries] and samples
    [round_latency_us]. *)

val timeline : t -> Timeline.t option

val observe : t -> Probe.t -> unit
(** Fold one protocol probe into the recorder ([Vm.Machine.attach_flight]
    subscribes this to a machine's probe stream).  The initiator's probes
    fill the open record's timestamp chain, first write wins: a
    [Barrier_done] with no preceding [Barrier_start] (no remote users)
    collapses [Post]/[Ack_wait] to zero width without clobbering a
    barrier that really ran.  [Round_end] finalizes the record (blame
    totals, top-K insertion, attribution check, timeline forwarding);
    [Round_abort] drops it.  Each responder probe attaches to every open
    round that posted an IPI at that CPU and has not yet seen the event;
    a [Watchdog_retry] re-post keeps the original posting time. *)

(** {2 Results} *)

val rounds : t -> int
val ipis : t -> int
val retries : t -> int

val unattributed : t -> int
(** Completed rounds that failed {!attributed_exactly} — always 0 unless
    a capture point is missing or mis-ordered. *)

val top : t -> record list
(** The slowest completed rounds, slowest first, at most [top_k] (see
    {!create}). *)

val phase_total : t -> phase -> float
(** Exact blame sum over all completed rounds (not just the top-K). *)

val attributed_total : t -> float

val dominant_phase : t -> phase option
(** Whole-run dominant phase by exact totals; [None] before any round. *)

val tail_dominant : t -> phase option
(** The mode of the top-K rounds' critical-path phases. *)

val merge : into:t -> t -> unit
(** Ordered exact merge (the [Profile.merge] contract: merge trial
    results in trial order for byte-identical [--jobs] sweeps).  Merges
    attached timelines when both sides have one.
    @raise Invalid_argument on mismatched [ncpus]/[top_k] or an open
    in-flight round in the source. *)

val to_json : t -> Json.t
(** Schema ["tlbshoot-flight-v1"]: counters, exact phase totals,
    dominant phases, and the top-K records with per-record blame,
    critical path, and responder timelines. *)
