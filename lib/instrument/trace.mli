(** Structured span-event tracing for the shootdown hot path.

    Named events with typed attributes, emitted by [Sim.Engine] and by
    [Core.Shoot_trace] (a consumer of the shootdown probe stream) when a
    tracer is attached (the zero-tracer cost is one branch).  The span stream is what the [tlbshoot trace]
    subcommand dumps; see docs/OBSERVABILITY.md for the schema. *)

type value = Bool of bool | Int of int | Float of float | Str of string

type span = {
  name : string;
  cpu : int;  (** -1 when not attributable to one CPU *)
  at : float;  (** simulated us *)
  dur : float;  (** 0.0 for instantaneous events *)
  attrs : (string * value) list;
}

type t

val create : ?cap:int -> unit -> t
(** [cap] bounds the buffer to a ring of that many spans: once full, each
    new span overwrites the oldest and {!dropped} counts the loss.
    Unbounded by default.
    @raise Invalid_argument when [cap < 1]. *)

val emit :
  t ->
  name:string ->
  cpu:int ->
  at:float ->
  ?dur:float ->
  ?attrs:(string * value) list ->
  unit ->
  unit

val length : t -> int
(** Spans currently retained. *)

val emitted : t -> int
(** Total spans emitted, including any since dropped by the ring. *)

val dropped : t -> int
(** Spans overwritten by a capped buffer ([0] when unbounded). *)

val dropped_warning : t -> string option
(** A human-readable warning when {!dropped} is nonzero — report
    consumers print it on stderr so a truncated trace is never mistaken
    for a complete one; [None] when nothing was lost. *)

val spans : t -> span list
(** Retained spans in emission order (the oldest retained first). *)

val render : t -> string
(** Chronological listing relative to the first span. *)

val value_to_json : value -> Json.t

val report_json : t -> Json.t
(** Schema ["tlbshoot-spans-v1"]: the retained spans as a JSON array
    (["spans"]) with the [emitted]/[dropped] counters (see
    docs/OBSERVABILITY.md). *)
