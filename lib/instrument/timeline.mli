(** Windowed time-series telemetry over simulated time.

    Buckets counter increments and latency samples into fixed windows of
    simulated microseconds, turning a run into rates over time (rounds/s,
    IPIs/s, elisions and retries per window) and per-window latency
    quantiles, instead of one whole-run aggregate.  Counts are integers
    and samples land in exact-merge {!Histogram}s, so {!merge} is exact
    and associative — `--jobs N` sweeps stay byte-identical
    (docs/TAIL.md). *)

type t

val default_window : float
(** 1000 simulated microseconds. *)

val create : ?window:float -> unit -> t
(** @raise Invalid_argument on a non-positive window width. *)

val window : t -> float

val count : t -> series:string -> at:float -> int -> unit
(** Add [n] to the counter series' window containing [at], creating the
    series on first use. *)

val observe : t -> series:string -> at:float -> float -> unit
(** Record a latency/size sample into the sample series' window
    containing [at]. *)

val series_names : t -> string list
(** All series (counter and sample), sorted. *)

val counter_windows : t -> series:string -> (int * int) list
(** [(window index, count)] pairs in window order; [[]] for an unknown
    series. *)

val sample_windows : t -> series:string -> (int * Histogram.t) list

val merge : into:t -> t -> unit
(** Exact element-wise merge.
    @raise Invalid_argument when the window widths differ. *)

val to_json : t -> Json.t
(** Schema ["tlbshoot-timeline-v1"]: window width plus every series with
    its per-window counts/rates (counter series) or count/p50/p99/mean
    (sample series), series sorted by name, windows in time order. *)
