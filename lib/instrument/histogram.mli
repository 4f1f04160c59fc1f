(** HDR-style log-bucketed histograms.

    Bucket 0 is the underflow bucket (values below [lo]); bucket [i] of
    [1..buckets] covers [lo * gamma^(i-1), lo * gamma^i); one more bucket
    catches overflow.  Counts are integers, so {!merge} is exact and
    associative — the property that keeps multi-domain sweeps
    byte-identical (see docs/PROFILING.md). *)

type t

val create : ?lo:float -> ?gamma:float -> ?buckets:int -> unit -> t
(** Defaults: [lo] 0.5, [gamma] 2{^1/4}, 120 buckets — about six decades
    of simulated microseconds at a worst-case quantile error of ~19%.
    @raise Invalid_argument on a non-positive [lo], [gamma <= 1] or
    [buckets < 1]. *)

val observe : t -> float -> unit

val bucket_index : t -> float -> int
(** Index of the bucket a value lands in (0 = underflow,
    [buckets + 1] = overflow). *)

val bucket_bounds : t -> int -> float * float
(** [lower, upper) bounds of a bucket index. *)

val count : t -> int
val mean : t -> float (** [nan] when empty. *)

val quantile : t -> float -> float
(** Upper bound of the bucket containing the rank, clamped to the
    observed [min, max]; [nan] when empty. *)

val merge : into:t -> t -> unit
(** Add [src]'s counts into [into].
    @raise Invalid_argument when the bucket layouts differ. *)

val to_json : t -> Json.t
(** Summary statistics plus the non-empty buckets as
    [{"le": upper, "count": n}] pairs, in bucket order. *)
