(** Deterministic SplitMix64 pseudo-random stream.

    Every simulation owns its own stream, making runs pure functions of
    their seed (the global [Random] module is never used). *)

type t

val create : int64 -> t
(** Fresh stream from a seed. *)

val split : t -> t
(** Derive an independent child stream (consumes one draw). *)

val float : t -> float
(** Uniform in [0, 1). *)

val int : t -> int -> int
(** [int t bound] is uniform-ish in [0, bound). [bound] must be positive. *)

val uniform : t -> float -> float -> float

val exponential : t -> float -> float
(** [exponential t mean] draws from Exp with the given mean. *)

val jitter : t -> float -> float
(** [jitter t s] is uniform in [1 - s, 1 + s]; multiply costs by it. *)
