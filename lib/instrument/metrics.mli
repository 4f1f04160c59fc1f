(** Metrics registry: counters, gauges, and histograms summarized with
    the paper's percentile set (mean±std, min/max, median, p10, p90).

    [counter]/[gauge]/[histogram] get-or-create by name; requesting an
    existing name as a different kind raises [Invalid_argument].  JSON
    snapshots list metrics in sorted name order, so the export schema is
    stable regardless of registration order. *)

type t

type counter
type gauge
type histogram

val create : unit -> t

val counter : t -> string -> counter
val inc : ?by:int -> counter -> unit
val counter_name : counter -> string

val gauge : t -> string -> gauge
val set : gauge -> float -> unit

val histogram : t -> string -> histogram
val observe_list : histogram -> float list -> unit

val merge : into:t -> t -> unit
(** [merge ~into src] folds [src] into [into]: counters add, gauges take
    the source value (skipped while still unset/nan), histograms append
    the source samples in observation order.  Metrics of [src] are walked
    in sorted-name order, so a merge of the same registries is
    deterministic.  Raises [Invalid_argument] if a name is registered as
    different kinds in the two registries. *)

type metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

val to_json : t -> Json.t
(** Object keyed by metric name (sorted); counters/gauges carry a
    ["value"], histograms the full summary. *)
