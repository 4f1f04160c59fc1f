(** Statistics for the evaluation: summaries with the percentile-based skew
    diagnostics of section 7.3, least-squares trend lines (Figure 2), and a
    bimodality check (the Agora distribution). *)

type summary = {
  n : int;
  mean : float;
  std : float;
  min : float;
  max : float;
  median : float;
  p10 : float;
  p90 : float;
}

val mean : float list -> float
val std : float list -> float

val percentile : float list -> float -> float
(** Linear interpolation between closest ranks; [nan] on empty input. *)

val summarize : float list -> summary

type fit = { slope : float; intercept : float; r2 : float }

val linear_fit : (float * float) list -> fit
(** Ordinary least squares. @raise Invalid_argument on degenerate input. *)

type histogram = { lo : float; bin_width : float; counts : int array }

val histogram : ?bins:int -> float list -> histogram

val bimodal : ?bins:int -> float list -> bool
(** Two separated histogram peaks with a valley at most half their height. *)
