(** Paper-style text tables: a title, a header row, aligned columns, and
    the mean±std / "NM" (not meaningful) cell conventions of Tables 1-4. *)

type t

val create : title:string -> headers:string list -> t
val add_row : t -> string list -> unit

val mean_std : float -> float -> string
(** "mean±std" with no decimals; "NM" for nan. *)

val us : float -> string
(** Whole microseconds; "NM" for nan. *)

val nm : string
(** "NM": insufficient data or an unusual distribution. *)

val render : t -> string
