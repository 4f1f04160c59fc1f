(** Minimal JSON: AST, deterministic serializer, recursive-descent parser.

    The serializer is canonical — equal values produce equal bytes — which
    is what makes same-seed benchmark reports byte-comparable.  Field
    order is preserved as given, so callers wanting a stable schema must
    emit fields in a stable order (see {!Metrics.to_json}).  Non-finite
    floats serialize as [null]: JSON has no NaN/infinity literals. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?minify:bool -> t -> string
(** Render; pretty-printed (2-space indent, trailing newline) unless
    [minify] is set. *)

exception Parse_error of string

val of_string : string -> (t, string) result
(** Parse a complete JSON document (trailing whitespace allowed). *)

(** {2 Accessors} *)

val member : string -> t -> t option
(** [member key (Obj ...)] — [None] on missing key or non-object. *)

val path : string list -> t -> t option
(** Nested {!member} lookup. *)

val get_int : t -> int option
val get_float : t -> float option
(** [Int] values are accepted and converted. *)

val get_string : t -> string option
val get_list : t -> t list option
