(** Append-only event log in the style of the Mach [xpr] tracing package
    used for the paper's measurements (section 6).  Every record is kept,
    so a long run cannot silently lose its oldest events. *)

type code = Shoot_initiator | Shoot_responder

type event = {
  code : code;
  cpu : int;
  timestamp : float; (** microseconds *)
  arg1 : int; (** initiator: 1 if kernel pmap *)
  arg2 : int; (** initiator: pages involved *)
  arg3 : int; (** initiator: processors shot at *)
  farg : float; (** elapsed time (us) *)
}

type t

val create : unit -> t

val record :
  t ->
  code:code ->
  cpu:int ->
  timestamp:float ->
  ?arg1:int ->
  ?arg2:int ->
  ?arg3:int ->
  ?farg:float ->
  unit ->
  unit

val events_with_code : t -> code -> event list
(** Every event recorded with [code], oldest first. *)
