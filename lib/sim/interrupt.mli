(** Interrupt priority levels and per-CPU pending-interrupt bookkeeping.

    The Multimax delivered the shootdown interprocessor interrupt below
    device priority, so device-masked kernel sections delay responders;
    the paper's section 9 proposes a software interrupt above device
    priority.  Both wirings are selected by
    [Params.high_priority_shootdown]. *)

type level = int

val ipl_none : level (** nothing masked *)

val ipl_vm : level (** pmap/VM locks are taken at this level *)

val ipl_device : level
val ipl_high : level (** everything masked *)

type kind = Shootdown | Device

val level_of : Params.t -> kind -> level
(** Delivery level of an interrupt kind under the given parameters. *)

type pending = {
  kind : kind;
  level : level;
  posted_at : float;
      (** when the line was raised; a coalesced re-post keeps the
          earliest, so delivery latency is measured from the first
          raise *)
}

type controller
(** At most one pending entry per kind, like a real interrupt line. *)

val make_controller : unit -> controller
val post : controller -> pending -> unit
val has_pending : controller -> kind -> bool

val deliverable : controller -> ipl:level -> pending option
(** Highest-priority pending interrupt strictly above [ipl]. *)

val take : controller -> pending -> unit
