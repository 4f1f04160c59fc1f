(** Spinlocks with an associated interrupt priority level (paper section 4:
    every lock has a fixed IPL; it is requested at that level and held at
    that level or higher, which prevents deadlocks between locks and the
    shootdown barrier synchronization). *)

type t

val create : ?level:Interrupt.level -> string -> t
(** [create ~level name]; default level is {!Interrupt.ipl_vm}. *)

val is_locked : t -> bool
val holder : t -> int option

val acquire : t -> Cpu.t -> Interrupt.level
(** Raise the caller's IPL to the lock's level, spin until free, take the
    lock.  Returns the saved IPL for {!release}.
    @raise Invalid_argument on recursive acquisition. *)

val release : t -> Cpu.t -> saved_ipl:Interrupt.level -> unit
(** Drop the lock and restore the saved IPL.
    @raise Invalid_argument if the caller does not hold the lock. *)
