(** Extraction of shootdown measurements from an xpr buffer in the shape
    the paper reports them (section 6): initiator events carry the
    kernel/user flag, page count, processor count and elapsed time;
    responder events carry the interrupt-service elapsed time. *)

type initiator = {
  on_kernel_pmap : bool;
  pages : int;
  processors : int; (** processors shot at *)
  elapsed : float; (** us until the initiator could change the pmap *)
  at : float;
}

val initiators : Xpr.t -> initiator list
val responders : Xpr.t -> float list

val kernel_initiators : Xpr.t -> initiator list
val user_initiators : Xpr.t -> initiator list
val elapsed_of : initiator list -> float list
val pages_of : initiator list -> float list
val processors_of : initiator list -> float list

val total_overhead : initiator list -> float
(** Sum of elapsed times (events x average). *)
