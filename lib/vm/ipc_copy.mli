(** Out-of-line data transfer for message passing (vm_map_copyin /
    vm_map_copyout): large messages move as virtual copies, not byte
    copies.  Capturing the sender's pages write-protects its mappings — a
    TLB shootdown when the sender has threads on other processors, which
    is one of the paper's motivating uses of shared memory. *)

type t

val send_ool_data :
  Vmstate.t ->
  Sim.Sched.thread ->
  sender:Task.t ->
  src_vpn:Hw.Addr.vpn ->
  pages:int ->
  receiver:Task.t ->
  (Hw.Addr.vpn, [ `Incomplete_range ]) result
(** One large mach_msg: copyin from the sender, copyout to the receiver;
    returns the receiver-side address. *)
