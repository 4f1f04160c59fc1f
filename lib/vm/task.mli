(** Tasks (address spaces), their threads, and the memory-access path
    that drives the simulated MMU with fault handling.

    Includes the cthreads stack discipline of paper section 7.2: each new
    thread gets a stack region whose first page holds private data and
    whose second page is reprotected to no-access as a guard — the
    reprotect of that never-touched page is the user shootdown that lazy
    evaluation eliminates. *)

type t = {
  task_id : int;
  task_name : string;
  map : Vm_map.t;
  mutable live_threads : int;
  mutable terminated : bool;
}

type Sim.Sched.user_data += Task_thread of t

val create : Vmstate.t -> name:string -> t

val fork : Vmstate.t -> Sim.Sched.thread -> t -> name:string -> t
(** Unix-style fork: the child copies the parent's address space by
    per-entry inheritance (copy entries become copy-on-write, which
    write-protects the parent's mappings — a shootdown if the parent has
    threads on other processors). *)

val terminate : Vmstate.t -> Sim.Sched.thread -> t -> unit
(** Tear the address space down (idempotent). *)

val adopt : Vmstate.t -> Sim.Sched.thread -> t -> unit
(** Make the calling thread a member of [task] and load the task's
    address space on the current processor. *)

val spawn_thread :
  Vmstate.t ->
  t ->
  ?bound:int ->
  name:string ->
  (Sim.Sched.thread -> unit) ->
  Sim.Sched.thread

val setup_thread_stack : Vmstate.t -> Sim.Sched.thread -> t -> Hw.Addr.vpn
(** The cthreads stack ritual: allocate, write the private-data page,
    reprotect the (untouched) guard page to no access.  Returns the base. *)

(** {2 Memory access through the MMU} *)

type access_error = Err_protection | Err_no_entry

val read_word :
  Vmstate.t -> Sim.Sched.thread -> Vm_map.t -> Hw.Addr.addr ->
  (int, access_error) result
(** Translate-and-read; traps into vm_fault and retries on a miss. *)

val write_word :
  Vmstate.t -> Sim.Sched.thread -> Vm_map.t -> Hw.Addr.addr -> int ->
  (unit, access_error) result

val touch_range :
  Vmstate.t ->
  Sim.Sched.thread ->
  Vm_map.t ->
  lo_vpn:Hw.Addr.vpn ->
  pages:int ->
  access:Hw.Addr.access ->
  (unit, access_error) result

val vm_copy :
  Vmstate.t ->
  Sim.Sched.thread ->
  src:t ->
  src_va:Hw.Addr.addr ->
  dst:t ->
  dst_va:Hw.Addr.addr ->
  words:int ->
  (unit, access_error) result
(** Copy between address spaces through the kernel (vm_read/vm_write):
    faults pages through each map's own path — resolving copy-on-write on
    the destination — and moves the data through physical memory. *)
