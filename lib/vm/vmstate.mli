(** Shared machine-independent VM state: the global VM lock, resident-page
    bookkeeping, the active/inactive queues the pageout daemon scans, and
    the free-memory watermarks. *)

type t = {
  ctx : Core.Pmap.ctx;
  sched : Sim.Sched.t;
  vm_lock : Sim.Sync.mutex;
  page_wanted : Sim.Sync.condvar;
  pageout_cv : Sim.Sync.condvar;
  free_cv : Sim.Sync.condvar;
  resident : (int, Vm_object.t * Vm_object.page) Hashtbl.t;
  mutable active_q : Vm_object.page list;
  mutable inactive_q : Vm_object.page list;
  free_low : int;
  free_target : int;
  mutable pageouts : int;
  mutable pageins : int;
  mutable zero_fills : int;
  mutable cow_copies : int;
  flush_counts : int array;
  mutable limbo : (Hw.Addr.pfn * int array) list;
  mutable deferred_frees : int;
}

val create :
  ctx:Core.Pmap.ctx ->
  sched:Sim.Sched.t ->
  ?free_low:int ->
  ?free_target:int ->
  unit ->
  t

val mem : t -> Hw.Phys_mem.t
val lock : t -> Sim.Sched.thread -> unit
val unlock : t -> Sim.Sched.thread -> unit
val free_frames : t -> int

val grab_frame :
  t -> Sim.Sched.thread -> obj:Vm_object.t -> offset:int -> wired:bool ->
  Vm_object.page
(** Allocate a frame for [obj]/[offset] (VM lock held; may wait for the
    pageout daemon when memory is tight). *)

val release_page : t -> Vm_object.t -> Vm_object.page -> unit
(** Free a resident page and its frame (VM lock held). *)

val activate_page : t -> Vm_object.page -> unit
val deactivate_some : t -> int -> unit
val wait_not_busy : t -> Sim.Sched.thread -> Vm_object.page -> unit
val owner_of_pfn : t -> int -> (Vm_object.t * Vm_object.page) option

val note_full_flush : t -> cpu_id:int -> unit
(** A CPU flushed its whole TLB (Deferred_free policy): advance its epoch
    and release quarantined frames every CPU has flushed past. *)

val collapse_chain : t -> Vm_object.t -> unit
(** Collapse the object's shadow chain as far as possible (VM lock held),
    moving residence records and freeing unreachable pages. *)
