(** Per-CPU memory-management unit: translation through the TLB with
    hardware (or software) reload, protection checks against the
    {e cached} entry — so stale entries really do grant stale rights —
    and asynchronous reference/modify-bit writeback. *)

type space = { space_id : int; pt : Page_table.t }

type fault_kind =
  | Fault_missing (** no valid translation *)
  | Fault_protection (** translation denies the access *)
  | Fault_no_space (** no address space active for this range *)

type fault = { va : Addr.addr; access : Addr.access; kind : fault_kind }

type t = {
  cpu : Sim.Cpu.t;
  mem : Phys_mem.t;
  tlb : Tlb.t;
  params : Sim.Params.t;
  mutable kernel : space option;
  mutable user : space option;
  mutable software_reload : (space -> Addr.vpn -> Page_table.pte) option;
      (** installed by the pmap layer under [Params.Software_reload];
          may stall while the relevant pmap is being modified.  Returns
          an invalid PTE (as [Page_table.find] does) for unmapped pages,
          keeping the per-miss path free of option boxing *)
  mutable corrupting_writebacks : int;
      (** blind ref/mod writebacks that hit a no-longer-valid PTE —
          page-table corruption on real hardware *)
  mutable reloads : int;
}

val create : Sim.Cpu.t -> Phys_mem.t -> Sim.Params.t -> t
val set_kernel : t -> space -> unit
val set_user : t -> space option -> unit
val tlb : t -> Tlb.t

val translate : t -> va:Addr.addr -> access:Addr.access -> (Addr.pfn, fault) result
(** Translate one reference, performing reload and ref/mod maintenance
    side effects (simulated time, bus traffic, PTE bit writeback). *)

val read_word : t -> Addr.addr -> (int, fault) result
val write_word : t -> Addr.addr -> int -> (unit, fault) result
