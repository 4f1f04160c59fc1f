(* Per-CPU memory-management unit: translation through the TLB with
   hardware (or software) reload from the current page tables, protection
   checks against the *cached* entry (so stale entries really do grant
   stale rights — the inconsistency the paper is about), and asynchronous
   reference/modify-bit writeback. *)

type space = { space_id : int; pt : Page_table.t }

type fault_kind =
  | Fault_missing (* no valid translation *)
  | Fault_protection (* translation exists but denies the access *)
  | Fault_no_space (* no address space active for this range *)

type fault = { va : Addr.addr; access : Addr.access; kind : fault_kind }

type t = {
  cpu : Sim.Cpu.t;
  mem : Phys_mem.t;
  tlb : Tlb.t;
  params : Sim.Params.t;
  mutable kernel : space option;
  mutable user : space option;
  (* Software-reload hook (Params.Software_reload): installed by the pmap
     layer; may stall while the relevant pmap is being modified.  Returns
     an invalid PTE (as [Page_table.find] does) for an unmapped page, so
     the per-miss path never boxes an option. *)
  mutable software_reload : (space -> Addr.vpn -> Page_table.pte) option;
  (* Hazard accounting: blind ref/mod writebacks that hit a PTE which was
     no longer a valid mapping of the same frame — page-table corruption
     on real hardware. *)
  mutable corrupting_writebacks : int;
  mutable reloads : int;
}

let create cpu mem (params : Sim.Params.t) =
  {
    cpu;
    mem;
    tlb = Tlb.create ~size:params.tlb_size;
    params;
    kernel = None;
    user = None;
    software_reload = None;
    corrupting_writebacks = 0;
    reloads = 0;
  }

let set_kernel t sp = t.kernel <- Some sp
let set_user t sp = t.user <- sp
let tlb t = t.tlb

let space_for t va = if Addr.is_kernel_addr va then t.kernel else t.user

(* Write the modify (or reference) bit back into the source PTE.  Without
   interlocking this is a blind write: if the OS has invalidated or reused
   the PTE since the entry was loaded, the write corrupts it — the reason
   responders must stall while a pmap is updated (section 3). *)
let writeback_refmod t (e : Tlb.entry) ~set_mod =
  if t.params.tlb_refmod_writeback then begin
    Sim.Bus.access t.cpu.Sim.Cpu.bus ~who:t.cpu.Sim.Cpu.id ();
    let stale = not e.pte.Page_table.valid || e.pte.Page_table.pfn <> e.pfn in
    if t.params.tlb_interlocked_refmod then begin
      (* MC88200-style: interlocked read-modify-write that checks mapping
         validity; a stale entry causes a fault instead of a blind write. *)
      if not stale then begin
        e.pte.Page_table.referenced <- true;
        if set_mod then e.pte.Page_table.modified <- true
      end
    end
    else begin
      if stale then t.corrupting_writebacks <- t.corrupting_writebacks + 1;
      e.pte.Page_table.referenced <- true;
      if set_mod then e.pte.Page_table.modified <- true
    end
  end

(* Load a translation into the TLB.  Hardware reload walks the page tables
   with no regard for any software locks — which is why flushing before a
   pmap change is futile (the entry can come right back).

   On a clustered machine the walk (like the refmod writeback above)
   deliberately stays on the walker's own cluster bus — no [?home]: the
   model assumes page tables are replicated per node, numaPTE-style, so
   translation traffic never crosses the interconnect.  Only the
   shootdown protocol's explicit coherence writes pay remote costs. *)
let reload t sp vpn =
  t.reloads <- t.reloads + 1;
  match t.params.tlb_reload with
  | Sim.Params.Hardware_reload ->
      Sim.Cpu.raw_delay t.cpu t.params.ptw_cost;
      Sim.Bus.access t.cpu.Sim.Cpu.bus ~n:2 ~who:t.cpu.Sim.Cpu.id ();
      Page_table.find sp.pt vpn
  | Sim.Params.Software_reload -> (
      (* Trap to the kernel's reload handler; it may stall while the pmap
         is locked.  Roughly 4x the cost of a hardware walk. *)
      Sim.Cpu.raw_delay t.cpu (4.0 *. t.params.ptw_cost);
      Sim.Bus.access t.cpu.Sim.Cpu.bus ~n:2 ~who:t.cpu.Sim.Cpu.id ();
      match t.software_reload with
      | Some f -> f sp vpn
      | None -> Page_table.find sp.pt vpn)

let rec translate t ~va ~access =
  match space_for t va with
  | None -> Error { va; access; kind = Fault_no_space }
  | Some sp -> (
      let vpn = Addr.vpn_of_addr va in
      match Tlb.lookup t.tlb ~space:sp.space_id ~vpn with
      | Some e ->
          (* The *cached* protection gates the access. *)
          if Addr.prot_allows e.prot access then begin
            (match access with
            | Addr.Write_access when not e.mod_bit ->
                e.mod_bit <- true;
                e.ref_bit <- true;
                writeback_refmod t e ~set_mod:true
            | Addr.Write_access | Addr.Read_access ->
                if not e.ref_bit then begin
                  e.ref_bit <- true;
                  writeback_refmod t e ~set_mod:false
                end);
            Ok e.pfn
          end
          else Error { va; access; kind = Fault_protection }
      | None ->
          let pte = reload t sp vpn in
          if pte.Page_table.valid then begin
            let e =
              {
                Tlb.space = sp.space_id;
                vpn;
                pfn = pte.Page_table.pfn;
                prot = pte.Page_table.prot;
                ref_bit = false;
                mod_bit = false;
                gen = 0 (* re-stamped by [Tlb.insert] when tags are live *);
                pte;
              }
            in
            Tlb.insert t.tlb e;
            translate t ~va ~access
          end
          else Error { va; access; kind = Fault_missing })

let read_word t va =
  match translate t ~va ~access:Addr.Read_access with
  | Ok pfn -> Ok (Phys_mem.read t.mem ~pfn ~offset:(Addr.page_offset va))
  | Error f -> Error f

let write_word t va v =
  match translate t ~va ~access:Addr.Write_access with
  | Ok pfn ->
      Phys_mem.write t.mem ~pfn ~offset:(Addr.page_offset va) v;
      Ok ()
  | Error f -> Error f
