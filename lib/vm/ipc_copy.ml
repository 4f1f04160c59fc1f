(* Out-of-line data transfer for message passing — Mach's vm_map_copyin /
   vm_map_copyout.

   The paper's introduction motivates TLB consistency with exactly this
   machinery: "copy-on-write or virtual copy sharing of memory is
   aggressively used by many portions of the Mach kernel, including the
   message passing system."  Sending a large message does not copy the
   data; it captures the sender's pages copy-on-write (write-protecting
   the sender's mappings — a shootdown when the sender has threads on
   other processors) and maps the same object into the receiver.

   A copy handle is a list of (object, offset, pages) windows snapshotted
   from the source map; copyout splices them into the destination map. *)

module Addr = Hw.Addr
module Pmap_ops = Core.Pmap_ops

type window = {
  w_obj : Vm_object.t;
  w_offset : int; (* page offset in w_obj *)
  w_pages : int;
}

type t = { windows : window list; total_pages : int }

(* Capture [lo, hi) of [map] as a virtual copy.  The source entries become
   copy-on-write: both the copy and the sender now share the objects
   read-only, and the sender's writable hardware mappings are downgraded —
   the shootdown path when the sender is multi-threaded. *)
let copyin vms self (map : Vm_map.t) ~lo ~hi =
  Vm_map.lock vms self map;
  Vm_map.clip_range map ~lo ~hi;
  let entries = Vm_map.entries_in map ~lo ~hi in
  (* the capture must cover the whole range *)
  let covered =
    List.fold_left (fun a e -> a + (e.Vm_map.e_end - e.Vm_map.e_start)) 0 entries
  in
  if covered <> hi - lo then begin
    Vm_map.unlock vms self map;
    Error `Incomplete_range
  end
  else begin
    let windows =
      List.map
        (fun (e : Vm_map.entry) ->
          Vm_object.reference e.Vm_map.obj;
          e.Vm_map.needs_copy <- true;
          (* downgrade the sender's write mappings so its next write
             shadows the object instead of scribbling on the copy *)
          if Addr.prot_allows e.Vm_map.prot Addr.Write_access then
            Pmap_ops.protect vms.Vmstate.ctx
              (Sim.Sched.current_cpu self)
              map.Vm_map.pmap ~lo:e.Vm_map.e_start ~hi:e.Vm_map.e_end
              ~prot:Addr.Prot_read;
          {
            w_obj = e.Vm_map.obj;
            w_offset = e.Vm_map.obj_offset;
            w_pages = e.Vm_map.e_end - e.Vm_map.e_start;
          })
        entries
    in
    Vm_map.unlock vms self map;
    Ok { windows; total_pages = hi - lo }
  end

(* Splice a copy into [map]: the receiver gets the windows copy-on-write
   at a freshly allocated address.  Consumes the copy's references. *)
let copyout vms self (map : Vm_map.t) (copy : t) =
  (* reserve the address range with a throwaway allocation, then replace
     it window by window *)
  let base =
    Vm_map.allocate vms self map ~pages:copy.total_pages
      ~inh:Vm_map.Inherit_copy ()
  in
  Vm_map.deallocate vms self map ~lo:base ~hi:(base + copy.total_pages);
  let vpn = ref base in
  List.iter
    (fun w ->
      let at = !vpn in
      ignore
        (Vm_map.map_object vms self map ~obj:w.w_obj ~obj_offset:w.w_offset
           ~pages:w.w_pages ~inh:Vm_map.Inherit_copy ~needs_copy:true ~at ());
      (* map_object took its own reference; release the copy's *)
      Sim.Sync.lock vms.Vmstate.sched self vms.Vmstate.vm_lock;
      Vm_map.deallocate_object vms w.w_obj;
      Sim.Sync.unlock vms.Vmstate.sched self vms.Vmstate.vm_lock;
      vpn := at + w.w_pages)
    copy.windows;
  base

(* Send [pages] starting at [src_vpn] from one task to another: copyin
   from the sender, copyout into the receiver.  Returns the address in
   the receiver.  This is the heart of a large mach_msg. *)
let send_ool_data vms self ~(sender : Task.t) ~src_vpn ~pages
    ~(receiver : Task.t) =
  match
    copyin vms self sender.Task.map ~lo:src_vpn ~hi:(src_vpn + pages)
  with
  | Error `Incomplete_range -> Error `Incomplete_range
  | Ok copy -> Ok (copyout vms self receiver.Task.map copy)
