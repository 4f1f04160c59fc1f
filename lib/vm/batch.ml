(* Map-level batched deallocation: a Core.Gather bound to one address
   map, plus the bookkeeping VM callers need on top of the raw gather.

   The gather's contract is that nothing a batched operation tears down
   may be reused before the flush.  At the map level that means two
   things the core layer cannot do for itself:

   - the deallocated address range must stay *quarantined* — blocked
     from reallocation — until the TLB invalidations retire, because a
     stale translation could still resolve an address inside it; and

   - the object references (and hence the physical frames) of the doomed
     entries must not be dropped until after the flush, so the frames
     cannot be recycled while stale translations still point at them.

   Both are deferred here: [deallocate] queues the pmap teardown on the
   gather and pushes a cleanup thunk; [flush] retires the TLB round and
   then runs the thunks, which release the objects and lift the
   quarantine.  [Params.batch_max_ops] bounds how long frames can sit in
   this limbo ([deallocate] auto-flushes past it). *)

module Gather = Core.Gather

type t = {
  vms : Vmstate.t;
  map : Vm_map.t;
  g : Gather.t;
  mutable cleanup : (Sim.Sched.thread -> unit) list; (* newest first *)
}

let start (vms : Vmstate.t) (map : Vm_map.t) =
  { vms; map; g = Gather.start vms.Vmstate.ctx map.Vm_map.pmap; cleanup = [] }

let map t = t.map

let flush t self =
  Gather.flush t.g (Sim.Sched.current_cpu self);
  let thunks = List.rev t.cleanup in
  t.cleanup <- [];
  List.iter (fun f -> f self) thunks

let deallocate t self ~lo ~hi =
  let vms = t.vms and map = t.map in
  Vm_map.lock vms self map;
  Vm_map.clip_range map ~lo ~hi;
  let doomed = Vm_map.entries_in map ~lo ~hi in
  map.Vm_map.entries <-
    List.filter (fun e -> not (List.memq e doomed)) map.Vm_map.entries;
  map.Vm_map.size_pages <-
    map.Vm_map.size_pages
    - List.fold_left
        (fun a (e : Vm_map.entry) -> a + (e.Vm_map.e_end - e.Vm_map.e_start))
        0 doomed;
  if doomed = [] then begin
    Vm_map.simplify map;
    Vm_map.unlock vms self map
  end
  else begin
    (* Quarantine the exact tuple we can later remove by identity:
       overlapping batched deallocations may quarantine equal ranges. *)
    let qr = (lo, hi) in
    map.Vm_map.quarantined <- qr :: map.Vm_map.quarantined;
    Gather.unmap t.g (Sim.Sched.current_cpu self) ~lo ~hi;
    t.cleanup <-
      (fun self ->
        Sim.Sync.lock vms.Vmstate.sched self vms.Vmstate.vm_lock;
        List.iter
          (fun (e : Vm_map.entry) -> Vm_map.deallocate_object vms e.Vm_map.obj)
          doomed;
        Sim.Sync.unlock vms.Vmstate.sched self vms.Vmstate.vm_lock;
        Vm_map.lock vms self map;
        map.Vm_map.quarantined <-
          List.filter (fun r -> r != qr) map.Vm_map.quarantined;
        Vm_map.simplify map;
        Vm_map.unlock vms self map)
      :: t.cleanup;
    Vm_map.unlock vms self map;
    (* Auto-flush outside the map lock: the cleanup thunks re-take it. *)
    if Gather.should_flush t.g then flush t self
  end

let finish t self =
  flush t self;
  Gather.finish t.g (Sim.Sched.current_cpu self)
