(* Host-time microbenchmarks of single layers, each timing calls into the
   layer's public functions from here.  A figure is the median over
   [reps] repetitions of the time per operation. *)

module Machine = Vm.Machine
module Engine = Sim.Engine
module Addr = Hw.Addr

let reps = 5

(* [setup ()] builds fresh state and returns the timed action, which
   performs [ops] operations. *)
let per_op ~ops ~scale setup =
  let sample () =
    let run = setup () in
    let t0 = Unix.gettimeofday () in
    run ();
    (Unix.gettimeofday () -. t0) *. scale /. float_of_int ops
  in
  Stats.median (List.init reps (fun _ -> sample ()))

let ns = 1e9
let ms = 1e3

let heap_push_pop () =
  let ops = 200_000 in
  per_op ~ops ~scale:ns (fun () ->
      let h = Sim.Heap.create ~dummy:0 () in
      for i = 0 to 1023 do
        Sim.Heap.push h (float_of_int i) i i
      done;
      let seq = ref 1024 in
      fun () ->
        for _ = 1 to ops do
          let t = Sim.Heap.min_time h in
          ignore (Sim.Heap.pop_payload h);
          Sim.Heap.push h (t +. 1024.0) !seq 0;
          incr seq
        done)

let engine_dispatch () =
  let ops = 200_000 in
  per_op ~ops ~scale:ns (fun () ->
      let eng = Engine.create () in
      let n = ref 0 in
      let rec tick () =
        incr n;
        if !n < ops then Engine.after eng 1.0 tick
      in
      Engine.at eng 0.0 tick;
      fun () -> Engine.run eng)

let engine_delay_resume () =
  let ops = 200_000 in
  per_op ~ops ~scale:ns (fun () ->
      let eng = Engine.create () in
      Engine.spawn eng (fun () ->
          for _ = 1 to ops do
            Engine.delay 1.0
          done);
      fun () -> Engine.run eng)

let bus_access () =
  let ops = 100_000 in
  per_op ~ops ~scale:ns (fun () ->
      let eng = Engine.create () in
      let bus = Sim.Bus.create eng Sim.Params.default in
      Engine.spawn eng (fun () ->
          for _ = 1 to ops do
            Sim.Bus.access bus ()
          done);
      fun () -> Engine.run eng)

let tlb_entry vpn =
  {
    Hw.Tlb.space = 1;
    vpn;
    pfn = vpn;
    prot = Addr.Prot_read_write;
    ref_bit = false;
    mod_bit = false;
    gen = 0;
    pte = Hw.Page_table.invalid_pte ();
  }

(* A full 32-entry TLB holding vpns 0..31. *)
let warm_tlb () =
  let tlb = Hw.Tlb.create ~size:32 in
  for v = 0 to 31 do
    Hw.Tlb.insert tlb (tlb_entry v)
  done;
  tlb

let tlb_ops = 1_000_000

let tlb_lookup ~hit () =
  per_op ~ops:tlb_ops ~scale:ns (fun () ->
      let tlb = warm_tlb () in
      let base = if hit then 0 else 1000 in
      fun () ->
        for i = 1 to tlb_ops do
          ignore (Hw.Tlb.lookup tlb ~space:1 ~vpn:(base + (i land 31)))
        done)

(* Cycles 64 pages through 32 slots, so every insert replaces. *)
let tlb_insert () =
  per_op ~ops:tlb_ops ~scale:ns (fun () ->
      let tlb = warm_tlb () in
      let entries = Array.init 64 tlb_entry in
      fun () ->
        for i = 1 to tlb_ops do
          Hw.Tlb.insert tlb entries.(i land 63)
        done)

let pt_pages = 1024

let mapped_table () =
  let pt = Hw.Page_table.create () in
  for v = 0 to pt_pages - 1 do
    ignore (Hw.Page_table.set pt v ~pfn:v ~prot:Addr.Prot_read ~wired:false)
  done;
  pt

let page_table_find () =
  let ops = 1_000_000 in
  per_op ~ops ~scale:ns (fun () ->
      let pt = mapped_table () in
      fun () ->
        for i = 1 to ops do
          ignore (Hw.Page_table.find pt (i land (pt_pages - 1)))
        done)

let page_table_set_clear () =
  let ops = 500_000 in
  per_op ~ops ~scale:ns (fun () ->
      let pt = mapped_table () in
      fun () ->
        for i = 1 to ops do
          let v = i land (pt_pages - 1) in
          ignore (Hw.Page_table.clear pt v);
          ignore (Hw.Page_table.set pt v ~pfn:v ~prot:Addr.Prot_read ~wired:false)
        done)

let small_params = { Sim.Params.default with ncpus = 1; phys_pages = 64 }

(* TLB-hit translations of one kernel page, inside a coroutine because a
   translation may advance simulated time. *)
let mmu_translate () =
  let ops = 500_000 in
  per_op ~ops ~scale:ns (fun () ->
      let eng = Engine.create () in
      let bus = Sim.Bus.create eng small_params in
      let cpu = Sim.Cpu.create eng bus small_params ~id:0 in
      let mem = Hw.Phys_mem.create ~frames:64 in
      let mmu = Hw.Mmu.create cpu mem small_params in
      let pt = Hw.Page_table.create () in
      let va = Addr.kernel_base in
      ignore
        (Hw.Page_table.set pt (Addr.vpn_of_addr va) ~pfn:0 ~prot:Addr.Prot_read_write
           ~wired:true);
      Hw.Mmu.set_kernel mmu { Hw.Mmu.space_id = 0; pt };
      Engine.spawn eng (fun () ->
          for _ = 1 to ops do
            ignore (Hw.Mmu.translate mmu ~va ~access:Addr.Read_access)
          done);
      fun () -> Engine.run eng)

(* The host time of a stretch of a machine's main thread, measured from
   inside it; machine boot and shutdown stay outside the figure. *)
let in_machine ~ops params body =
  let sample () =
    let m = Machine.create ~params () in
    let elapsed = ref 0.0 in
    Machine.run m (fun self ->
        let t0 = Unix.gettimeofday () in
        body m self;
        elapsed := Unix.gettimeofday () -. t0);
    !elapsed *. ns /. float_of_int ops
  in
  Stats.median (List.init reps (fun _ -> sample ()))

(* Two threads on one CPU handing it back and forth. *)
let sched_yield () =
  let ops = 20_000 in
  in_machine ~ops:(2 * ops) { Sim.Params.default with ncpus = 1 } (fun m self ->
      let sched = m.Machine.sched in
      let other =
        Sim.Sched.create_thread sched ~bound:0 ~name:"yielder" (fun th ->
            for _ = 1 to ops do
              Sim.Sched.yield sched th
            done)
      in
      (* let simulated time pass so the new thread reaches the ready queue *)
      Sim.Cpu.step (Sim.Sched.current_cpu self) 1.0;
      for _ = 1 to ops do
        Sim.Sched.yield sched self
      done;
      Sim.Sched.join sched self other)

(* Zero-fill faults on fresh pages of one task. *)
let vm_fault () =
  let ops = 1_000 in
  in_machine ~ops { Sim.Params.default with ncpus = 1 } (fun m self ->
      let vms = m.Machine.vms in
      let task = Vm.Task.create vms ~name:"faulter" in
      Vm.Task.adopt vms self task;
      let map = task.Vm.Task.map in
      let lo = Vm.Vm_map.allocate vms self map ~pages:ops () in
      for p = 0 to ops - 1 do
        match Vm.Vm_fault.fault vms self map ~vpn:(lo + p) ~access:Addr.Write_access with
        | Vm.Vm_fault.Fault_ok -> ()
        | _ -> failwith "vm_fault micro: zero-fill fault failed"
      done)

let plain () =
  match Check.Scenario.find "plain" with
  | Some spec -> spec
  | None -> failwith "scenario plain missing"

(* One baseline schedule of the model checker's [plain] scenario. *)
let scenario_run () =
  per_op ~ops:1 ~scale:ms (fun () () ->
      match (Check.Scenario.run ~cpus:2 (plain ()) ~prefix:[||] ()).Check.Scenario.verdict with
      | Check.Scenario.Pass -> ()
      | Check.Scenario.Violation { kind; _ } -> failwith ("scenario plain: " ^ kind))

(* The first [explore_schedules] schedules of [plain]'s DFS: one
   schedule's replay plus the explorer's own bookkeeping. *)
let explore_schedules = 16

let explorer_schedule () =
  per_op ~ops:explore_schedules ~scale:ms (fun () () ->
      let r =
        Check.Explorer.explore ~cpus:2 ~max_schedules:explore_schedules (plain ())
      in
      if r.Check.Explorer.stats.Check.Explorer.schedules <> explore_schedules then
        failwith "explorer micro: short exploration")

let all =
  [
    ("heap.push_pop_ns", heap_push_pop);
    ("engine.dispatch_ns", engine_dispatch);
    ("engine.delay_resume_ns", engine_delay_resume);
    ("sched.yield_ns", sched_yield);
    ("bus.access_ns", bus_access);
    ("tlb.lookup_hit_ns", tlb_lookup ~hit:true);
    ("tlb.lookup_miss_ns", tlb_lookup ~hit:false);
    ("tlb.insert_ns", tlb_insert);
    ("mmu.translate_ns", mmu_translate);
    ("page_table.find_ns", page_table_find);
    ("page_table.set_clear_ns", page_table_set_clear);
    ("vm_fault.fault_ns", vm_fault);
    ("scenario.run_ms", scenario_run);
    ("explorer.schedule_ms", explorer_schedule);
  ]

let run () = List.map (fun (name, f) -> (name, Spans.span ("micro:" ^ name) f)) all
