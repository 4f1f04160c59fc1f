(* Tests for the paper's core contribution: action queues, pv-lists, pmap
   operations with lazy evaluation, and the shootdown algorithm's observable
   guarantees (exact participant counts, idle-processor exemption, queue
   overflow, deadlock freedom under concurrent initiators). *)

module Addr = Hw.Addr
module Action = Core.Action
module Pv_list = Core.Pv_list
module Pmap = Core.Pmap
module Pmap_ops = Core.Pmap_ops

let quiet =
  {
    Sim.Params.default with
    cost_jitter = 0.0;
    device_intr_rate = 0.0;
    spl_section_rate = 0.0;
  }

(* ------------------------------------------------------------------ *)
(* Action queues *)

let test_action_queue_basics () =
  let q = Action.create_queue ~cpu_id:0 ~capacity:3 in
  Alcotest.(check bool) "empty" true (Action.is_empty q);
  Action.enqueue q (Action.Invalidate_range { space = 1; lo = 0; hi = 1 });
  Action.enqueue q (Action.Invalidate_range { space = 1; lo = 5; hi = 7 });
  (match Action.drain q with
  | `Actions [ Action.Invalidate_range { lo = 0; _ }; Action.Invalidate_range { lo = 5; _ } ]
    -> ()
  | `Actions _ | `Flush_everything -> Alcotest.fail "wrong drain order");
  Alcotest.(check bool) "empty after drain" true (Action.is_empty q)

let test_action_queue_overflow () =
  let q = Action.create_queue ~cpu_id:0 ~capacity:2 in
  for i = 1 to 5 do
    Action.enqueue q (Action.Invalidate_range { space = 1; lo = i; hi = i + 1 })
  done;
  (match Action.drain q with
  | `Flush_everything -> ()
  | `Actions _ -> Alcotest.fail "overflow must force a full flush");
  (* overflow state resets after drain *)
  Action.enqueue q (Action.Invalidate_range { space = 1; lo = 9; hi = 10 });
  match Action.drain q with
  | `Actions [ _ ] -> ()
  | `Actions _ | `Flush_everything -> Alcotest.fail "queue did not reset"

(* ------------------------------------------------------------------ *)
(* Pv lists *)

let test_pv_list () =
  let pv = Pv_list.create () in
  Pv_list.insert pv ~pfn:7 ~pmap:"a" ~vpn:10;
  Pv_list.insert pv ~pfn:7 ~pmap:"b" ~vpn:20;
  Alcotest.(check int) "two mappings" 2 (Pv_list.mapping_count pv ~pfn:7);
  Pv_list.remove pv ~pfn:7 ~pmap:"a" ~vpn:10;
  (match Pv_list.mappings pv ~pfn:7 with
  | [ { Pv_list.pv_pmap = "b"; pv_vpn = 20 } ] -> ()
  | _ -> Alcotest.fail "wrong survivor");
  Pv_list.remove pv ~pfn:7 ~pmap:"b" ~vpn:20;
  Alcotest.(check int) "empty" 0 (Pv_list.mapping_count pv ~pfn:7)

(* ------------------------------------------------------------------ *)
(* Pmap operations on a booted machine *)

let boot ?(params = quiet) () = Vm.Machine.create ~params ()

(* Run [f] as the machine's main thread and return its result. *)
let on_machine ?params f =
  let machine = boot ?params () in
  let result = ref None in
  Vm.Machine.run machine (fun self -> result := Some (f machine self));
  Option.get !result

let test_pmap_enter_remove () =
  on_machine (fun machine self ->
      let ctx = machine.Vm.Machine.ctx in
      let cpu = Sim.Sched.current_cpu self in
      let pmap = Pmap.create_pmap ctx ~name:"t" in
      let pfn = Hw.Phys_mem.alloc_frame machine.Vm.Machine.mem in
      Pmap_ops.enter ctx cpu pmap ~vpn:42 ~pfn ~prot:Addr.Prot_read_write
        ~wired:false;
      (match Pmap_ops.extract pmap ~vpn:42 with
      | Some (f, Addr.Prot_read_write) -> Alcotest.(check int) "pfn" pfn f
      | Some _ | None -> Alcotest.fail "mapping missing");
      Alcotest.(check int) "pv list has it" 1
        (Pv_list.mapping_count ctx.Pmap.pv ~pfn);
      Pmap_ops.remove ctx cpu pmap ~lo:42 ~hi:43;
      Alcotest.(check bool) "gone" true (Pmap_ops.extract pmap ~vpn:42 = None);
      Alcotest.(check int) "pv list empty" 0
        (Pv_list.mapping_count ctx.Pmap.pv ~pfn))

let test_pmap_protect_reduction_only () =
  on_machine (fun machine self ->
      let ctx = machine.Vm.Machine.ctx in
      let cpu = Sim.Sched.current_cpu self in
      let pmap = Pmap.create_pmap ctx ~name:"t" in
      let pfn = Hw.Phys_mem.alloc_frame machine.Vm.Machine.mem in
      Pmap_ops.enter ctx cpu pmap ~vpn:1 ~pfn ~prot:Addr.Prot_read_write
        ~wired:false;
      Pmap_ops.protect ctx cpu pmap ~lo:1 ~hi:2 ~prot:Addr.Prot_read;
      (match Pmap_ops.extract pmap ~vpn:1 with
      | Some (_, Addr.Prot_read) -> ()
      | Some _ | None -> Alcotest.fail "protection not reduced");
      (* protect to none removes the mapping entirely *)
      Pmap_ops.protect ctx cpu pmap ~lo:1 ~hi:2 ~prot:Addr.Prot_none;
      Alcotest.(check bool) "removed" true (Pmap_ops.extract pmap ~vpn:1 = None))

let test_pmap_lazy_skip_counting () =
  on_machine (fun machine self ->
      let ctx = machine.Vm.Machine.ctx in
      let cpu = Sim.Sched.current_cpu self in
      let pmap = Pmap.create_pmap ctx ~name:"t" in
      let before = ctx.Pmap.shootdowns_skipped_lazy in
      (* removing a range that was never mapped skips consistency work *)
      Pmap_ops.remove ctx cpu pmap ~lo:100 ~hi:200;
      Alcotest.(check bool) "skip counted" true
        (ctx.Pmap.shootdowns_skipped_lazy > before))

let test_pmap_page_protect_via_pv () =
  on_machine (fun machine self ->
      let ctx = machine.Vm.Machine.ctx in
      let cpu = Sim.Sched.current_cpu self in
      let a = Pmap.create_pmap ctx ~name:"a" in
      let b = Pmap.create_pmap ctx ~name:"b" in
      let pfn = Hw.Phys_mem.alloc_frame machine.Vm.Machine.mem in
      Pmap_ops.enter ctx cpu a ~vpn:1 ~pfn ~prot:Addr.Prot_read_write
        ~wired:false;
      Pmap_ops.enter ctx cpu b ~vpn:9 ~pfn ~prot:Addr.Prot_read_write
        ~wired:false;
      (* the pageout hammer: strip every mapping of the frame *)
      Pmap_ops.page_protect ctx cpu ~pfn ~prot:Addr.Prot_none;
      Alcotest.(check bool) "a unmapped" true (Pmap_ops.extract a ~vpn:1 = None);
      Alcotest.(check bool) "b unmapped" true (Pmap_ops.extract b ~vpn:9 = None))

let test_reference_bits () =
  on_machine (fun machine self ->
      let ctx = machine.Vm.Machine.ctx in
      let cpu = Sim.Sched.current_cpu self in
      let pmap = Pmap.create_pmap ctx ~name:"t" in
      let pfn = Hw.Phys_mem.alloc_frame machine.Vm.Machine.mem in
      Pmap_ops.enter ctx cpu pmap ~vpn:3 ~pfn ~prot:Addr.Prot_read_write
        ~wired:false;
      let r, m = Pmap_ops.reference_bits ctx ~pfn in
      Alcotest.(check (pair bool bool)) "clean" (false, false) (r, m);
      (match Pmap_ops.extract pmap ~vpn:3 with
      | Some _ -> ()
      | None -> Alcotest.fail "mapping");
      (match Hw.Page_table.lookup pmap.Pmap.pt 3 with
      | Some pte ->
          pte.Hw.Page_table.referenced <- true;
          pte.Hw.Page_table.modified <- true
      | None -> Alcotest.fail "pte");
      let r, m = Pmap_ops.reference_bits ctx ~pfn in
      Alcotest.(check (pair bool bool)) "dirty" (true, true) (r, m);
      Pmap_ops.clear_reference_bits ctx ~pfn;
      let r, m = Pmap_ops.reference_bits ctx ~pfn in
      Alcotest.(check (pair bool bool)) "cleared" (false, false) (r, m))

(* ------------------------------------------------------------------ *)
(* Shootdown behaviour via the tester *)

let test_exact_participants () =
  List.iter
    (fun k ->
      let r =
        Workloads.Tlb_tester.run_fresh ~params:quiet ~children:k
          ~seed:(Int64.of_int (400 + k)) ()
      in
      Alcotest.(check int)
        (Printf.sprintf "%d children -> %d processors" k k)
        k r.Workloads.Tlb_tester.processors;
      Alcotest.(check bool) "consistent" true r.Workloads.Tlb_tester.consistent)
    [ 1; 3; 6 ]

let test_idle_cpus_not_interrupted () =
  (* 2 children on a 16-CPU machine: 13 idle processors must receive no
     IPIs (2 children + initiator account for the rest). *)
  let params = { quiet with seed = 5L } in
  let machine = boot ~params () in
  ignore (Workloads.Tlb_tester.run machine ~children:2 ());
  let ctx = machine.Vm.Machine.ctx in
  Alcotest.(check bool)
    (Printf.sprintf "ipis (%d) bounded by active cpus" ctx.Pmap.ipis_sent)
    true
    (ctx.Pmap.ipis_sent <= 8)

let test_concurrent_initiators_no_deadlock () =
  (* Two tasks, each multi-threaded, both reprotecting concurrently while
     kernel allocations also fire: exercises initiator-vs-initiator and
     kernel-vs-user shootdown interleavings. *)
  on_machine (fun machine self ->
      let vms = machine.Vm.Machine.vms in
      let sched = machine.Vm.Machine.sched in
      let kmap = machine.Vm.Machine.kernel_map in
      let mk_task name =
        let task = Vm.Task.create vms ~name in
        let region = Vm.Vm_map.allocate vms self task.Vm.Task.map ~pages:4 () in
        (task, region)
      in
      let t1, r1 = mk_task "t1" and t2, r2 = mk_task "t2" in
      let spin_thread task region i =
        Vm.Task.spawn_thread vms task ~name:(Printf.sprintf "w%d" i)
          (fun th ->
            for _ = 1 to 40 do
              Sim.Cpu.step (Sim.Sched.current_cpu th) 50.0;
              ignore
                (Vm.Task.write_word vms th task.Vm.Task.map
                   (Addr.addr_of_vpn region) 1)
            done)
      in
      let protect_thread task region i =
        Vm.Task.spawn_thread vms task ~name:(Printf.sprintf "p%d" i)
          (fun th ->
            for j = 1 to 10 do
              Vm.Vm_map.protect vms th task.Vm.Task.map ~lo:region
                ~hi:(region + 1)
                ~prot:(if j mod 2 = 0 then Addr.Prot_read_write else Addr.Prot_read);
              let b = Vm.Kmem.alloc_wired vms th kmap ~pages:1 in
              Vm.Kmem.free vms th kmap ~vpn:b ~pages:1
            done)
      in
      let threads =
        [
          spin_thread t1 r1 1;
          spin_thread t2 r2 2;
          protect_thread t1 r1 3;
          protect_thread t2 r2 4;
        ]
      in
      List.iter (fun th -> Sim.Sched.join sched self th) threads;
      (* completion itself is the assertion: no deadlock, no runaway *)
      ())

let test_pmap_destroy_and_rebuild_via_faults () =
  (* "Pmaps can even be destroyed at runtime; they will be reconstructed
     from scratch as page faults occur" (paper section 2). *)
  on_machine (fun machine self ->
      let vms = machine.Vm.Machine.vms in
      let task = Vm.Task.create vms ~name:"t" in
      Vm.Task.adopt vms self task;
      let vpn = Vm.Vm_map.allocate vms self task.Vm.Task.map ~pages:4 () in
      (match
         Vm.Task.touch_range vms self task.Vm.Task.map ~lo_vpn:vpn ~pages:4
           ~access:Addr.Write_access
       with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "touch");
      (match
         Vm.Task.write_word vms self task.Vm.Task.map (Addr.addr_of_vpn vpn) 7
       with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "seed");
      let pmap = task.Vm.Task.map.Vm.Vm_map.pmap in
      Alcotest.(check bool) "mappings exist" true
        (Hw.Page_table.valid_count pmap.Pmap.pt > 0);
      (* throw the page tables away *)
      Pmap_ops.collect machine.Vm.Machine.ctx (Sim.Sched.current_cpu self) pmap;
      Alcotest.(check int) "pmap emptied" 0
        (Hw.Page_table.valid_count pmap.Pmap.pt);
      (* the data is still there: faults rebuild the pmap *)
      match
        Vm.Task.read_word vms self task.Vm.Task.map (Addr.addr_of_vpn vpn)
      with
      | Ok v ->
          Alcotest.(check int) "data survives collect" 7 v;
          Alcotest.(check bool) "pmap rebuilt" true
            (Hw.Page_table.valid_count pmap.Pmap.pt > 0)
      | Error _ -> Alcotest.fail "refault failed")

let test_asid_in_use_persists () =
  (* Section 10: with a tagged TLB, a pmap stays "in use" on a processor
     after a context switch; the bookkeeping deactivate is ignored. *)
  let params = { quiet with tlb_asid_tagged = true } in
  on_machine ~params (fun machine self ->
      let vms = machine.Vm.Machine.vms in
      let ctx = machine.Vm.Machine.ctx in
      let task = Vm.Task.create vms ~name:"t" in
      Vm.Task.adopt vms self task;
      let cpu = Sim.Sched.current_cpu self in
      let id = Sim.Cpu.id cpu in
      Alcotest.(check bool) "in use while running" true
        task.Vm.Task.map.Vm.Vm_map.pmap.Pmap.in_use.(id);
      Pmap.deactivate ctx task.Vm.Task.map.Vm.Vm_map.pmap cpu;
      Alcotest.(check bool) "still in use after deactivate (tagged)" true
        task.Vm.Task.map.Vm.Vm_map.pmap.Pmap.in_use.(id);
      (* untagged hardware clears it *)
      Pmap.activate ctx task.Vm.Task.map.Vm.Vm_map.pmap cpu)

let test_asid_no_flush_on_switch () =
  (* tagged TLBs keep user entries across a context switch: the second
     task's activation must not flush the first task's translations *)
  let params = { quiet with tlb_asid_tagged = true } in
  on_machine ~params (fun machine self ->
      let vms = machine.Vm.Machine.vms in
      let a = Vm.Task.create vms ~name:"a" in
      Vm.Task.adopt vms self a;
      let vpn = Vm.Vm_map.allocate vms self a.Vm.Task.map ~pages:1 () in
      (match Vm.Task.write_word vms self a.Vm.Task.map (Addr.addr_of_vpn vpn) 1 with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "seed");
      let cpu = Sim.Sched.current_cpu self in
      let tlb = Hw.Mmu.tlb machine.Vm.Machine.mmus.(Sim.Cpu.id cpu) in
      let space_a = a.Vm.Task.map.Vm.Vm_map.pmap.Pmap.space_id in
      let has_space_a () =
        List.exists
          (fun (e : Hw.Tlb.entry) -> e.Hw.Tlb.space = space_a)
          (Hw.Tlb.entries tlb)
      in
      Alcotest.(check bool) "entry cached" true (has_space_a ());
      let b = Vm.Task.create vms ~name:"b" in
      Vm.Task.adopt vms self b;
      Alcotest.(check bool) "entry survives the switch (tagged)" true
        (has_space_a ()))

let test_queue_overflow_forces_flush () =
  (* Many small shootdowns queued at a stalled responder overflow its
     action queue; correctness must survive (the responder flushes). *)
  let params = { quiet with action_queue_size = 2; seed = 11L } in
  let r = Workloads.Tlb_tester.run_fresh ~params ~children:3 ~seed:11L () in
  Alcotest.(check bool) "consistent with tiny queues" true
    r.Workloads.Tlb_tester.consistent

(* ------------------------------------------------------------------ *)
(* Deferred shootdown batching (Core.Gather, docs/BATCHING.md) *)

module Gather = Core.Gather
module Oracle = Core.Consistency_oracle

let ranges_t = Alcotest.(list (pair int int))

let test_gather_coalescing () =
  let ins l (lo, hi) = Gather.insert_range l ~lo ~hi in
  let check msg want inserts =
    Alcotest.(check ranges_t) msg want (List.fold_left ins [] inserts)
  in
  check "disjoint, sorted" [ (1, 2); (5, 7) ] [ (5, 7); (1, 2) ];
  check "adjacent merge" [ (1, 5) ] [ (1, 3); (3, 5) ];
  check "overlap merge" [ (1, 8) ] [ (1, 5); (4, 8) ];
  check "duplicate idempotent" [ (2, 4) ] [ (2, 4); (2, 4) ];
  check "empty dropped" [ (2, 4) ] [ (2, 4); (9, 9) ];
  check "gap-closing merge" [ (0, 10) ] [ (0, 2); (8, 10); (2, 8) ]

let test_gather_empty_flush_free () =
  on_machine (fun machine self ->
      let ctx = machine.Vm.Machine.ctx in
      let cpu = Sim.Sched.current_cpu self in
      let pmap = Pmap.create_pmap ctx ~name:"g" in
      let g = Gather.start ctx pmap in
      let skips = ctx.Pmap.shootdowns_skipped_lazy in
      (* an unmap the lazy check proves harmless contributes nothing *)
      Gather.unmap g cpu ~lo:100 ~hi:120;
      Alcotest.(check int) "op counted" 1 (Gather.pending_ops g);
      Alcotest.(check ranges_t) "nothing pending" [] (Gather.pending_ranges g);
      Alcotest.(check bool) "lazy skip counted" true
        (ctx.Pmap.shootdowns_skipped_lazy > skips);
      let rounds = ctx.Pmap.shootdowns_initiated in
      let elided = ctx.Pmap.batch_flushes_elided in
      let t0 = Vm.Machine.now machine in
      Gather.flush g cpu;
      Alcotest.(check int) "no consistency round" rounds
        ctx.Pmap.shootdowns_initiated;
      Alcotest.(check int) "elided flush counted" (elided + 1)
        ctx.Pmap.batch_flushes_elided;
      Alcotest.(check (float 0.0)) "no simulated time" t0
        (Vm.Machine.now machine);
      Gather.finish g cpu;
      Alcotest.check_raises "use after finish raises"
        (Invalid_argument "Gather.unmap: batch finished") (fun () ->
          Gather.unmap g cpu ~lo:0 ~hi:1))

let test_gather_range_crosses_flush_threshold () =
  (* A batched unmap whose coalesced range crosses tlb_flush_threshold:
     the flush round falls back to whole-TLB flushes and the page tables
     still end up clean with the oracle green. *)
  let machine = boot () in
  let oracle = Oracle.attach machine.Vm.Machine.ctx in
  let pages = quiet.Sim.Params.tlb_flush_threshold + 4 in
  Vm.Machine.run machine (fun self ->
      let vms = machine.Vm.Machine.vms in
      let ctx = machine.Vm.Machine.ctx in
      let cpu = Sim.Sched.current_cpu self in
      let task = Vm.Task.create vms ~name:"t" in
      Vm.Task.adopt vms self task;
      let vpn = Vm.Vm_map.allocate vms self task.Vm.Task.map ~pages () in
      (match
         Vm.Task.touch_range vms self task.Vm.Task.map ~lo_vpn:vpn ~pages
           ~access:Addr.Write_access
       with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "touch");
      let pmap = task.Vm.Task.map.Vm.Vm_map.pmap in
      let g = Gather.start ctx pmap in
      (* two halves coalesce into one range wider than the threshold *)
      let mid = vpn + (pages / 2) in
      Gather.unmap g cpu ~lo:vpn ~hi:mid;
      Gather.unmap g cpu ~lo:mid ~hi:(vpn + pages);
      Alcotest.(check ranges_t) "coalesced into one range"
        [ (vpn, vpn + pages) ]
        (Gather.pending_ranges g);
      Alcotest.(check bool) "crosses the flush threshold" true
        (Gather.pending_pages g > quiet.Sim.Params.tlb_flush_threshold);
      Gather.finish g cpu;
      for v = vpn to vpn + pages - 1 do
        Alcotest.(check bool) "mapping cleared" true
          (Pmap_ops.extract pmap ~vpn:v = None)
      done);
  Alcotest.(check bool) "oracle green" true (Oracle.consistent oracle)

let test_batch_with_forced_overflow () =
  (* Every responder's action queue is forced to overflow: the gather
     flush must survive the Flush_everything fallback with the oracle
     green. *)
  let params =
    {
      quiet with
      Sim.Params.seed = 21L;
      batch_shootdowns = true;
      faults = { Sim.Fault.none with Sim.Fault.queue_overflow_rate = 1.0 };
    }
  in
  let machine = boot ~params () in
  let oracle = Oracle.attach machine.Vm.Machine.ctx in
  Vm.Machine.run machine (fun self ->
      let vms = machine.Vm.Machine.vms in
      let kmap = machine.Vm.Machine.kernel_map in
      let sched = machine.Vm.Machine.sched in
      let spinners =
        List.init 3 (fun i ->
            Sim.Sched.create_thread sched ~name:(Printf.sprintf "spin%d" i)
              (fun th ->
                for _ = 1 to 150 do
                  Sim.Cpu.kernel_step (Sim.Sched.current_cpu th) 50.0
                done))
      in
      Vm.Machine.with_kernel_batch machine self (fun batch ->
          for _ = 1 to 10 do
            let buf = Vm.Kmem.alloc_pageable vms self kmap ~pages:2 in
            (match
               Vm.Task.touch_range vms self kmap ~lo_vpn:buf ~pages:2
                 ~access:Addr.Write_access
             with
            | Ok () -> ()
            | Error _ -> Alcotest.fail "buffer fault");
            Vm.Kmem.free ?batch vms self kmap ~vpn:buf ~pages:2
          done);
      List.iter (fun th -> Sim.Sched.join sched self th) spinners);
  Alcotest.(check bool) "oracle green under forced overflow" true
    (Oracle.consistent oracle);
  Alcotest.(check bool) "batch actually flushed" true
    (machine.Vm.Machine.ctx.Pmap.batch_flushes > 0)

(* QCheck: any sequence of unmap/protect operations leaves the same final
   page-table state whether applied directly or through a gather batch,
   with the oracle green either way. *)

let decode_gather_ops n l =
  let rec pairs = function
    | a :: b :: rest -> (a, b) :: pairs rest
    | _ -> []
  in
  List.map
    (fun (a, b) ->
      let lo = b mod n in
      let hi = min n (lo + 1 + (a / 3 mod 4)) in
      (a mod 3, lo, hi))
    (pairs l)

let run_gather_ops ~batched ops =
  let params =
    { quiet with Sim.Params.seed = 123L; batch_shootdowns = batched }
  in
  let machine = boot ~params () in
  let oracle = Oracle.attach machine.Vm.Machine.ctx in
  let n = 16 in
  let state = ref [] in
  Vm.Machine.run machine (fun self ->
      let ctx = machine.Vm.Machine.ctx in
      let cpu = Sim.Sched.current_cpu self in
      let pmap = Pmap.create_pmap ctx ~name:"q" in
      for vpn = 0 to n - 1 do
        let pfn = Hw.Phys_mem.alloc_frame machine.Vm.Machine.mem in
        Pmap_ops.enter ctx cpu pmap ~vpn ~pfn ~prot:Addr.Prot_read_write
          ~wired:false
      done;
      (if batched then (
         let g = Gather.start ctx pmap in
         List.iter
           (fun (kind, lo, hi) ->
             match kind with
             | 0 -> Gather.unmap g cpu ~lo ~hi
             | 1 -> Gather.protect g cpu ~lo ~hi ~prot:Addr.Prot_read
             | _ -> Gather.protect g cpu ~lo ~hi ~prot:Addr.Prot_none)
           ops;
         Gather.finish g cpu)
       else
         List.iter
           (fun (kind, lo, hi) ->
             match kind with
             | 0 -> Pmap_ops.remove ctx cpu pmap ~lo ~hi
             | 1 -> Pmap_ops.protect ctx cpu pmap ~lo ~hi ~prot:Addr.Prot_read
             | _ -> Pmap_ops.protect ctx cpu pmap ~lo ~hi ~prot:Addr.Prot_none)
           ops);
      state :=
        List.init n (fun vpn ->
            match Pmap_ops.extract pmap ~vpn with
            | Some (_, prot) -> Some prot
            | None -> None));
  (!state, Oracle.consistent oracle)

let fuzz_gather_equiv =
  QCheck.Test.make ~count:20
    ~name:"batched == unbatched final page-table state, oracle green"
    QCheck.(list_of_size Gen.(0 -- 12) small_nat)
    (fun l ->
      let ops = decode_gather_ops 16 l in
      let unbatched, green_u = run_gather_ops ~batched:false ops in
      let batched, green_b = run_gather_ops ~batched:true ops in
      unbatched = batched && green_u && green_b)

let test_flush_threshold_large_range () =
  (* A big reprotect crosses the invalidate-vs-flush threshold; the
     responder flushes its whole TLB and consistency still holds. *)
  let r =
    Workloads.Tlb_tester.run_fresh ~params:quiet ~pages:12 ~children:3
      ~seed:13L ()
  in
  Alcotest.(check bool) "consistent via full flush" true
    r.Workloads.Tlb_tester.consistent

let () =
  Alcotest.run "core"
    [
      ( "action",
        [
          Alcotest.test_case "queue basics" `Quick test_action_queue_basics;
          Alcotest.test_case "overflow" `Quick test_action_queue_overflow;
        ] );
      ("pv_list", [ Alcotest.test_case "insert/remove" `Quick test_pv_list ]);
      ( "pmap",
        [
          Alcotest.test_case "enter/remove" `Quick test_pmap_enter_remove;
          Alcotest.test_case "protect" `Quick test_pmap_protect_reduction_only;
          Alcotest.test_case "lazy skip" `Quick test_pmap_lazy_skip_counting;
          Alcotest.test_case "page_protect via pv" `Quick
            test_pmap_page_protect_via_pv;
          Alcotest.test_case "reference bits" `Quick test_reference_bits;
        ] );
      ( "shootdown",
        [
          Alcotest.test_case "exact participants" `Quick
            test_exact_participants;
          Alcotest.test_case "idle cpus not interrupted" `Quick
            test_idle_cpus_not_interrupted;
          Alcotest.test_case "concurrent initiators" `Quick
            test_concurrent_initiators_no_deadlock;
          Alcotest.test_case "queue overflow" `Quick
            test_queue_overflow_forces_flush;
          Alcotest.test_case "flush threshold" `Quick
            test_flush_threshold_large_range;
          Alcotest.test_case "destroy + rebuild via faults" `Quick
            test_pmap_destroy_and_rebuild_via_faults;
          Alcotest.test_case "asid in-use persists" `Quick
            test_asid_in_use_persists;
          Alcotest.test_case "asid no flush on switch" `Quick
            test_asid_no_flush_on_switch;
        ] );
      ( "gather",
        [
          Alcotest.test_case "range coalescing" `Quick test_gather_coalescing;
          Alcotest.test_case "empty flush is free" `Quick
            test_gather_empty_flush_free;
          Alcotest.test_case "range crosses flush threshold" `Quick
            test_gather_range_crosses_flush_threshold;
          Alcotest.test_case "forced queue overflow" `Quick
            test_batch_with_forced_overflow;
          QCheck_alcotest.to_alcotest fuzz_gather_equiv;
        ] );
    ]
