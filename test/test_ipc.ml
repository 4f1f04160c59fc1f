(* Tests for the newer VM machinery: map-entry simplification, shadow
   chain collapse, and the message-passing virtual copy path
   (vm_map_copyin/copyout) with its copy-on-write semantics and the
   sender-side shootdown. *)

module Addr = Hw.Addr
module Vm_map = Vm.Vm_map
module Vm_object = Vm.Vm_object
module Task = Vm.Task
module Ipc_copy = Vm.Ipc_copy

let quiet =
  {
    Sim.Params.default with
    cost_jitter = 0.0;
    device_intr_rate = 0.0;
    spl_section_rate = 0.0;
  }

let on_machine ?(params = quiet) f =
  let machine = Vm.Machine.create ~params () in
  let result = ref None in
  Vm.Machine.run machine (fun self -> result := Some (f machine self));
  Option.get !result

(* ------------------------------------------------------------------ *)
(* Simplify *)

let test_simplify_merges_clip_scars () =
  on_machine (fun machine self ->
      let vms = machine.Vm.Machine.vms in
      let task = Task.create vms ~name:"t" in
      Task.adopt vms self task;
      let vpn = Vm_map.allocate vms self task.Task.map ~pages:8 () in
      let before = Vm_map.entry_count task.Task.map in
      (* clip the middle with a protect, then revert it: the entries are
         attribute-identical again and must coalesce *)
      Vm_map.protect vms self task.Task.map ~lo:(vpn + 2) ~hi:(vpn + 4)
        ~prot:Addr.Prot_read;
      Vm_map.protect vms self task.Task.map ~lo:(vpn + 2) ~hi:(vpn + 4)
        ~prot:Addr.Prot_read_write;
      Alcotest.(check int) "entries coalesced back" before
        (Vm_map.entry_count task.Task.map))

let test_simplify_respects_differences () =
  on_machine (fun machine self ->
      let vms = machine.Vm.Machine.vms in
      let task = Task.create vms ~name:"t" in
      Task.adopt vms self task;
      let vpn = Vm_map.allocate vms self task.Task.map ~pages:8 () in
      let before = Vm_map.entry_count task.Task.map in
      Vm_map.protect vms self task.Task.map ~lo:(vpn + 2) ~hi:(vpn + 4)
        ~prot:Addr.Prot_read;
      (* genuinely different protections must not merge *)
      Alcotest.(check bool) "clip survives while different" true
        (Vm_map.entry_count task.Task.map > before))

(* ------------------------------------------------------------------ *)
(* Shadow-chain collapse *)

let test_fork_chain_collapses () =
  on_machine (fun machine self ->
      let vms = machine.Vm.Machine.vms in
      let gen0 = Task.create vms ~name:"gen0" in
      Task.adopt vms self gen0;
      let vpn = Vm_map.allocate vms self gen0.Task.map ~pages:2 () in
      let va = Addr.addr_of_vpn vpn in
      (match Task.write_word vms self gen0.Task.map va 7 with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "seed");
      (* repeated fork-write-terminate would build an unbounded shadow
         chain without collapse *)
      let current = ref gen0 in
      for g = 1 to 6 do
        let child =
          Task.fork vms self !current ~name:(Printf.sprintf "gen%d" g)
        in
        Task.adopt vms self child;
        (match Task.write_word vms self child.Task.map va (g * 100) with
        | Ok () -> ()
        | Error _ -> Alcotest.fail "child write");
        Task.terminate vms self !current;
        current := child
      done;
      let entry =
        match Vm_map.lookup_entry !current.Task.map vpn with
        | Some e -> e
        | None -> Alcotest.fail "entry vanished"
      in
      let depth = Vm_object.chain_depth entry.Vm_map.obj in
      Alcotest.(check bool)
        (Printf.sprintf "chain depth bounded (%d)" depth)
        true (depth <= 2);
      (* the surviving generation sees its own data *)
      match Task.read_word vms self !current.Task.map va with
      | Ok v -> Alcotest.(check int) "data" 600 v
      | Error _ -> Alcotest.fail "read")

(* ------------------------------------------------------------------ *)
(* IPC virtual copy *)

let test_ool_transfer_semantics () =
  on_machine (fun machine self ->
      let vms = machine.Vm.Machine.vms in
      let sender = Task.create vms ~name:"sender" in
      Task.adopt vms self sender;
      let pages = 4 in
      let src = Vm_map.allocate vms self sender.Task.map ~pages () in
      for p = 0 to pages - 1 do
        match
          Task.write_word vms self sender.Task.map
            (Addr.addr_of_vpn (src + p))
            (500 + p)
        with
        | Ok () -> ()
        | Error _ -> Alcotest.fail "seed write"
      done;
      let receiver = Task.create vms ~name:"receiver" in
      let copies0 = vms.Vm.Vmstate.cow_copies in
      let dst =
        match
          Ipc_copy.send_ool_data vms self ~sender ~src_vpn:src ~pages ~receiver
        with
        | Ok vpn -> vpn
        | Error `Incomplete_range -> Alcotest.fail "copyin failed"
      in
      (* no data was copied yet: pure virtual copy *)
      Alcotest.(check int) "no eager copies" copies0 vms.Vm.Vmstate.cow_copies;
      (* the receiver reads the sender's data *)
      Task.adopt vms self receiver;
      for p = 0 to pages - 1 do
        match
          Task.read_word vms self receiver.Task.map (Addr.addr_of_vpn (dst + p))
        with
        | Ok v -> Alcotest.(check int) "received" (500 + p) v
        | Error _ -> Alcotest.fail "receiver read"
      done;
      (* receiver writes COW-copy; sender unaffected *)
      (match
         Task.write_word vms self receiver.Task.map (Addr.addr_of_vpn dst) 9
       with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "receiver write");
      Alcotest.(check bool) "write copied" true
        (vms.Vm.Vmstate.cow_copies > copies0);
      Task.adopt vms self sender;
      (match Task.read_word vms self sender.Task.map (Addr.addr_of_vpn src) with
      | Ok v -> Alcotest.(check int) "sender intact" 500 v
      | Error _ -> Alcotest.fail "sender read");
      (* sender writes after the send must not corrupt the receiver *)
      (match
         Task.write_word vms self sender.Task.map
           (Addr.addr_of_vpn (src + 1))
           777
       with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "sender write");
      Task.adopt vms self receiver;
      match
        Task.read_word vms self receiver.Task.map (Addr.addr_of_vpn (dst + 1))
      with
      | Ok v -> Alcotest.(check int) "receiver isolated" 501 v
      | Error _ -> Alcotest.fail "receiver read 2")

let test_ool_capture_shoots_running_sender () =
  (* A sender thread on another CPU holds writable TLB entries for the
     message pages; copyin must shoot them down. *)
  on_machine (fun machine self ->
      let vms = machine.Vm.Machine.vms in
      let sched = machine.Vm.Machine.sched in
      let sender = Task.create vms ~name:"sender" in
      Task.adopt vms self sender;
      let src = Vm_map.allocate vms self sender.Task.map ~pages:2 () in
      let va = Addr.addr_of_vpn src in
      (match Task.write_word vms self sender.Task.map va 1 with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "seed");
      let stop = ref false in
      let writer =
        Task.spawn_thread vms sender ~bound:1 ~name:"writer" (fun th ->
            while not !stop do
              Sim.Cpu.step (Sim.Sched.current_cpu th) 3.0;
              ignore (Task.write_word vms th sender.Task.map va 2)
            done)
      in
      Sim.Sched.sleep sched self 300.0;
      let inits0 =
        List.length (Instrument.Summary.initiators machine.Vm.Machine.xpr)
      in
      let receiver = Task.create vms ~name:"receiver" in
      (match
         Ipc_copy.send_ool_data vms self ~sender ~src_vpn:src ~pages:2 ~receiver
       with
      | Ok _ -> ()
      | Error `Incomplete_range -> Alcotest.fail "copyin");
      let inits1 =
        List.length (Instrument.Summary.initiators machine.Vm.Machine.xpr)
      in
      Alcotest.(check bool) "capture caused a shootdown" true (inits1 > inits0);
      stop := true;
      Sim.Sched.join sched self writer)

let test_copyin_incomplete_range () =
  on_machine (fun machine self ->
      let vms = machine.Vm.Machine.vms in
      let task = Task.create vms ~name:"t" in
      Task.adopt vms self task;
      let vpn = Vm_map.allocate vms self task.Task.map ~pages:2 () in
      let receiver = Task.create vms ~name:"receiver" in
      match
        Ipc_copy.send_ool_data vms self ~sender:task ~src_vpn:vpn ~pages:10
          ~receiver
      with
      | Error `Incomplete_range -> ()
      | Ok _ -> Alcotest.fail "hole should fail copyin")

let () =
  Alcotest.run "ipc+objects"
    [
      ( "simplify",
        [
          Alcotest.test_case "merges clip scars" `Quick
            test_simplify_merges_clip_scars;
          Alcotest.test_case "keeps real differences" `Quick
            test_simplify_respects_differences;
        ] );
      ( "collapse",
        [
          Alcotest.test_case "fork chain bounded" `Quick
            test_fork_chain_collapses;
        ] );
      ( "ipc-copy",
        [
          Alcotest.test_case "ool transfer semantics" `Quick
            test_ool_transfer_semantics;
          Alcotest.test_case "capture shoots sender" `Quick
            test_ool_capture_shoots_running_sender;
          Alcotest.test_case "incomplete range" `Quick
            test_copyin_incomplete_range;
        ] );
    ]
