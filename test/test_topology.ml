(* The hierarchical NUMA topology (docs/TOPOLOGY.md).

   Two families of properties.  Equivalence: a cluster size of 0 (or >=
   ncpus) must reproduce the historical flat machine exactly — same
   floats, same event order — and event-heap sharding must be invisible
   to the pop order at any shard count.  Behaviour: on a genuinely
   clustered machine, remote accesses cross the interconnect and cost
   more, cluster-targeted multicast interrupts only resident clusters,
   and the shootdown protocol keeps the consistency oracle green on
   random kernel map/unmap histories. *)

module Oracle = Core.Consistency_oracle

let flat = Sim.Params.flat_topology

(* 12 CPUs in clusters of 4: the smallest machine where the initiator,
   a same-cluster responder and two remote clusters all coexist. *)
let clustered_params =
  {
    Sim.Params.default with
    ncpus = 12;
    topology = { flat with Sim.Params.cluster_size = 4 };
    ipi_mode = Sim.Params.Multicast;
  }

(* ------------------------------------------------------------------ *)
(* Flat equivalence: cluster_size 0 and cluster_size >= ncpus are the
   same machine, float for float. *)

let tester_snapshot ~topology ~seed =
  let params = { Sim.Params.default with topology } in
  let r = Workloads.Tlb_tester.run_fresh ~params ~children:6 ~seed () in
  ( r.Workloads.Tlb_tester.initiator_elapsed,
    r.Workloads.Tlb_tester.increments_total,
    r.Workloads.Tlb_tester.processors,
    r.Workloads.Tlb_tester.consistent )

let test_flat_equivalence () =
  let a = tester_snapshot ~topology:flat ~seed:42L in
  let b =
    tester_snapshot
      ~topology:{ flat with Sim.Params.cluster_size = Sim.Params.default.ncpus }
      ~seed:42L
  in
  let c =
    tester_snapshot
      ~topology:{ flat with Sim.Params.cluster_size = 1024 }
      ~seed:42L
  in
  Alcotest.(check bool) "cluster_size = ncpus is the flat machine" true (a = b);
  Alcotest.(check bool) "cluster_size > ncpus is the flat machine" true (a = c)

(* Sharding the event heap must not change the pop order: seqs are
   globally unique, so the global (time, seq) minimum is the same
   whichever sub-heap holds it. *)
let heap_sharding_invisible =
  QCheck.Test.make ~count:200
    ~name:"sharded heap pops in single-heap (time, seq) order"
    QCheck.(list (pair (float_bound_exclusive 1000.0) small_nat))
    (fun pairs ->
      let h1 = Sim.Heap.create ~dummy:(-1) () in
      let h4 = Sim.Heap.create ~shards:4 ~dummy:(-1) () in
      List.iteri
        (fun i (t, v) ->
          Sim.Heap.push h1 t i v;
          Sim.Heap.push h4 ~shard:(v mod 4) t i v)
        pairs;
      let drain h =
        let acc = ref [] in
        while not (Sim.Heap.is_empty h) do
          acc := Sim.Heap.pop h :: !acc
        done;
        List.rev !acc
      in
      drain h1 = drain h4)

(* The same property end-to-end: an engine with sharded spawns replays
   the identical event interleaving as an unsharded one. *)
let test_sharded_engine_order () =
  let run shards =
    let eng = Sim.Engine.create ~shards () in
    let log = ref [] in
    for i = 0 to 7 do
      Sim.Engine.spawn eng
        ~name:(Printf.sprintf "c%d" i)
        ~shard:(i mod shards)
        (fun () ->
          for s = 1 to 5 do
            Sim.Engine.delay (float_of_int (((i * 7) + s) mod 11));
            log := (i, Sim.Engine.now eng) :: !log
          done)
    done;
    Sim.Engine.run eng;
    List.rev !log
  in
  Alcotest.(check bool)
    "identical interleaving at 1 and 4 shards" true
    (run 1 = run 4)

(* Runaway diagnostics depend on iter_payloads seeing every shard. *)
let test_iter_payloads_all_shards () =
  let h = Sim.Heap.create ~shards:3 ~dummy:0 () in
  for i = 0 to 8 do
    Sim.Heap.push h ~shard:(i mod 3) (float_of_int i) i (100 + i)
  done;
  let payloads () =
    let seen = ref [] in
    Sim.Heap.iter_payloads (fun v -> seen := v :: !seen) h;
    List.sort compare !seen
  in
  Alcotest.(check (list int))
    "every shard's payloads visited"
    (List.init 9 (fun i -> 100 + i))
    (payloads ());
  ignore (Sim.Heap.pop h);
  Alcotest.(check (list int))
    "pops leave the rest" (List.init 8 (fun i -> 101 + i)) (payloads ())

(* ------------------------------------------------------------------ *)
(* Clustered behaviour. *)

(* A remote access serialises through local bus, interconnect and remote
   bus; it must book both cluster buses and cost more than the
   same-cluster access it follows. *)
let test_remote_access_accounting () =
  let params =
    {
      Sim.Params.default with
      ncpus = 8;
      topology = { flat with Sim.Params.cluster_size = 4 };
    }
  in
  let eng = Sim.Engine.create () in
  let bus = Sim.Bus.create eng params in
  Alcotest.(check int) "two cluster buses" 2 (Sim.Bus.clusters bus);
  let local_cost = ref 0.0 and remote_cost = ref 0.0 in
  Sim.Engine.spawn eng (fun () ->
      let t0 = Sim.Engine.now eng in
      Sim.Bus.access bus ~who:0 ~home:1 ();
      local_cost := Sim.Engine.now eng -. t0;
      let t1 = Sim.Engine.now eng in
      Sim.Bus.access bus ~who:0 ~home:5 ();
      remote_cost := Sim.Engine.now eng -. t1);
  Sim.Engine.run eng;
  Alcotest.(check bool)
    "remote access costs more" true
    (!remote_cost > !local_cost);
  Alcotest.(check int)
    "local hop, then the remote access on both cluster buses" 3
    (Sim.Bus.transactions bus)

(* Cluster-targeted multicast: a task resident on one cluster interrupts
   that cluster only, where broadcast pays one IPI per other CPU. *)
let test_targeted_fewer_ipis () =
  let ipis mode =
    let params =
      {
        clustered_params with
        Sim.Params.ncpus = 16;
        ipi_mode = mode;
        seed = 11L;
      }
    in
    let machine = Vm.Machine.create ~params () in
    let r = Workloads.Tlb_tester.run machine ~children:3 () in
    Alcotest.(check bool) "consistent" true r.Workloads.Tlb_tester.consistent;
    machine.Vm.Machine.ctx.Core.Pmap.ipis_sent
  in
  let targeted = ipis Sim.Params.Multicast in
  let broadcast = ipis Sim.Params.Broadcast in
  Alcotest.(check bool)
    (Printf.sprintf "targeted (%d) < broadcast (%d)" targeted broadcast)
    true
    (targeted < broadcast)

(* The profiler on a clustered machine: per-cluster attribution
   partitions the per-CPU buckets, and remote traffic shows up in the
   Interconnect_wait bucket. *)
let test_clustered_profile () =
  let params = { clustered_params with Sim.Params.seed = 5L } in
  let machine = Vm.Machine.create ~params () in
  let profile = Instrument.Profile.create ~ncpus:params.Sim.Params.ncpus () in
  Vm.Machine.attach_profile machine profile;
  let r = Workloads.Tlb_tester.run machine ~children:8 () in
  Alcotest.(check bool) "consistent" true r.Workloads.Tlb_tester.consistent;
  Alcotest.(check (option int)) "three clusters mapped" (Some 3)
    (Option.map List.length
       (Option.bind
          (Instrument.Json.member "clusters"
             (Instrument.Profile.to_json profile))
          Instrument.Json.get_list));
  Alcotest.(check bool)
    "interconnect wait observed" true
    (Instrument.Profile.category_total profile
       Instrument.Profile.Interconnect_wait
    > 0.0);
  List.iter
    (fun cat ->
      let by_cluster = ref 0.0 in
      for c = 0 to 2 do
        by_cluster :=
          !by_cluster +. Instrument.Profile.cluster_total profile ~cluster:c cat
      done;
      Alcotest.(check (float 1e-9))
        ("cluster totals partition " ^ Instrument.Profile.category_name cat)
        (Instrument.Profile.category_total profile cat)
        !by_cluster)
    Instrument.Profile.categories

(* ------------------------------------------------------------------ *)
(* QCheck: cluster-targeted shootdown keeps the oracle green on random
   kernel map/unmap histories (the kernel pmap is in use on every
   cluster, so each flush exercises the multicast grouping). *)

let nth l i = match List.nth_opt l i with Some v -> v | None -> 0

let kernel_history_trial l =
  let bufs = 1 + (nth l 0 mod 10) in
  let pages = 1 + (nth l 1 mod 3) in
  let spinners = nth l 2 mod 4 in
  let seed = Int64.of_int (1 + nth l 3) in
  let params = { clustered_params with Sim.Params.seed } in
  let machine = Vm.Machine.create ~params () in
  let oracle = Oracle.attach machine.Vm.Machine.ctx in
  Vm.Machine.run machine (fun self ->
      let vms = machine.Vm.Machine.vms in
      let kmap = machine.Vm.Machine.kernel_map in
      let sched = machine.Vm.Machine.sched in
      (* spinners pinned on distinct clusters keep remote TLBs warm *)
      let threads =
        List.init spinners (fun i ->
            Sim.Sched.create_thread sched
              ~bound:(1 + (i * 4 mod 11))
              ~name:(Printf.sprintf "spin%d" i)
              (fun th ->
                for _ = 1 to 100 do
                  Sim.Cpu.kernel_step (Sim.Sched.current_cpu th) 50.0
                done))
      in
      for _ = 1 to bufs do
        let buf = Vm.Kmem.alloc_pageable vms self kmap ~pages in
        (match
           Vm.Task.touch_range vms self kmap ~lo_vpn:buf ~pages
             ~access:Hw.Addr.Write_access
         with
        | Ok () -> ()
        | Error _ -> Alcotest.fail "buffer fault");
        Vm.Kmem.free vms self kmap ~vpn:buf ~pages
      done;
      List.iter (fun th -> Sim.Sched.join sched self th) threads);
  Oracle.consistent oracle && Oracle.checks oracle > 0

let fuzz_targeted_shootdown_oracle_green =
  QCheck.Test.make ~count:15
    ~name:"cluster-targeted shootdown keeps oracle green on random histories"
    (QCheck.make
       ~print:(fun l -> String.concat "," (List.map string_of_int l))
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (0 -- 4) small_nat))
    kernel_history_trial

let () =
  Alcotest.run "topology"
    [
      ( "equivalence",
        [
          Alcotest.test_case "flat topology reproduces the single bus" `Quick
            test_flat_equivalence;
          Alcotest.test_case "sharded engine keeps event order" `Quick
            test_sharded_engine_order;
          Alcotest.test_case "iter_payloads covers every shard" `Quick
            test_iter_payloads_all_shards;
          QCheck_alcotest.to_alcotest heap_sharding_invisible;
        ] );
      ( "clustered",
        [
          Alcotest.test_case "remote access crosses the interconnect" `Quick
            test_remote_access_accounting;
          Alcotest.test_case "targeted multicast interrupts fewer CPUs" `Quick
            test_targeted_fewer_ipis;
          Alcotest.test_case "per-cluster profile attribution" `Quick
            test_clustered_profile;
          QCheck_alcotest.to_alcotest fuzz_targeted_shootdown_oracle_green;
        ] );
    ]
