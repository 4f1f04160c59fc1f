(* Golden outputs of every shootdown observer: the span stream, the
   flight recorder and the profiler, each driven by a small real run and
   compared byte for byte with a file under golden/.  The CLI and example
   outputs ([trace --children 3], examples/anatomy.exe) are pinned by the
   diff rules in golden/dune; this file pins the library-level ones.

   On a mismatch the produced text is written next to the test binary as
   <name>.actual, so a deliberate change can be reviewed with diff and
   copied over the golden file. *)

module Json = Instrument.Json
module Trace = Instrument.Trace
module Flight = Instrument.Flight

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let check_golden name actual =
  let expected =
    match read_file (Filename.concat "golden" name) with
    | s -> s
    | exception Sys_error _ -> ""
  in
  if expected <> actual then begin
    let oc = open_out_bin (name ^ ".actual") in
    output_string oc actual;
    close_out oc;
    Alcotest.failf "golden/%s differs from this run (written to %s.actual)"
      name name
  end

(* Shootdown spans only: [Vm.Machine.attach_trace] would add the engine's
   coroutine spans, which these files leave out to stay small. *)
let observe_spans (m : Vm.Machine.t) tr =
  Core.Pmap.observe m.Vm.Machine.ctx
    (Core.Shoot_trace.observer tr ~ncpus:m.Vm.Machine.params.Sim.Params.ncpus)

let json_text j = Json.to_string j ^ "\n"

let spans_and_flight tr fl =
  json_text
    (Json.Obj
       [ ("spans", Trace.report_json tr); ("flight", Flight.to_json fl) ])

(* A batched, elided mmap-churn run: gather flushes, generation-bump
   elisions and the tlb.flush / tlb.invalidate split of the responders. *)
let test_churn_batched_elided () =
  let params =
    {
      Sim.Params.production with
      Sim.Params.ncpus = 4;
      batch_shootdowns = true;
      elide_reuse_flushes = true;
    }
  in
  let cfg =
    {
      Workloads.Mmap_churn.default_config with
      Workloads.Mmap_churn.workers = 3;
      requests = 3;
    }
  in
  let tr = Trace.create () in
  let fl = Flight.create ~ncpus:params.Sim.Params.ncpus () in
  ignore
    (Workloads.Mmap_churn.run ~params ~cfg
       ~attach:(fun m ->
         observe_spans m tr;
         Vm.Machine.attach_flight m fl)
       ());
  check_golden "churn_batched_elided.json" (spans_and_flight tr fl)

(* A burst of kernel-buffer frees through one gather batch while other
   CPUs run kernel code: gather-flush rounds whose coalesced ranges cross
   the flush threshold, so the responders take the tlb.flush path. *)
let test_gather_burst () =
  let params =
    { Sim.Params.default with Sim.Params.ncpus = 4; batch_shootdowns = true }
  in
  let machine = Vm.Machine.create ~params () in
  let tr = Trace.create () in
  let fl = Flight.create ~ncpus:params.Sim.Params.ncpus () in
  observe_spans machine tr;
  Vm.Machine.attach_flight machine fl;
  let vms = machine.Vm.Machine.vms and kmap = machine.Vm.Machine.kernel_map in
  let sched = machine.Vm.Machine.sched in
  Vm.Machine.run ~bound:0 machine (fun self ->
      let spinners =
        List.init 2 (fun i ->
            Sim.Sched.create_thread sched ~name:(Printf.sprintf "spin%d" i)
              (fun th ->
                for _ = 1 to 60 do
                  Sim.Cpu.kernel_step (Sim.Sched.current_cpu th) 40.0
                done))
      in
      Vm.Machine.with_kernel_batch machine self (fun batch ->
          for _ = 1 to 6 do
            let buf = Vm.Kmem.alloc_pageable vms self kmap ~pages:4 in
            ignore
              (Vm.Task.touch_range vms self kmap ~lo_vpn:buf ~pages:4
                 ~access:Hw.Addr.Write_access);
            Sim.Cpu.kernel_step (Sim.Sched.current_cpu self) 100.0;
            Vm.Kmem.free ?batch vms self kmap ~vpn:buf ~pages:4
          done);
      List.iter (fun th -> Sim.Sched.join sched self th) spinners);
  check_golden "gather_burst.json" (spans_and_flight tr fl)

(* An IPI blackout under a short watchdog: every barrier times out,
   re-interrupts, and finally abandons its responders — the retry and
   escalation spans and the forced invalidation after the update. *)
let test_fault_blackout () =
  let params =
    Experiments.Resilience.trial_params
      { Sim.Fault.none with Sim.Fault.ipi_drop_rate = 1.0 }
      ~seed:7L
  in
  let machine = Vm.Machine.create ~params () in
  let tr = Trace.create () in
  let fl = Flight.create ~ncpus:params.Sim.Params.ncpus () in
  observe_spans machine tr;
  Vm.Machine.attach_flight machine fl;
  ignore (Workloads.Tlb_tester.run machine ~children:2 ());
  check_golden "fault_blackout.json" (spans_and_flight tr fl)

let tail () = Experiments.Tail.run ~jobs:1 ~max_procs:3 ~runs_per_point:1 ()
let knee () = Experiments.Knee.run ~jobs:1 ~max_procs:3 ~runs_per_point:1 ()

let test_tail () =
  check_golden "tail.json" (json_text (Experiments.Tail.to_json (tail ())))

let test_knee () =
  check_golden "knee.json" (json_text (Experiments.Knee.to_json (knee ())))

let test_tail_render () =
  check_golden "tail.txt" (Experiments.Tail.render (tail ()))

let test_knee_render () =
  check_golden "knee.txt" (Experiments.Knee.render (knee ()))

(* Reduced versions of the tester sweeps: each pins the sweep's seeds,
   its per-point grouping and its report. *)
let test_figure2 () =
  let t =
    Experiments.Figure2.run ~jobs:1 ~max_procs:3 ~runs_per_point:2
      ~fit_limit:3 ()
  in
  check_golden "figure2.txt" (Experiments.Figure2.render t)

(* 32 CPUs in clusters of 4 also runs the cluster-targeted ablation. *)
let test_scale1024 () =
  let t =
    Experiments.Scale1024.run ~jobs:1 ~scales:[ 4; 16; 32 ] ~runs_per_point:1
      ~cluster_size:4 ()
  in
  check_golden "scale1024.json" (json_text (Experiments.Scale1024.to_json t));
  check_golden "scale1024.txt" (Experiments.Scale1024.render t)

let test_resilience () =
  let t = Experiments.Resilience.run ~jobs:1 ~trials:1 ~children:2 () in
  check_golden "resilience.json"
    (json_text (Experiments.Resilience.to_json t))

let test_scaling () =
  let t =
    Experiments.Scaling.run ~jobs:1 ~runs:1 ~sizes:[ 16; 24 ]
      ~fit:Experiments.Figure2.paper_fit ()
  in
  check_golden "scaling.txt" (Experiments.Scaling.render t)

let test_ablations () =
  let t = Experiments.Ablations.run ~jobs:1 ~runs:1 ~procs_points:[ 3 ] () in
  check_golden "ablations.txt" (Experiments.Ablations.render t)

let () =
  Alcotest.run "golden"
    [
      ( "observers",
        [
          Alcotest.test_case "churn batched+elided spans and flight" `Quick
            test_churn_batched_elided;
          Alcotest.test_case "gather burst spans and flight" `Quick
            test_gather_burst;
          Alcotest.test_case "fault blackout spans and flight" `Quick
            test_fault_blackout;
          Alcotest.test_case "tail json" `Quick test_tail;
          Alcotest.test_case "knee json" `Quick test_knee;
        ] );
      ( "sweeps",
        [
          Alcotest.test_case "tail render" `Quick test_tail_render;
          Alcotest.test_case "knee render" `Quick test_knee_render;
          Alcotest.test_case "figure2 render" `Quick test_figure2;
          Alcotest.test_case "scale1024 json and render" `Quick
            test_scale1024;
          Alcotest.test_case "resilience json" `Quick test_resilience;
          Alcotest.test_case "scaling render" `Quick test_scaling;
          Alcotest.test_case "ablations render" `Quick test_ablations;
        ] );
    ]
