(* tlbshoot: command-line driver for the reproduction experiments.

     tlbshoot figure2 [--runs 10] [--max-procs 15] [--jobs N]
     tlbshoot table1 [--scale 100] [--jobs N]
     tlbshoot tables [--scale 100] [--jobs N]  (Tables 2-4, one data set)
     tlbshoot overhead [--scale 100] [--jobs N]
     tlbshoot ablations [--runs 3] [--jobs N]
     tlbshoot faults [--trials 3] [--children 4] [--jobs N] [--json]
     tlbshoot batch [--scale 100] [--jobs N] [--json]
     tlbshoot tester --children 4 [--no-consistency | --policy ...]
     tlbshoot trace [--workload tester] [--children 4] [--scale 10]
                    [--json] [--perfetto out.json]
     tlbshoot profile [--runs 10] [--max-procs 15] [--jobs N] [--json]
     tlbshoot explain [--top K] [--window US] [--runs 10] [--jobs N]
                      [--json] [--perfetto out.json]
     tlbshoot scale1024 [--runs 3] [--full] [--cluster-size 16] [--jobs N]
                        [--json]
     tlbshoot all [--scale 100] [--runs 10] [--jobs N]

   --jobs fans independent trials over that many OCaml domains through
   Sim.Domain_pool; the default is the machine's recommended domain
   count and the output is bit-for-bit identical at any value (see
   docs/PARALLELISM.md). *)

open Cmdliner
module E = Experiments

let write_file file text =
  Out_channel.with_open_text file (fun oc -> output_string oc text)

let tables apps =
  String.concat "\n"
    [
      E.Table2.render (E.Table2.of_apps apps);
      E.Table3.render (E.Table3.of_apps apps);
      E.Table4.render (E.Table4.of_apps apps);
    ]

(* The overhead analysis keeps its own 3-run Figure 2 fit. *)
let overhead ~jobs apps =
  let fig = E.Figure2.run ~jobs ~runs_per_point:3 () in
  E.Overhead.of_apps apps ~fit:fig.E.Figure2.fit

let run_tester ~children ~policy =
  let params =
    match policy with
    | "shootdown" -> Sim.Params.default
    | "none" -> { Sim.Params.default with consistency = Sim.Params.No_consistency }
    | "timer" ->
        { Sim.Params.default with consistency = Sim.Params.Timer_flush 5_000.0 }
    | "hw" ->
        {
          Sim.Params.default with
          consistency = Sim.Params.Hw_remote;
          tlb_interlocked_refmod = true;
        }
    | "deferred" ->
        { Sim.Params.default with consistency = Sim.Params.Deferred_free 2_000.0 }
    | other -> failwith (Printf.sprintf "unknown policy %S" other)
  in
  let r = Workloads.Tlb_tester.run_fresh ~params ~children ~seed:42L () in
  Printf.printf
    "policy=%s children=%d consistent=%b violations=%d processors=%d \
     initiator=%.0f us increments=%d\n"
    policy children r.Workloads.Tlb_tester.consistent
    r.Workloads.Tlb_tester.violations r.Workloads.Tlb_tester.processors
    r.Workloads.Tlb_tester.initiator_elapsed
    r.Workloads.Tlb_tester.increments_total

(* Replay a workload with the structured span tracer attached and dump
   the stream — the machine-readable "anatomy of a shootdown".  With
   --perfetto the same stream is written as a Chrome trace-event file
   (one track per CPU) loadable in ui.perfetto.dev; the tester path also
   attaches the contention profiler so the timeline carries the
   prof.<category> attribution slices. *)
let run_trace ~workload ~children ~scale ~emit_json ~perfetto =
  let tr = Instrument.Trace.create () in
  (match String.lowercase_ascii workload with
  | "tester" ->
      let machine = Vm.Machine.create ~params:Sim.Params.default () in
      let profile =
        Instrument.Profile.create ~ncpus:Sim.Params.default.Sim.Params.ncpus ()
      in
      Instrument.Profile.set_tracer profile (Some tr);
      Vm.Machine.attach_profile machine profile;
      Vm.Machine.attach_trace machine tr;
      ignore (Workloads.Tlb_tester.run machine ~children ())
  | "mach" ->
      ignore
        (Workloads.Mach_build.run ~trace:tr
           ~cfg:(Experiments.Apps.scaled_mach scale) ())
  | "parthenon" ->
      ignore
        (Workloads.Parthenon.run ~trace:tr
           ~cfg:(Experiments.Apps.scaled_parthenon scale) ())
  | "agora" ->
      ignore
        (Workloads.Agora.run ~trace:tr
           ~cfg:(Experiments.Apps.scaled_agora scale) ())
  | "camelot" ->
      ignore
        (Workloads.Camelot.run ~trace:tr
           ~cfg:(Experiments.Apps.scaled_camelot scale) ())
  | other ->
      failwith
        (Printf.sprintf
           "unknown workload %S (tester|mach|parthenon|agora|camelot)" other));
  (* A capped ring that wrapped lost its oldest spans: say so on stderr
     at report time, whatever the output format, so a truncated stream
     is never mistaken for a complete one. *)
  (match Instrument.Trace.dropped_warning tr with
  | Some w -> prerr_endline w
  | None -> ());
  (match perfetto with
  | Some file ->
      write_file file (Instrument.Perfetto.to_string tr);
      Printf.printf "wrote %d spans (%d dropped) to %s\n"
        (Instrument.Trace.length tr)
        (Instrument.Trace.dropped tr)
        file
  | None ->
      if emit_json then
        print_string
          (Instrument.Json.to_string (Instrument.Trace.report_json tr))
      else print_string (Instrument.Trace.render tr))

(* The largest point of the tail analysis carries the interesting tail:
   write its timeline as Perfetto counter tracks. *)
let write_tail_timeline (t : E.Tail.t) file =
  match List.rev t.E.Tail.points with
  | { E.Tail.cpus; flight; _ } :: _ -> (
      match Instrument.Flight.timeline flight with
      | Some tl ->
          write_file file (Instrument.Perfetto.timeline_to_string tl);
          Printf.printf "wrote timeline counter tracks (%d cpus) to %s\n" cpus
            file
      | None -> ())
  | [] -> ()

(* The model checker (docs/MODELCHECK.md): exhaustively explore the
   shootdown protocol's small-configuration schedule space.  On a
   violation, write a replayable counterexample and exit 1; --replay
   re-runs a saved counterexample, optionally rendering it as a
   Perfetto timeline. *)
let run_check ~cpus ~depth ~max_schedules ~no_prune ~mutant ~scenario
    ~emit_json ~cex_out ~replay ~perfetto =
  match replay with
  | Some file -> (
      let text = In_channel.with_open_text file In_channel.input_all in
      match Check.Explorer.parse_counterexample text with
      | Error msg ->
          prerr_endline msg;
          exit 2
      | Ok r ->
          let trace =
            match perfetto with
            | Some _ -> Some (Instrument.Trace.create ())
            | None -> None
          in
          let out = Check.Explorer.run_replay ?trace r in
          (match (perfetto, trace) with
          | Some file, Some tr ->
              write_file file (Instrument.Perfetto.to_string tr);
              Printf.printf "wrote %d spans to %s\n"
                (Instrument.Trace.length tr)
                file
          | _ -> ());
          (match out.Check.Scenario.verdict with
          | Check.Scenario.Pass ->
              Printf.printf
                "replay: PASS (%d decisions) — the violation did not \
                 reproduce\n"
                (List.length out.Check.Scenario.decisions);
              exit 1
          | Check.Scenario.Violation { kind; detail } ->
              Printf.printf "replay: %s violation reproduced\n  %s\n" kind
                detail);
          exit 0)
  | None -> (
      let mutant =
        match Check.Scenario.mutant_of_string mutant with
        | Ok m -> m
        | Error msg ->
            prerr_endline msg;
            exit 2
      in
      let t =
        Experiments.Modelcheck.run ~cpus ~depth ~max_schedules
          ~prune:(not no_prune) ~mutant ?scenario ()
      in
      if emit_json then
        print_string (Instrument.Json.to_string (Experiments.Modelcheck.to_json t))
      else print_string (Experiments.Modelcheck.render t);
      match Experiments.Modelcheck.first_violation t with
      | None -> ()
      | Some { result = r } ->
          write_file cex_out
            (Instrument.Json.to_string (Check.Explorer.counterexample_json r));
          if not emit_json then
            Printf.printf "counterexample written to %s (tlbshoot check \
                           --replay %s)\n"
              cex_out cex_out;
          exit 1)

let print_all ~jobs ~scale ~runs =
  print_string (E.Figure2.render (E.Figure2.run ~jobs ~runs_per_point:runs ()));
  print_newline ();
  print_string (E.Table1.render (E.Table1.run ~jobs ~scale ()));
  print_newline ();
  let apps = E.Apps.run ~jobs ~scale () in
  print_string (tables apps);
  print_newline ();
  print_string (E.Overhead.render (overhead ~jobs apps));
  print_newline ();
  print_string (E.Ablations.render (E.Ablations.run ~jobs ~runs:2 ()))

(* --- cmdliner wiring --- *)

(* An integer option that must be at least [lo]: a smaller value is a
   usage error (exit 124), not a crash deep inside the run. *)
let int_at_least lo =
  let parse s =
    match Arg.conv_parser Arg.int s with
    | Ok n when n < lo ->
        Error
          (`Msg
             (Printf.sprintf "invalid value '%d', expected an integer >= %d" n
                lo))
    | r -> r
  in
  Arg.conv (parse, Format.pp_print_int)

let positive = int_at_least 1

let scale_arg =
  Arg.(value & opt int 100 & info [ "scale" ] ~doc:"Workload scale percent.")

let jobs_arg =
  Arg.(
    value
    & opt positive (Sim.Domain_pool.default_jobs ())
    & info [ "jobs" ]
        ~doc:
          "Trial-level parallelism: independent simulations fan out over \
           this many OCaml domains (1 = sequential; output is identical \
           either way).")

let runs_arg default =
  Arg.(
    value & opt positive default & info [ "runs" ] ~doc:"Runs per data point.")

let max_procs_arg =
  Arg.(
    value
    & opt (int_at_least 2) 15
    & info [ "max-procs" ] ~doc:"Largest processor count.")

let children_arg =
  Arg.(
    value & opt positive 4 & info [ "children" ] ~doc:"Tester child threads.")

let policy_arg =
  Arg.(
    value
    & opt string "shootdown"
    & info [ "policy" ] ~doc:"Consistency policy: shootdown|none|timer|hw|deferred.")

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Emit the report as JSON instead of text (EXPERIMENTS.md names \
           each subcommand's schema).")

let perfetto_arg ~doc =
  Arg.(value & opt (some string) None & info [ "perfetto" ] ~docv:"FILE" ~doc)

let cmd name doc term = Cmd.v (Cmd.info name ~doc) term

(* A subcommand that runs [run] and prints its text report. *)
let report name doc render run =
  cmd name doc Term.(const (fun r -> print_string (render r)) $ run)

(* A gated subcommand (a CI gate): the report as text or, with --json, as
   JSON, then exit 1 unless [gate] holds. *)
let gated name doc ~render ~to_json ~gate run =
  cmd name doc
    Term.(
      const (fun emit_json r ->
          print_string
            (if emit_json then Instrument.Json.to_string (to_json r)
             else render r);
          if not (gate r) then Stdlib.exit 1)
      $ json_arg $ run)

let figure2_cmd =
  report "figure2" "Reproduce Figure 2 (basic shootdown costs)"
    E.Figure2.render
    Term.(
      const (fun jobs runs max_procs ->
          E.Figure2.run ~jobs ~runs_per_point:runs ~max_procs ())
      $ jobs_arg $ runs_arg 10 $ max_procs_arg)

let table1_cmd =
  report "table1" "Reproduce Table 1 (lazy evaluation)" E.Table1.render
    Term.(
      const (fun jobs scale -> E.Table1.run ~jobs ~scale ())
      $ jobs_arg $ scale_arg)

let tables_cmd =
  report "tables" "Reproduce Tables 2-4 (application shootdown statistics)"
    tables
    Term.(
      const (fun jobs scale -> E.Apps.run ~jobs ~scale ())
      $ jobs_arg $ scale_arg)

let overhead_cmd =
  report "overhead" "Reproduce the section 8 overhead analysis"
    E.Overhead.render
    Term.(
      const (fun jobs scale -> overhead ~jobs (E.Apps.run ~jobs ~scale ()))
      $ jobs_arg $ scale_arg)

let baselines_cmd =
  report "baselines" "Compare the section 3 consistency policies"
    E.Baselines.render
    Term.(const (fun jobs -> E.Baselines.run ~jobs ()) $ jobs_arg)

let scaling_cmd =
  report "scaling" "Validate the section 8 extrapolation on larger machines"
    E.Scaling.render
    Term.(
      const (fun jobs runs ->
          let fig = E.Figure2.run ~jobs ~runs_per_point:3 ~max_procs:12 () in
          E.Scaling.run ~jobs ~runs ~fit:fig.E.Figure2.fit ())
      $ jobs_arg $ runs_arg 3)

let pools_cmd =
  report "pools" "Measure the section 8 pool-structured-kernel proposal"
    E.Pools.render
    Term.(const (fun () -> E.Pools.run ()) $ const ())

let ablations_cmd =
  report "ablations" "Run the section 9 hardware-option ablations"
    E.Ablations.render
    Term.(
      const (fun jobs runs -> E.Ablations.run ~jobs ~runs ())
      $ jobs_arg $ runs_arg 3)

let faults_cmd =
  let trials_arg =
    Arg.(
      value & opt positive 3 & info [ "trials" ] ~doc:"Trials per fault plan.")
  in
  gated "faults"
    "Run the resilience sweep: tester + consistency oracle under injected \
     faults (exits 1 on any violation)"
    ~render:E.Resilience.render ~to_json:E.Resilience.to_json
    ~gate:E.Resilience.all_green
    Term.(
      const (fun jobs trials children ->
          E.Resilience.run ~jobs ~trials ~children ())
      $ jobs_arg $ trials_arg $ children_arg)

let batch_cmd =
  gated "batch"
    "Run the batching ablation: gather batching x lazy evaluation over the \
     Mach build and Parthenon, oracle attached (exits 1 unless batching \
     reduces Mach consistency rounds with every cell green)"
    ~render:E.Batching.render ~to_json:E.Batching.to_json
    ~gate:E.Batching.batching_helps
    Term.(
      const (fun jobs scale -> E.Batching.run ~jobs ~scale ())
      $ jobs_arg $ scale_arg)

let elide_cmd =
  gated "elide"
    "Run the flush-elision ablation: generation-tagged elision x lazy \
     evaluation x gather batching over the mmap-churn server and \
     Parthenon, oracle attached (exits 1 unless elision halves churn \
     consistency rounds in every combination, leaves Parthenon untouched, \
     and every cell is green)"
    ~render:E.Elision.render ~to_json:E.Elision.to_json
    ~gate:E.Elision.elision_helps
    Term.(
      const (fun jobs scale -> E.Elision.run ~jobs ~scale ())
      $ jobs_arg $ scale_arg)

let tester_cmd =
  cmd "tester" "Run the section 5.1 consistency tester once"
    Term.(
      const (fun children policy -> run_tester ~children ~policy)
      $ children_arg $ policy_arg)

let trace_cmd =
  let workload_arg =
    Arg.(
      value
      & opt string "tester"
      & info [ "workload" ]
          ~doc:"Workload to replay: tester|mach|parthenon|agora|camelot.")
  in
  let trace_scale_arg =
    Arg.(
      value & opt int 10
      & info [ "scale" ] ~doc:"Workload scale percent (applications only).")
  in
  cmd "trace"
    "Replay a workload with the span tracer attached and dump the stream \
     (--json: schema tlbshoot-spans-v1, with emitted/dropped counters)"
    Term.(
      const (fun workload children scale emit_json perfetto ->
          run_trace ~workload ~children ~scale ~emit_json ~perfetto)
      $ workload_arg $ children_arg $ trace_scale_arg $ json_arg
      $ perfetto_arg
          ~doc:
            "Write the stream as a Chrome trace-event file (one track per \
             CPU) loadable in ui.perfetto.dev.")

(* The knee decomposition: figure2 with the contention profiler attached.
   Exits 1 unless the knee invariant holds (CI gate). *)
let profile_cmd =
  gated "profile"
    "Run the Figure 2 sweep with the contention profiler attached and \
     decompose where the time goes per CPU count (exits 1 unless the \
     bus-wait share rises between 4 and 16 CPUs)"
    ~render:E.Knee.render ~to_json:E.Knee.to_json ~gate:E.Knee.knee_holds
    Term.(
      const (fun jobs runs max_procs ->
          E.Knee.run ~jobs ~runs_per_point:runs ~max_procs ())
      $ jobs_arg $ runs_arg 10 $ max_procs_arg)

(* The tail analyzer (docs/TAIL.md): figure2 with the per-round flight
   recorder and windowed timeline attached; explains which phase — and
   which straggler responder — makes the slowest rounds slow.  Exits 1
   unless the tail gate holds: zero unattributed time everywhere, oracle
   green, and the top-K critical path is ack-wait at 16 CPUs but not at
   4 (CI gate). *)
let explain_cmd =
  let top_arg =
    Arg.(
      value
      & opt positive Instrument.Flight.default_top_k
      & info [ "top" ] ~docv:"K"
          ~doc:"Slowest rounds retained per recorder merge.")
  in
  let window_arg =
    Arg.(
      value
      & opt float Instrument.Timeline.default_window
      & info [ "window" ] ~docv:"US"
          ~doc:"Timeline window width in simulated microseconds.")
  in
  gated "explain"
    "Run the Figure 2 sweep with the per-round flight recorder attached \
     and explain the tail: exact per-phase blame, straggler responders, \
     top-K slowest rounds, windowed rates (exits 1 unless blame sums \
     exactly to round latency everywhere and the top-K critical path is \
     responder ack-wait at 16 CPUs but not at 4)"
    ~render:E.Tail.render ~to_json:E.Tail.to_json ~gate:E.Tail.gate_holds
    Term.(
      const (fun jobs runs max_procs top_k window perfetto ->
          let t =
            E.Tail.run ~jobs ~runs_per_point:runs ~max_procs ~top_k ~window ()
          in
          Option.iter (write_tail_timeline t) perfetto;
          t)
      $ jobs_arg $ runs_arg 10 $ max_procs_arg $ top_arg $ window_arg
      $ perfetto_arg
          ~doc:
            "Write the largest point's timeline as Perfetto counter \
             tracks (one track per series) loadable in ui.perfetto.dev.")

(* The hierarchical scale sweep (docs/TOPOLOGY.md): Figure 2 at
   4..1024 CPUs on a clustered machine, with the numaPTE-style
   cluster-targeted-shootdown ablation.  Exits 1 unless the gate holds
   (CI/nightly gate). *)
let scale1024_cmd =
  let full_arg =
    Arg.(
      value & flag
      & info [ "full" ]
          ~doc:
            "Sweep the full 4..1024-CPU ladder (nightly); default is the \
             quick 4/16/64/256 gate.")
  in
  let cluster_size_arg =
    Arg.(
      value
      & opt (int_at_least 2) 16
      & info [ "cluster-size" ] ~doc:"CPUs per cluster bus.")
  in
  gated "scale1024"
    "Run the Figure 2 sweep on a hierarchical 64-1024-CPU NUMA machine \
     and compare against the paper's 430 us + 55 us/processor \
     extrapolation (exits 1 unless the super-linear-deviation and \
     cluster-targeted-shootdown gates hold)"
    ~render:E.Scale1024.render ~to_json:E.Scale1024.to_json
    ~gate:E.Scale1024.gate_holds
    Term.(
      const (fun jobs runs full cluster_size ->
          let scales =
            if full then E.Scale1024.full_scales else E.Scale1024.quick_scales
          in
          E.Scale1024.run ~jobs ~scales ~runs_per_point:runs ~cluster_size ())
      $ jobs_arg $ runs_arg 3 $ full_arg $ cluster_size_arg)

let check_cmd =
  let cpus_arg =
    Arg.(
      value & opt int 2
      & info [ "cpus" ]
          ~doc:
            "Requested processors per scenario (scenarios may round up; \
             the clustered one needs at least 4).")
  in
  let depth_arg =
    Arg.(
      value & opt int 16
      & info [ "depth" ]
          ~doc:
            "Expansion bound: only the first $(docv) choice positions of \
             a schedule branch.")
  in
  let max_schedules_arg =
    Arg.(
      value & opt int 600
      & info [ "max-schedules" ] ~doc:"Schedule cap per scenario.")
  in
  let no_prune_arg =
    Arg.(
      value & flag
      & info [ "no-prune" ]
          ~doc:
            "Disable fingerprint state pruning (slower, but exact — used \
             to cross-check the reduction).")
  in
  let mutant_arg =
    Arg.(
      value & opt string "none"
      & info [ "mutant" ]
          ~doc:
            "Seed a protocol bug: none|skip-barrier|\
             skip-responder-invalidate|skip-generation-bump.  The mutants \
             must produce counterexamples; the healthy protocol must not.")
  in
  let scenario_arg =
    Arg.(
      value & opt (some string) None
      & info [ "scenario" ]
          ~doc:
            "Run one scenario instead of the whole matrix: \
             plain|pair|lazy|batch|elide|escalate|cluster.")
  in
  let cex_arg =
    Arg.(
      value
      & opt string "check_counterexample.json"
      & info [ "counterexample" ] ~docv:"FILE"
          ~doc:"Where to write the counterexample on a violation.")
  in
  let replay_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Re-run a saved counterexample instead of exploring; exits 0 \
             iff the violation reproduces.")
  in
  cmd "check"
    "Model-check the shootdown protocol: exhaustively explore the \
     interleavings of small configurations (event tie-breaks, spinlock \
     acquisition order, interrupt delivery timing) and verify the \
     consistency oracle, the stale-write property and deadlock freedom \
     on every schedule (exits 1 on violation, with a replayable \
     counterexample)"
    Term.(
      const (fun cpus depth max_schedules no_prune mutant scenario emit_json
                cex_out replay perfetto ->
          run_check ~cpus ~depth ~max_schedules ~no_prune ~mutant ~scenario
            ~emit_json ~cex_out ~replay ~perfetto)
      $ cpus_arg $ depth_arg $ max_schedules_arg $ no_prune_arg $ mutant_arg
      $ scenario_arg $ json_arg $ cex_arg $ replay_arg
      $ perfetto_arg
          ~doc:
            "With --replay: render the replayed schedule as a Chrome \
             trace-event file for ui.perfetto.dev.")

let all_cmd =
  cmd "all" "Run every experiment"
    Term.(
      const (fun jobs scale runs -> print_all ~jobs ~scale ~runs)
      $ jobs_arg $ scale_arg $ runs_arg 10)

let () =
  let info =
    Cmd.info "tlbshoot" ~version:"1.0"
      ~doc:
        "Reproduction of 'Translation Lookaside Buffer Consistency: A \
         Software Approach' (ASPLOS 1989)"
  in
  let group =
    Cmd.group info
      [
        figure2_cmd;
        table1_cmd;
        tables_cmd;
        overhead_cmd;
        baselines_cmd;
        scaling_cmd;
        pools_cmd;
        ablations_cmd;
        faults_cmd;
        batch_cmd;
        elide_cmd;
        tester_cmd;
        trace_cmd;
        profile_cmd;
        explain_cmd;
        scale1024_cmd;
        check_cmd;
        all_cmd;
      ]
  in
  exit (Cmd.eval group)
