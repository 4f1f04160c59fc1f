(* Tests for the observability layer: the Json serializer/parser, the
   Metrics registry, the structured span tracer, and the perf-regression
   gate in Experiments.Bench_report. *)

module Json = Instrument.Json
module Metrics = Instrument.Metrics
module Trace = Instrument.Trace
module Report = Experiments.Bench_report

(* ------------------------------------------------------------------ *)
(* Json *)

let sample =
  Json.Obj
    [
      ("int", Json.Int 42);
      ("neg", Json.Int (-7));
      ("float", Json.Float 1.5);
      ("integral_float", Json.Float 3.0);
      ("bool", Json.Bool true);
      ("null", Json.Null);
      ("str", Json.Str "a \"quoted\"\nline\twith\\escapes");
      ("list", Json.List [ Json.Int 1; Json.Str "two"; Json.Null ]);
      ("nested", Json.Obj [ ("k", Json.List []) ]);
    ]

let test_json_roundtrip () =
  let check_roundtrip minify =
    match Json.of_string (Json.to_string ~minify sample) with
    | Ok parsed ->
        Alcotest.(check bool)
          (Printf.sprintf "roundtrip minify=%b" minify)
          true (parsed = sample)
    | Error msg -> Alcotest.fail msg
  in
  check_roundtrip true;
  check_roundtrip false

let test_json_floats () =
  (* integral floats keep a decimal point so they parse back as floats *)
  Alcotest.(check string)
    "integral float" "3.0"
    (Json.to_string ~minify:true (Json.Float 3.0));
  (* non-finite values cannot appear in JSON; they serialize as null *)
  Alcotest.(check string)
    "nan is null" "null"
    (Json.to_string ~minify:true (Json.Float nan));
  Alcotest.(check string)
    "infinity is null" "null"
    (Json.to_string ~minify:true (Json.Float infinity));
  (* a full-precision float survives the round trip exactly *)
  let v = 614238.58458596771 in
  match Json.of_string (Json.to_string ~minify:true (Json.Float v)) with
  | Ok (Json.Float v') -> Alcotest.(check bool) "float exact" true (v = v')
  | Ok _ | Error _ -> Alcotest.fail "expected a float back"

let test_json_parse_errors () =
  let bad = [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2" ] in
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted invalid %S" s)
      | Error _ -> ())
    bad

let test_json_accessors () =
  let j =
    Json.Obj
      [ ("a", Json.Obj [ ("b", Json.Int 5) ]); ("s", Json.Str "x") ]
  in
  Alcotest.(check (option int))
    "path" (Some 5)
    (Option.bind (Json.path [ "a"; "b" ] j) Json.get_int);
  Alcotest.(check bool)
    "missing path" true
    (Json.path [ "a"; "missing" ] j = None);
  (* get_float accepts integers *)
  Alcotest.(check (option (float 1e-9)))
    "int as float" (Some 5.0)
    (Option.bind (Json.path [ "a"; "b" ] j) Json.get_float)

(* ------------------------------------------------------------------ *)
(* Metrics *)

let test_metrics_registry () =
  let m = Metrics.create () in
  let field path get = Option.bind (Json.path path (Metrics.to_json m)) get in
  let c = Metrics.counter m "shootdowns" in
  Metrics.inc c;
  Metrics.inc ~by:4 c;
  Alcotest.(check (option int)) "counter" (Some 5)
    (field [ "shootdowns"; "value" ] Json.get_int);
  (* get-or-create returns the same underlying metric *)
  Metrics.inc (Metrics.counter m "shootdowns");
  Alcotest.(check (option int)) "shared" (Some 6)
    (field [ "shootdowns"; "value" ] Json.get_int);
  let g = Metrics.gauge m "fit/slope" in
  Metrics.set g 55.0;
  Alcotest.(check bool) "gauge" true
    (field [ "fit/slope"; "value" ] Json.get_float = Some 55.0);
  let h = Metrics.histogram m "elapsed" in
  Metrics.observe_list h [ 3.0; 1.0; 2.0 ];
  Alcotest.(check (option int)) "histogram n" (Some 3)
    (field [ "elapsed"; "n" ] Json.get_int);
  Alcotest.(check (list string))
    "sorted names"
    [ "elapsed"; "fit/slope"; "shootdowns" ]
    (match Metrics.to_json m with
    | Json.Obj kvs -> List.map fst kvs
    | _ -> []);
  (* same name, different kind is a programming error *)
  Alcotest.check_raises "kind clash"
    (Invalid_argument "Metrics: \"shootdowns\" already registered as a counter")
    (fun () -> ignore (Metrics.gauge m "shootdowns"))

let test_metrics_json () =
  let m = Metrics.create () in
  Metrics.inc ~by:3 (Metrics.counter m "c");
  Metrics.set (Metrics.gauge m "g") 2.5;
  Metrics.observe_list (Metrics.histogram m "h") [ 1.0; 2.0; 3.0 ];
  let j = Metrics.to_json m in
  Alcotest.(check (option int))
    "counter value" (Some 3)
    (Option.bind (Json.path [ "c"; "value" ] j) Json.get_int);
  Alcotest.(check (option string))
    "counter type" (Some "counter")
    (Option.bind (Json.path [ "c"; "type" ] j) Json.get_string);
  Alcotest.(check (option (float 1e-9)))
    "gauge value" (Some 2.5)
    (Option.bind (Json.path [ "g"; "value" ] j) Json.get_float);
  (* histograms carry the paper's percentile set *)
  List.iter
    (fun field ->
      Alcotest.(check bool)
        (Printf.sprintf "histogram %s present" field)
        true
        (Json.path [ "h"; field ] j <> None))
    [ "n"; "mean"; "std"; "min"; "max"; "median"; "p10"; "p90" ];
  Alcotest.(check (option int))
    "histogram n" (Some 3)
    (Option.bind (Json.path [ "h"; "n" ] j) Json.get_int)

(* ------------------------------------------------------------------ *)
(* Trace *)

let test_trace_emit () =
  let t = Trace.create () in
  Trace.emit t ~name:"initiator.start" ~cpu:0 ~at:10.0 ();
  Trace.emit t ~name:"responder.ack" ~cpu:1 ~at:12.5
    ~attrs:[ ("target", Trace.Int 1) ]
    ();
  Trace.emit t ~name:"engine.coroutine" ~cpu:(-1) ~at:0.0 ~dur:20.0 ();
  Alcotest.(check int) "length" 3 (Trace.length t);
  match Trace.spans t with
  | [ a; b; _ ] ->
      Alcotest.(check string) "emission order" "initiator.start" a.Trace.name;
      Alcotest.(check string) "second" "responder.ack" b.Trace.name
  | _ -> Alcotest.fail "expected three spans"

let test_trace_json () =
  let t = Trace.create () in
  Trace.emit t ~name:"tlb.invalidate" ~cpu:2 ~at:5.0
    ~attrs:[ ("space", Trace.Int 1); ("pages", Trace.Int 3) ]
    ();
  match Json.member "spans" (Trace.report_json t) with
  | Some (Json.List [ s ]) ->
      Alcotest.(check (option string))
        "name" (Some "tlb.invalidate")
        (Option.bind (Json.member "name" s) Json.get_string);
      Alcotest.(check (option int))
        "cpu" (Some 2)
        (Option.bind (Json.member "cpu" s) Json.get_int);
      Alcotest.(check (option int))
        "attr pages" (Some 3)
        (Option.bind (Json.path [ "attrs"; "pages" ] s) Json.get_int);
      (* zero-duration instants omit the dur field *)
      Alcotest.(check bool) "no dur" true (Json.member "dur" s = None)
  | _ -> Alcotest.fail "expected a one-span list"

(* A real shootdown emits the Figure 1 phases into an attached tracer. *)
let test_trace_integration () =
  let tr = Trace.create () in
  let machine = Vm.Machine.create ~params:Sim.Params.default () in
  Vm.Machine.attach_trace machine tr;
  let r = Workloads.Tlb_tester.run machine ~children:2 () in
  Alcotest.(check bool) "consistent" true r.Workloads.Tlb_tester.consistent;
  let names = List.map (fun s -> s.Trace.name) (Trace.spans tr) in
  List.iter
    (fun expected ->
      Alcotest.(check bool)
        (Printf.sprintf "span %s present" expected)
        true
        (List.mem expected names))
    [
      "initiator.start";
      "initiator.queue-action";
      "initiator.ipi";
      "initiator.barrier-done";
      "initiator.update-done";
      "responder.ack";
      "responder.drain";
      "tlb.invalidate";
    ]

(* ------------------------------------------------------------------ *)
(* The probe stream *)

module Probe = Instrument.Probe

(* Every probe constructor, numbered.  The match is exhaustive, so a new
   constructor fails to compile here until [emit] below covers it. *)
let probe_index : Probe.t -> int = function
  | Round_start _ -> 0
  | Round_lock _ -> 1
  | Round_shoot _ -> 2
  | Round_no_shoot _ -> 3
  | Round_abort _ -> 4
  | Initiator_start _ -> 5
  | Queue_action _ -> 6
  | Ipi_posted _ -> 7
  | Barrier_start _ -> 8
  | Watchdog_retry _ -> 9
  | Watchdog_escalate _ -> 10
  | Barrier_done _ -> 11
  | Update_done _ -> 12
  | Round_unlock _ -> 13
  | Round_end _ -> 14
  | Responder_enter _ -> 15
  | Responder_ack _ -> 16
  | Stall_start _ -> 17
  | Stall_end _ -> 18
  | Responder_drain _ -> 19
  | Drain_start _ -> 20
  | Drain_end _ -> 21
  | Responder_done _ -> 22
  | Responder_exit _ -> 23
  | Idle_drain _ -> 24
  | Tlb _ -> 25

let probe_count = 26

(* Emit probe [n] the way Core.Shootdown does: built only when a
   consumer is attached, with the clock read inside the guard. *)
let emit ctx (cpu : Sim.Cpu.t) n =
  let module P = Core.Pmap in
  let id = Sim.Cpu.id cpu in
  if P.probing ctx then
    let at = Sim.Cpu.now cpu in
    P.probe ctx
      (match n with
      | 0 -> Round_start { cpu = id; at; kind = Round; pmap = "p"; pages = 1 }
      | 1 -> Round_lock { cpu = id; at }
      | 2 -> Round_shoot { cpu = id; at }
      | 3 -> Round_no_shoot { cpu = id; at }
      | 4 -> Round_abort { cpu = id; at }
      | 5 -> Initiator_start { cpu = id; at }
      | 6 ->
          Queue_action
            { cpu = id; at; target = 1; depth = n; overflow = false }
      | 7 -> Ipi_posted { cpu = id; at; target = 1 }
      | 8 -> Barrier_start { cpu = id; at }
      | 9 -> Watchdog_retry { cpu = id; at; target = 1 }
      | 10 ->
          Watchdog_escalate
            {
              cpu = id;
              at;
              target = 1;
              pmap = "p";
              retries = n;
              phase = "-";
              note = cpu.Sim.Cpu.note;
            }
      | 11 -> Barrier_done { cpu = id; at; shot = n }
      | 12 -> Update_done { cpu = id; at }
      | 13 -> Round_unlock { cpu = id; at }
      | 14 -> Round_end { cpu = id; at }
      | 15 ->
          Responder_enter
            { cpu = id; at; posted = cpu.Sim.Cpu.last_shoot_posted_at }
      | 16 -> Responder_ack { cpu = id; at }
      | 17 -> Stall_start { cpu = id; at }
      | 18 -> Stall_end { cpu = id; at }
      | 19 -> Responder_drain { cpu = id; at }
      | 20 -> Drain_start { cpu = id; at }
      | 21 -> Drain_end { cpu = id; at }
      | 22 -> Responder_done { cpu = id; at }
      | 23 -> Responder_exit { cpu = id; at }
      | 24 -> Idle_drain { cpu = id; at }
      | _ -> Tlb { cpu = id; at; space = n; pages = n; flush = true })

(* The minor_words_per_event contract: with no consumer attached, an
   emission site is one branch and allocates nothing. *)
let test_detached_probes_allocate_nothing () =
  let machine = Vm.Machine.create ~params:Sim.Params.default () in
  let ctx = machine.Vm.Machine.ctx and cpu = machine.Vm.Machine.cpus.(0) in
  let emit_all () =
    for n = 0 to probe_count - 1 do
      emit ctx cpu n
    done
  in
  let words f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let baseline = words ignore in
  Alcotest.(check (float 0.0)) "detached: no allocation" baseline
    (words emit_all);
  (* attached, the same calls deliver every constructor exactly once *)
  let seen = ref [] in
  Core.Pmap.observe ctx (fun p -> seen := probe_index p :: !seen);
  emit_all ();
  Alcotest.(check (list int))
    "every constructor" (List.init probe_count Fun.id) (List.rev !seen)

(* ------------------------------------------------------------------ *)
(* The regression gate *)

(* A minimal report with the fields the gate inspects. *)
let report ?(intercept = 400.0) ?(slope = 50.0) ?(events = 100) () =
  Json.Obj
    [
      ("schema", Json.Int Report.schema_version);
      ("mode", Json.Str "smoke");
      ( "metrics",
        Json.Obj
          [
            ( "figure2/fit/intercept_us",
              Json.Obj
                [ ("type", Json.Str "gauge"); ("value", Json.Float intercept) ]
            );
            ( "figure2/fit/slope_us_per_proc",
              Json.Obj
                [ ("type", Json.Str "gauge"); ("value", Json.Float slope) ] );
            ( "figure2/fit_limit",
              Json.Obj
                [ ("type", Json.Str "gauge"); ("value", Json.Float 8.0) ] );
            ( "table2/mach/events",
              Json.Obj
                [ ("type", Json.Str "counter"); ("value", Json.Int events) ] );
          ] );
    ]

let test_gate_identical_pass () =
  let r = report () in
  let v = Report.compare_runs ~baseline:r ~current:r () in
  Alcotest.(check bool) "passes" true (Report.passed v);
  Alcotest.(check (list string)) "no failures" [] v.Report.failures

let test_gate_slowdown_fails () =
  (* current cost is ~2x the baseline: well past the 15% tolerance *)
  let v =
    Report.compare_runs
      ~baseline:(report ~intercept:200.0 ~slope:25.0 ())
      ~current:(report ()) ()
  in
  Alcotest.(check bool) "fails" false (Report.passed v);
  Alcotest.(check bool) "mentions figure2" true
    (List.exists
       (fun f ->
         String.length f >= 7 && String.sub f 0 7 = "figure2")
       v.Report.failures);
  (* a slowdown within tolerance passes *)
  let ok =
    Report.compare_runs
      ~baseline:(report ~intercept:400.0 ~slope:50.0 ())
      ~current:(report ~intercept:440.0 ~slope:55.0 ())
      ()
  in
  Alcotest.(check bool) "10% within tolerance" true (Report.passed ok);
  (* ...and a speedup always passes *)
  let fast =
    Report.compare_runs ~baseline:(report ())
      ~current:(report ~intercept:200.0 ~slope:25.0 ())
      ()
  in
  Alcotest.(check bool) "speedup passes" true (Report.passed fast)

let test_gate_count_drift_fails () =
  let v =
    Report.compare_runs
      ~baseline:(report ~events:100 ())
      ~current:(report ~events:110 ())
      ()
  in
  Alcotest.(check bool) "drift fails" false (Report.passed v);
  (* within the max(2, 2%) allowance passes *)
  let ok =
    Report.compare_runs
      ~baseline:(report ~events:100 ())
      ~current:(report ~events:102 ())
      ()
  in
  Alcotest.(check bool) "small drift passes" true (Report.passed ok)

let test_gate_missing_metric_fails () =
  let current =
    Json.Obj
      [
        ("schema", Json.Int Report.schema_version);
        ("mode", Json.Str "smoke");
        ( "metrics",
          Json.Obj
            [
              ( "figure2/fit/intercept_us",
                Json.Obj
                  [ ("type", Json.Str "gauge"); ("value", Json.Float 400.0) ]
              );
              ( "figure2/fit/slope_us_per_proc",
                Json.Obj
                  [ ("type", Json.Str "gauge"); ("value", Json.Float 50.0) ] );
            ] );
      ]
  in
  let v = Report.compare_runs ~baseline:(report ()) ~current () in
  Alcotest.(check bool) "missing counter fails" false (Report.passed v)

let () =
  Alcotest.run "observability"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "floats" `Quick test_json_floats;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "registry" `Quick test_metrics_registry;
          Alcotest.test_case "json" `Quick test_metrics_json;
        ] );
      ( "trace",
        [
          Alcotest.test_case "emit" `Quick test_trace_emit;
          Alcotest.test_case "json" `Quick test_trace_json;
          Alcotest.test_case "shootdown integration" `Quick
            test_trace_integration;
          Alcotest.test_case "detached probes allocate nothing" `Quick
            test_detached_probes_allocate_nothing;
        ] );
      ( "gate",
        [
          Alcotest.test_case "identical pass" `Quick test_gate_identical_pass;
          Alcotest.test_case "slowdown fails" `Quick test_gate_slowdown_fails;
          Alcotest.test_case "count drift fails" `Quick
            test_gate_count_drift_fails;
          Alcotest.test_case "missing metric fails" `Quick
            test_gate_missing_metric_fails;
        ] );
    ]
