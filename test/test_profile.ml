(* Tests for the contention profiler: the HDR histogram (bucket
   boundaries, exact associative merge, quantile accuracy against
   Instrument.Stats), the per-CPU time attribution (the QCheck sum
   property: buckets + idle = total simulated time), the trace ring
   buffer, and the Perfetto trace-event exporter. *)

module Json = Instrument.Json
module Histogram = Instrument.Histogram
module Profile = Instrument.Profile
module Trace = Instrument.Trace
module Perfetto = Instrument.Perfetto
module Stats = Instrument.Stats

let feq ?(eps = 1e-9) a b = abs_float (a -. b) <= eps

(* ------------------------------------------------------------------ *)
(* Histogram *)

(* The documented bucket layout of [Histogram.create ()]. *)
let default_lo = 0.5
let default_gamma = Float.pow 2.0 0.25
let default_buckets = 120

let test_histogram_buckets () =
  let h = Histogram.create () in
  let lo = default_lo and gamma = default_gamma in
  (* values below lo land in the underflow bucket 0 *)
  Alcotest.(check int) "underflow" 0 (Histogram.bucket_index h (lo /. 2.0));
  Alcotest.(check int) "zero underflows" 0 (Histogram.bucket_index h 0.0);
  (* lo is the lower edge of bucket 1; lo * gamma the lower edge of 2 *)
  Alcotest.(check int) "first bucket" 1 (Histogram.bucket_index h lo);
  Alcotest.(check int)
    "below first edge" 1
    (Histogram.bucket_index h (lo *. gamma *. 0.999));
  Alcotest.(check int)
    "second bucket" 2
    (Histogram.bucket_index h (lo *. gamma *. 1.001));
  (* a huge value lands in the overflow bucket *)
  Alcotest.(check int)
    "overflow"
    (default_buckets + 1)
    (Histogram.bucket_index h 1e30);
  (* every value lies within its bucket's [lower, upper) bounds *)
  List.iter
    (fun v ->
      let i = Histogram.bucket_index h v in
      let lo_b, hi_b = Histogram.bucket_bounds h i in
      Alcotest.(check bool)
        (Printf.sprintf "bounds contain %g" v)
        true
        (lo_b <= v && (v < hi_b || i = default_buckets + 1)))
    [ 0.1; 0.5; 1.0; 7.3; 430.0; 55_000.0; 1e9 ]

let test_histogram_stats () =
  let h = Histogram.create () in
  Alcotest.(check int) "empty count" 0 (Histogram.count h);
  Alcotest.(check bool) "empty mean nan" true (Float.is_nan (Histogram.mean h));
  List.iter (Histogram.observe h) [ 2.0; 4.0; 6.0 ];
  Alcotest.(check int) "count" 3 (Histogram.count h);
  Alcotest.(check bool) "mean exact" true (feq (Histogram.mean h) 4.0);
  let stat k = Option.bind (Json.member k (Histogram.to_json h)) Json.get_float in
  Alcotest.(check (option (float 1e-9))) "min" (Some 2.0) (stat "min");
  Alcotest.(check (option (float 1e-9))) "max" (Some 6.0) (stat "max")

let test_histogram_merge_associative () =
  let fill vs =
    let h = Histogram.create () in
    List.iter (Histogram.observe h) vs;
    h
  in
  let va = [ 1.0; 3.0; 500.0 ]
  and vb = [ 0.2; 42.0; 42.0; 9e9 ]
  and vc = [ 7.0; 0.9; 123.4 ] in
  (* (a + b) + c *)
  let left = fill va in
  Histogram.merge ~into:left (fill vb);
  Histogram.merge ~into:left (fill vc);
  (* a + (b + c) *)
  let bc = fill vb in
  Histogram.merge ~into:bc (fill vc);
  let right = fill va in
  Histogram.merge ~into:right bc;
  Alcotest.(check string)
    "associative (byte-identical json)"
    (Json.to_string (Histogram.to_json left))
    (Json.to_string (Histogram.to_json right));
  (* merging incompatible layouts is a programming error *)
  Alcotest.(check bool)
    "shape mismatch rejected" true
    (try
       Histogram.merge ~into:(Histogram.create ())
         (Histogram.create ~buckets:7 ());
       false
     with Invalid_argument _ -> true)

(* The log-bucketed quantiles must agree with the exact Stats percentiles
   to within one bucket width — a factor of gamma. *)
let test_histogram_quantiles_vs_stats () =
  let samples =
    List.init 1000 (fun i ->
        (* deterministic, spanning several decades *)
        let x = float_of_int ((i * 7919 mod 1000) + 1) in
        x *. x /. 100.0)
  in
  let h = Histogram.create () in
  List.iter (Histogram.observe h) samples;
  let gamma = default_gamma in
  List.iter
    (fun (q, pct) ->
      let approx = Histogram.quantile h q in
      let exact = Stats.percentile samples pct in
      Alcotest.(check bool)
        (Printf.sprintf "p%.0f within a bucket (%g vs %g)" pct approx exact)
        true
        (approx >= exact /. gamma && approx <= exact *. gamma))
    [ (0.5, 50.0); (0.9, 90.0); (0.99, 99.0) ]

(* ------------------------------------------------------------------ *)
(* Profile bookkeeping *)

let test_profile_accounting () =
  let p = Profile.create ~ncpus:2 () in
  (* no region open: charges go to Compute *)
  Profile.account p ~cpu:0 5.0;
  Alcotest.(check bool)
    "compute" true
    (feq (Profile.get p ~cpu:0 Profile.Compute) 5.0);
  (* nested regions: the innermost gets the charge *)
  Profile.enter p ~cpu:0 ~at:10.0 Profile.Intr_dispatch;
  Profile.enter p ~cpu:0 ~at:11.0 Profile.Queue_drain;
  Profile.account p ~cpu:0 2.0;
  Profile.leave p ~cpu:0 ~at:13.0;
  Profile.account p ~cpu:0 1.0;
  Profile.leave p ~cpu:0 ~at:14.0;
  Alcotest.(check bool)
    "inner charged" true
    (feq (Profile.get p ~cpu:0 Profile.Queue_drain) 2.0);
  Alcotest.(check bool)
    "outer charged" true
    (feq (Profile.get p ~cpu:0 Profile.Intr_dispatch) 1.0);
  (* account_as bypasses the stack *)
  Profile.account_as p ~cpu:1 Profile.Bus_wait 3.0;
  Alcotest.(check bool)
    "bus wait" true
    (feq (Profile.get p ~cpu:1 Profile.Bus_wait) 3.0);
  Alcotest.(check bool)
    "attributed sums buckets" true
    (feq (Profile.attributed p ~cpu:0) 8.0);
  Profile.set_total p 20.0;
  Alcotest.(check bool)
    "idle remainder" true
    (feq (Profile.idle p ~cpu:0) 12.0);
  (* merge is element-wise and exact *)
  let q = Profile.create ~ncpus:2 () in
  Profile.account_as q ~cpu:0 Profile.Compute 1.5;
  Profile.observe q ~name:"lock/wait_us" 4.0;
  Profile.set_total q 5.0;
  Profile.merge ~into:p q;
  Alcotest.(check bool)
    "merged compute" true
    (feq (Profile.get p ~cpu:0 Profile.Compute) 6.5);
  Alcotest.(check bool) "merged total" true (feq (Profile.total p) 25.0);
  Alcotest.(check bool)
    "merged histogram" true
    (match Profile.histogram p ~name:"lock/wait_us" with
    | Some h -> Histogram.count h = 1
    | None -> false);
  (* mismatched CPU counts cannot merge *)
  Alcotest.(check bool)
    "ncpus mismatch rejected" true
    (try
       Profile.merge ~into:p (Profile.create ~ncpus:3 ());
       false
     with Invalid_argument _ -> true)

let test_profile_json () =
  let p = Profile.create ~ncpus:1 () in
  Profile.account_as p ~cpu:0 Profile.Bus_wait 2.0;
  Profile.observe p ~name:"bus/queue_depth" 3.0;
  Profile.set_total p 10.0;
  let j = Profile.to_json p in
  Alcotest.(check (option string))
    "schema" (Some "tlbshoot-profile-v1")
    (Option.bind (Json.member "schema" j) Json.get_string);
  Alcotest.(check (option (float 1e-9)))
    "bus_wait total" (Some 2.0)
    (Option.bind (Json.path [ "totals"; "bus_wait" ] j) Json.get_float);
  Alcotest.(check (option (float 1e-9)))
    "idle remainder" (Some 8.0)
    (Option.bind (Json.path [ "totals"; "idle" ] j) Json.get_float);
  Alcotest.(check bool)
    "histograms present" true
    (Json.path [ "histograms"; "bus/queue_depth" ] j <> None)

(* Attribution integrates with a real machine: run the tester with the
   profiler attached and check the books balance on every CPU. *)
let run_profiled ~children ~seed =
  let params = { Sim.Params.default with seed } in
  let machine = Vm.Machine.create ~params () in
  let profile = Profile.create ~ncpus:params.Sim.Params.ncpus () in
  Vm.Machine.attach_profile machine profile;
  let res = Workloads.Tlb_tester.run machine ~children () in
  Profile.set_total profile (Vm.Machine.now machine);
  (res, profile)

let prop_attribution_sums_to_total =
  QCheck.Test.make ~count:8 ~name:"attribution buckets + idle = total"
    QCheck.(pair (int_range 1 5) (int_range 0 1000))
    (fun (children, seed) ->
      let _, p = run_profiled ~children ~seed:(Int64.of_int seed) in
      let total = Profile.total p in
      total > 0.0
      && List.for_all
           (fun cpu ->
             let attributed = Profile.attributed p ~cpu in
             let idle = Profile.idle p ~cpu in
             (* every bucket non-negative, idle non-negative (the hooks
                never over-attribute), and the partition is exact *)
             List.for_all (fun c -> Profile.get p ~cpu c >= 0.0)
               Profile.categories
             && idle >= -1e-6
             && attributed <= total +. 1e-6
             && feq ~eps:1e-6 (attributed +. idle) total)
           (List.init (Profile.ncpus p) Fun.id))

let test_profile_integration () =
  let res, p = run_profiled ~children:3 ~seed:42L in
  Alcotest.(check bool) "consistent" true res.Workloads.Tlb_tester.consistent;
  (* a shootdown happened, so the contended categories saw time *)
  Alcotest.(check bool)
    "bus wait seen" true
    (Profile.category_total p Profile.Bus_wait > 0.0);
  Alcotest.(check bool)
    "ack wait seen" true
    (Profile.category_total p Profile.Ack_wait > 0.0);
  Alcotest.(check bool)
    "intr dispatch seen" true
    (Profile.category_total p Profile.Intr_dispatch > 0.0);
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (Printf.sprintf "histogram %s populated" name)
        true
        (match Profile.histogram p ~name with
        | Some h -> Histogram.count h > 0
        | None -> false))
    [
      "bus/queue_depth";
      "ipi/delivery_us";
      "lock/hold_us";
      "shoot/barrier_us";
      "shoot/initiator_us";
      "shoot/responder_us";
    ]

(* Attaching the profiler must not perturb the simulation: same seed,
   with and without, gives bit-identical results. *)
let test_profile_is_behaviour_neutral () =
  let bare =
    Workloads.Tlb_tester.run_fresh ~children:3 ~seed:7L ()
  in
  let profiled, _ = run_profiled ~children:3 ~seed:7L in
  Alcotest.(check bool)
    "identical elapsed" true
    (bare.Workloads.Tlb_tester.initiator_elapsed
    = profiled.Workloads.Tlb_tester.initiator_elapsed);
  Alcotest.(check int)
    "identical increments" bare.Workloads.Tlb_tester.increments_total
    profiled.Workloads.Tlb_tester.increments_total

(* ------------------------------------------------------------------ *)
(* Trace ring buffer *)

let test_trace_ring_cap () =
  let t = Trace.create ~cap:4 () in
  for i = 0 to 9 do
    Trace.emit t ~name:(Printf.sprintf "s%d" i) ~cpu:0 ~at:(float_of_int i) ()
  done;
  Alcotest.(check int) "retained" 4 (Trace.length t);
  Alcotest.(check int) "emitted" 10 (Trace.emitted t);
  Alcotest.(check int) "dropped" 6 (Trace.dropped t);
  Alcotest.(check (list string))
    "oldest dropped first"
    [ "s6"; "s7"; "s8"; "s9" ]
    (List.map (fun s -> s.Trace.name) (Trace.spans t));
  (* the JSON report carries the loss accounting *)
  let j = Trace.report_json t in
  Alcotest.(check (option string))
    "schema" (Some "tlbshoot-spans-v1")
    (Option.bind (Json.member "schema" j) Json.get_string);
  Alcotest.(check (option int))
    "report dropped" (Some 6)
    (Option.bind (Json.member "dropped" j) Json.get_int);
  Alcotest.check_raises "cap must be positive"
    (Invalid_argument "Trace.create: cap must be positive") (fun () ->
      ignore (Trace.create ~cap:0 ()))

(* ------------------------------------------------------------------ *)
(* Perfetto export *)

let test_perfetto_schema () =
  let tr = Trace.create () in
  let machine = Vm.Machine.create ~params:Sim.Params.default () in
  let profile =
    Profile.create ~ncpus:Sim.Params.default.Sim.Params.ncpus ()
  in
  Profile.set_tracer profile (Some tr);
  Vm.Machine.attach_profile machine profile;
  Vm.Machine.attach_trace machine tr;
  ignore (Workloads.Tlb_tester.run machine ~children:2 ());
  let doc =
    match Json.of_string (Perfetto.to_string tr) with
    | Ok j -> j
    | Error msg -> Alcotest.fail ("perfetto output is not JSON: " ^ msg)
  in
  let events =
    match Option.bind (Json.member "traceEvents" doc) Json.get_list with
    | Some l -> l
    | None -> Alcotest.fail "missing traceEvents"
  in
  Alcotest.(check bool) "has events" true (List.length events > 0);
  Alcotest.(check (option int))
    "loss accounting" (Some 0)
    (Option.bind (Json.path [ "otherData"; "dropped" ] doc) Json.get_int);
  (* every event: required fields, and ts monotone per (pid, tid) track *)
  let last = Hashtbl.create 8 in
  let seen_meta = ref false and seen_prof = ref false in
  List.iter
    (fun e ->
      let str k = Option.bind (Json.member k e) Json.get_string in
      let num k = Option.bind (Json.member k e) Json.get_float in
      let ph =
        match str "ph" with
        | Some ph -> ph
        | None -> Alcotest.fail "event without ph"
      in
      if ph = "M" then seen_meta := true
      else begin
        (match str "name" with
        | Some n ->
            if String.length n >= 5 && String.sub n 0 5 = "prof." then
              seen_prof := true
        | None -> Alcotest.fail "event without name");
        let ts =
          match num "ts" with
          | Some ts -> ts
          | None -> Alcotest.fail "event without ts"
        in
        let track = (num "pid", num "tid") in
        (match Hashtbl.find_opt last track with
        | Some prev ->
            Alcotest.(check bool) "monotonic ts per track" true (ts >= prev)
        | None -> ());
        Hashtbl.replace last track ts
      end)
    events;
  Alcotest.(check bool) "thread metadata present" true !seen_meta;
  Alcotest.(check bool) "attribution slices present" true !seen_prof

let () =
  Alcotest.run "profile"
    [
      ( "histogram",
        [
          Alcotest.test_case "bucket boundaries" `Quick test_histogram_buckets;
          Alcotest.test_case "summary stats" `Quick test_histogram_stats;
          Alcotest.test_case "merge associativity" `Quick
            test_histogram_merge_associative;
          Alcotest.test_case "quantiles vs Stats" `Quick
            test_histogram_quantiles_vs_stats;
        ] );
      ( "attribution",
        [
          Alcotest.test_case "bookkeeping" `Quick test_profile_accounting;
          Alcotest.test_case "json schema" `Quick test_profile_json;
          Alcotest.test_case "tester integration" `Quick
            test_profile_integration;
          Alcotest.test_case "behaviour neutral" `Quick
            test_profile_is_behaviour_neutral;
          QCheck_alcotest.to_alcotest prop_attribution_sums_to_total;
        ] );
      ( "trace",
        [ Alcotest.test_case "ring-buffer cap" `Quick test_trace_ring_cap ] );
      ( "perfetto",
        [ Alcotest.test_case "trace-event schema" `Quick test_perfetto_schema ]
      );
    ]
