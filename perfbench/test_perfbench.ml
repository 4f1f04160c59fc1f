(* Tests of the benchmark's own code. *)

open Perfbench

let floats = Alcotest.(float 1e-9)

let tail_of xs =
  match Stats.tail xs with
  | Some t -> Some (t.Stats.value, t.Stats.percentile, t.Stats.beyond)
  | None -> None

let tail_t = Alcotest.(option (triple (float 1e-9) (float 1e-9) int))
let range n = List.init n (fun i -> float_of_int (i + 1))

let test_tail () =
  (* p99 of 100 samples has one sample beyond it; p90 has ten *)
  Alcotest.check tail_t "100 samples -> p90" (Some (90.0, 90.0, 10)) (tail_of (range 100));
  Alcotest.check tail_t "1000 samples -> p99" (Some (990.0, 99.0, 10)) (tail_of (range 1000));
  Alcotest.check tail_t "99 samples -> p50" (Some (50.0, 50.0, 49)) (tail_of (range 99));
  Alcotest.check tail_t "20 samples -> p50" (Some (10.0, 50.0, 10)) (tail_of (range 20));
  Alcotest.check tail_t "19 samples: none qualifies" None (tail_of (range 19));
  (* ties at the top count as at, not beyond, the percentile *)
  Alcotest.check tail_t "all equal" None (tail_of (List.init 500 (fun _ -> 7.0)));
  Alcotest.check tail_t "top ties" (Some (1.0, 50.0, 12))
    (tail_of (List.init 88 (fun _ -> 1.0) @ List.init 12 (fun _ -> 2.0)));
  Alcotest.check tail_t "order does not matter" (tail_of (range 100))
    (tail_of (List.rev (range 100)))

let test_fit () =
  let line k = Stats.paper_intercept_us +. (Stats.paper_slope_us *. float_of_int k) in
  let on_line = List.init 12 (fun i -> (i + 1, line (i + 1))) in
  Alcotest.check floats "on the line" 0.0 (Stats.paper_fit_err_pct on_line);
  Alcotest.check floats "10% high everywhere" 10.0
    (Stats.paper_fit_err_pct (List.map (fun (k, v) -> (k, v *. 1.1)) on_line));
  Alcotest.check floats "per-k mean, then mean over k" 5.0
    (Stats.paper_fit_err_pct [ (1, 480.0); (1, 490.0); (2, 540.0); (2, 648.0) ]);
  Alcotest.check floats "k beyond the fit range is ignored" 0.0
    (Stats.paper_fit_err_pct ((13, 99999.0) :: on_line));
  Alcotest.(check bool) "no points" true (Float.is_nan (Stats.paper_fit_err_pct [ (15, 1.0) ]))

let raising e () =
  Suite.measure "raising" ~bus_focus:false (fun () -> raise e)

let fine () =
  Suite.measure "fine" ~bus_focus:false (fun () -> Suite.ran ~events:1 Sim_stats.empty None)

let test_failed_ratio () =
  let units =
    [
      fine ();
      raising
        (Workloads.Driver.Workload_fault { workload = "w"; what = "stale"; cpu = 1; now = 2.0 })
        ();
      raising (Vm.Machine.Wedged "no events") ();
      raising
        (Sim.Engine.Runaway { runaway_at = 1.0; runaway_events = 5; runaway_pending = [] })
        ();
      Suite.measure "violations" ~bus_focus:false (fun () ->
          Suite.ran ~events:1 Sim_stats.empty (Some "3 oracle violations"));
      fine ();
      fine ();
      fine ();
    ]
  in
  let failed = Runner.failures units in
  Alcotest.(check int) "failures" 4 (List.length failed);
  Alcotest.check floats "ratio" 0.5 (Runner.failed_ratio ~failed:(List.length failed) ~attempted:8);
  List.iter2
    (fun prefix line ->
      Alcotest.(check bool) (prefix ^ " named") true
        (String.length line >= String.length prefix
        && String.sub line 0 (String.length prefix) = prefix))
    [ "raising: workload_fault"; "raising: wedged"; "raising: runaway"; "violations: 3" ]
    failed

let test_grammar () =
  List.iter
    (fun n -> Alcotest.(check bool) n true (Grammar.valid_name n))
    [ "wall_s"; "shootdown.blame.ack_wait_us"; "0x"; "a-b.c_d" ];
  List.iter
    (fun n -> Alcotest.(check bool) n false (Grammar.valid_name n))
    [ ""; "_x"; ".x"; "a b"; "a/b"; String.make 65 'a' ];
  List.iter
    (fun u -> Alcotest.(check bool) u true (Grammar.valid_unit u))
    [ "s"; "1/s"; "%"; "words/event"; "count" ];
  List.iter
    (fun u -> Alcotest.(check bool) u false (Grammar.valid_unit u))
    [ ""; "m s"; String.make 17 's' ];
  let all = Runner.end_to_end @ Runner.per_layer in
  List.iter
    (fun (m : Runner.metric) ->
      Alcotest.(check bool) m.name true (Grammar.valid_name m.name && Grammar.valid_unit m.unit_))
    all;
  let names = List.map (fun (m : Runner.metric) -> m.name) all in
  Alcotest.(check int) "names unique" (List.length names)
    (List.length (List.sort_uniq compare names))

(* BENCHMARK.json, at the repo root, lists exactly the metrics the runner
   reports, with the same units and directions, and exactly its
   workloads. *)
let test_manifest () =
  let text = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all in
  let json =
    match Instrument.Json.of_string text with Ok j -> j | Error e -> Alcotest.fail e
  in
  let entries key =
    match Instrument.Json.member key json with
    | Some (Instrument.Json.List l) -> l
    | _ -> Alcotest.fail ("missing " ^ key)
  in
  let str key o =
    match Instrument.Json.member key o with
    | Some (Instrument.Json.Str s) -> s
    | _ -> Alcotest.fail ("missing " ^ key)
  in
  let listed key =
    List.map (fun o -> (str "name" o, str "unit" o, str "better" o)) (entries key)
  in
  let ours metrics =
    List.map
      (fun (m : Runner.metric) ->
        (m.name, m.unit_, match m.better with Runner.Lower -> "lower" | Runner.Higher -> "higher"))
      metrics
  in
  let t = Alcotest.(list (triple string string string)) in
  Alcotest.check t "end_to_end" (ours Runner.end_to_end) (listed "end_to_end");
  Alcotest.check t "per_layer" (ours Runner.per_layer) (listed "per_layer");
  Alcotest.(check (list string))
    "workloads"
    (List.map (fun (w : Suite.t) -> w.name) Suite.all)
    (List.map (str "name") (entries "workloads"))

(* A short rounds sweep: k = 1, 2 and 13 (past the bus knee). *)
let digest_of ~jobs ~seed =
  Sim.Domain_pool.map_trials ~jobs
    (fun f -> f ())
    (List.map (Suite.tester_trial ~traced:false ~seed) [ (1, 0); (2, 0); (13, 0) ])
  |> Runner.digest

let test_digests () =
  let a = digest_of ~jobs:1 ~seed:7 in
  Alcotest.(check string) "same seed, same digest" a (digest_of ~jobs:1 ~seed:7);
  Alcotest.(check string) "1 vs 2 domains" a (digest_of ~jobs:2 ~seed:7);
  Alcotest.(check bool) "another seed differs" true (a <> digest_of ~jobs:1 ~seed:8)

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "tail percentile rule" `Quick test_tail;
          Alcotest.test_case "paper fit error" `Quick test_fit;
        ] );
      ( "runner",
        [
          Alcotest.test_case "failed ratio" `Quick test_failed_ratio;
          Alcotest.test_case "metric grammar" `Quick test_grammar;
          Alcotest.test_case "BENCHMARK.json agrees" `Quick test_manifest;
          Alcotest.test_case "simulated digests" `Quick test_digests;
        ] );
    ]
