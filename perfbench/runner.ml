(* Runs one workload for a fixed host-time budget and reduces what it
   measured to the benchmark's metrics.

   Every iteration of a workload repeats the same inputs, so its
   simulated statistics, and their digest, must repeat exactly; host
   figures are medians over the iterations. *)

module Json = Instrument.Json

type better = Lower | Higher

type metric = { name : string; unit_ : string; better : better }

let m name unit_ better = { name; unit_; better }

(* With tracing off.  Host figures measure the simulator; the rest are
   properties of the modelled machine (README.md). *)
let end_to_end =
  [
    m "wall_s" "s" Lower;
    m "setup_s" "s" Lower;
    m "events_per_s" "1/s" Higher;
    m "minor_words_per_event" "words/event" Lower;
    m "peak_heap_mb" "MB" Lower;
    m "sim_runtime_us" "us" Lower;
    m "shootdown_p50_us" "us" Lower;
    m "shootdown_tail_us" "us" Lower;
    m "overhead_pct" "%" Lower;
    m "paper_fit_err_pct" "%" Lower;
  ]

let profile_shares =
  [ "compute"; "lock_spin"; "ack_wait"; "bus_wait"; "intr_dispatch"; "queue_drain"; "idle" ]

(* With tracing on: one figure per layer. *)
let per_layer =
  [
    m "machine.create_ms" "ms" Lower;
    m "engine.events" "count" Lower;
    m "engine.dispatch_ns" "ns" Lower;
    m "heap.push_pop_ns" "ns" Lower;
    m "engine.delay_resume_ns" "ns" Lower;
    m "sched.yield_ns" "ns" Lower;
    m "bus.transactions" "count" Lower;
    m "bus.wait_us" "us" Lower;
    m "bus.utilization" "ratio" Lower;
    m "bus.access_ns" "ns" Lower;
    m "tlb.lookups" "count" Lower;
    m "tlb.hit_ratio" "ratio" Higher;
    m "tlb.flushes" "count" Lower;
    m "tlb.invalidates" "count" Lower;
    m "tlb.gen_stale_drops" "count" Lower;
    m "tlb.lookup_hit_ns" "ns" Lower;
    m "tlb.lookup_miss_ns" "ns" Lower;
    m "tlb.insert_ns" "ns" Lower;
    m "mmu.reloads" "count" Lower;
    m "mmu.translate_ns" "ns" Lower;
    m "page_table.find_ns" "ns" Lower;
    m "page_table.set_clear_ns" "ns" Lower;
    m "shootdown.rounds" "count" Lower;
    m "shootdown.skipped_lazy" "count" Higher;
    m "shootdown.ipis_per_round" "count" Lower;
    m "shootdown.samples" "count" Higher;
    m "shootdown.tail_percentile" "%" Higher;
  ]
  @ List.map
      (fun p -> m ("shootdown.blame." ^ Instrument.Flight.phase_name p ^ "_us") "us" Lower)
      Instrument.Flight.phases
  @ [
      m "flight.unattributed" "count" Lower;
      m "gather.batch_ops" "count" Higher;
      m "gather.flushes" "count" Lower;
      m "gather.ops_per_flush" "ratio" Higher;
      m "elide.rounds_elided" "count" Higher;
      m "elide.gen_bumps" "count" Lower;
    ]
  @ List.map (fun c -> m ("profile." ^ c ^ "_share") "ratio" Lower) profile_shares
  @ [
      m "vm_fault.fault_ns" "ns" Lower;
      m "pool.efficiency" "ratio" Higher;
      m "oracle.checks" "count" Higher;
      m "oracle.violations" "count" Lower;
      m "explorer.schedules" "count" Lower;
      m "explorer.states" "count" Lower;
      m "explorer.revisit_ratio" "ratio" Higher;
      m "explorer.schedule_ms" "ms" Lower;
      m "scenario.run_ms" "ms" Lower;
      m "failed_ratio" "ratio" Lower;
      m "trace.overhead_s" "s" Lower;
    ]

type iteration = {
  traced : bool;
  wall_s : float;
  setup_s : float;
  heap_mb : float;  (** largest major heap seen as a unit ended *)
  units : Suite.unit_result list;
  digest : string;
}

let now = Unix.gettimeofday
let sum = List.fold_left ( +. ) 0.0
let sumf f l = sum (List.map f l)

let time f =
  let t0 = now () in
  f ();
  now () -. t0

let lookup name l = Option.value ~default:0.0 (List.assoc_opt name l)
let counter name (u : Suite.unit_result) = lookup name u.out.sim.Sim_stats.counters
let traced_counter name (u : Suite.unit_result) = lookup name u.out.sim.Sim_stats.traced
let explorer_stat name (u : Suite.unit_result) = lookup name u.out.explorer

let digest units =
  let b = Buffer.create 4096 in
  List.iter
    (fun (u : Suite.unit_result) ->
      Buffer.add_string b u.label;
      Buffer.add_string b (Option.value ~default:"ok" u.out.failure);
      Buffer.add_string b (string_of_int u.out.events);
      List.iter
        (fun (k, v) -> Buffer.add_string b (Printf.sprintf "%s=%h;" k v))
        u.out.explorer;
      Sim_stats.add_to_digest b u.out.sim)
    units;
  Digest.to_hex (Digest.string (Buffer.contents b))

let probe_boots = 5
let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1048576.0

(* One iteration: generate the inputs, run the units, then boot the
   units' machine shape a few more times so that set-up time has enough
   boots to take a median over (the explorer boots one machine per
   schedule where the benchmark cannot time it). *)
let run_iteration (w : Suite.t) ~seed ~traced n =
  Spans.in_trace n ("iteration:" ^ w.name) (fun () ->
      let t0 = now () in
      let units = w.units ~seed ~traced in
      let input_s = now () -. t0 in
      let results = Sim.Domain_pool.map_trials ~jobs:w.jobs (fun f -> f ()) units in
      let wall_s = now () -. t0 in
      let probed =
        List.init probe_boots (fun _ -> Spans.span "Machine.create" (fun () -> time w.boot))
      in
      let seen = List.concat_map (fun (u : Suite.unit_result) -> u.out.boots) results in
      let count =
        List.fold_left
          (fun a (u : Suite.unit_result) -> a + List.length u.out.boots + u.out.unseen_boots)
          0 results
      in
      ( {
          traced;
          wall_s;
          setup_s = input_s +. (float_of_int count *. Stats.median (seen @ probed));
          heap_mb =
            mb (List.fold_left (fun a (u : Suite.unit_result) -> max a u.heap_words) 0 results);
          units = results;
          digest = digest results;
        },
        seen @ probed ))

(* The Figure 2 calibration sweep, once per run after the timed loop. *)
let calibrate ~seed ~traced =
  Sim.Domain_pool.map_trials ~jobs:2 (fun f -> f ()) (Suite.calibration ~seed ~traced)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (metric * float) list;
  notes : string list;  (** printed before the result line *)
}

let failures units =
  List.filter_map
    (fun (u : Suite.unit_result) -> Option.map (fun f -> u.label ^ ": " ^ f) u.out.failure)
    units

(* Failed units over attempted ones: a unit fails on an exception
   ([Workload_fault], [Wedged], [Runaway], ...), an oracle violation, a
   tester that saw a stale write, or an exploration that did not end in
   an exhausted [Pass]. *)
let failed_ratio ~failed ~attempted = Stats.ratio (float_of_int failed) (float_of_int attempted)

let sims units = List.map (fun (u : Suite.unit_result) -> u.out.sim) units

(* Simulated figures of a set of machine runs: runtime as the geometric
   mean over runs (each run counts alike, not just the longest), the
   shootdown latency of every round pooled, and the section 8 overhead
   as the mean over runs of [Driver.overhead_percent]. *)
let sim_figures units ~fit =
  let machines = List.filter (fun s -> s.Sim_stats.busy_us > 0.0) (sims units) in
  let latencies = List.concat_map (fun s -> s.Sim_stats.latencies) machines in
  let tail = Stats.tail latencies in
  ( [
      ("sim_runtime_us", Stats.geomean (List.map (fun s -> s.Sim_stats.runtime_us) machines));
      ("shootdown_p50_us", Stats.median latencies);
      ("shootdown_tail_us", match tail with Some t -> t.Stats.value | None -> Float.nan);
      ( "overhead_pct",
        Stats.mean
          (List.map (fun s -> 100.0 *. s.Sim_stats.overhead_us /. s.Sim_stats.busy_us) machines) );
      ("paper_fit_err_pct", Stats.paper_fit_err_pct fit);
    ],
    tail,
    List.length latencies )

let events (it : iteration) =
  float_of_int (List.fold_left (fun a (u : Suite.unit_result) -> a + u.out.events) 0 it.units)

let host_figures (w : Suite.t) iters =
  let med f = Stats.median (List.map f iters) in
  [
    ("wall_s", med (fun it -> it.wall_s));
    ("peak_heap_mb", med (fun it -> it.heap_mb));
    ("setup_s", med (fun it -> it.setup_s));
    ("events_per_s", med (fun it -> events it /. it.wall_s));
    ( "minor_words_per_event",
      med (fun it -> sumf (fun (u : Suite.unit_result) -> u.minor_words) it.units /. events it) );
    ( "pool.efficiency",
      med (fun it ->
          sumf (fun (u : Suite.unit_result) -> u.host_s) it.units
          /. (float_of_int w.jobs *. it.wall_s)) );
  ]

(* Per-layer figures: simulated counters summed over [machines], explorer
   statistics and dispatched events from the workload's own iteration. *)
let layer_figures (it : iteration) ~machines ~boots ~tail ~samples =
  let total f = sumf f machines in
  let c name = total (counter name) in
  let bus = List.filter (fun (u : Suite.unit_result) -> u.bus_focus) machines in
  let bus_c name = sumf (counter name) bus in
  let lookups = c "tlb.hits" +. c "tlb.misses" in
  let rounds = c "shootdown.rounds" in
  let span = total (traced_counter "profile.span_us") in
  let explored name = sumf (explorer_stat name) it.units in
  let states = explored "explorer.states" and revisits = explored "explorer.revisits" in
  [
    ("machine.create_ms", 1000.0 *. Stats.median boots);
    ("engine.events", events it);
    ("bus.transactions", bus_c "bus.transactions");
    ("bus.wait_us", bus_c "bus.wait_us");
    ("bus.utilization", Stats.ratio (bus_c "bus.busy_us") (bus_c "sim.runtime_us"));
    ("tlb.lookups", lookups);
    ("tlb.hit_ratio", Stats.ratio (c "tlb.hits") lookups);
    ("tlb.flushes", c "tlb.flushes");
    ("tlb.invalidates", c "tlb.invalidates");
    ("tlb.gen_stale_drops", c "tlb.gen_stale_drops");
    ("mmu.reloads", c "mmu.reloads");
    ("shootdown.rounds", rounds);
    ("shootdown.skipped_lazy", c "shootdown.skipped_lazy");
    ("shootdown.ipis_per_round", Stats.ratio (c "shootdown.ipis") rounds);
    ("shootdown.samples", float_of_int samples);
    ("shootdown.tail_percentile", match tail with Some t -> t.Stats.percentile | None -> 0.0);
    ("flight.unattributed", total (traced_counter "flight.unattributed"));
    ("gather.batch_ops", c "gather.batch_ops");
    ("gather.flushes", c "gather.flushes");
    ("gather.ops_per_flush", Stats.ratio (c "gather.batch_ops") (c "gather.flushes"));
    ("elide.rounds_elided", c "elide.rounds_elided");
    ("elide.gen_bumps", c "elide.gen_bumps");
    ("oracle.checks", c "oracle.checks");
    ("oracle.violations", c "oracle.violations");
    ("explorer.schedules", explored "explorer.schedules");
    ("explorer.states", states);
    ("explorer.revisit_ratio", Stats.ratio revisits (revisits +. states));
  ]
  @ List.map
      (fun p ->
        let key = "shootdown.blame." ^ Instrument.Flight.phase_name p ^ "_us" in
        (key, total (traced_counter key)))
      Instrument.Flight.phases
  @ List.map
      (fun cat ->
        ( "profile." ^ cat ^ "_share",
          Stats.ratio (total (traced_counter ("profile." ^ cat ^ "_us"))) span ))
      profile_shares

let write_spans file =
  let oc = open_out file in
  output_string oc (Json.to_string (Spans.to_json (Spans.all ())));
  close_out oc

(* Run [w] for [seconds] of host time.  Untraced, every iteration counts
   towards the end-to-end figures; traced, iterations alternate between
   untraced and traced (flight recorder, profiler and spans on), and the
   difference of their median walls is the tracing overhead. *)
let run (w : Suite.t) ~seed ~seconds ~trace ~spans_file =
  let deadline = now () +. seconds in
  let iters = ref [] and boots = ref [] in
  let n = ref 0 in
  (* At least two iterations, so that their digests can be compared; no
     new one that would end more than half an iteration past the budget. *)
  let typical () = Stats.median (List.map (fun (it : iteration) -> it.wall_s) !iters) in
  while !n < 2 || now () +. (0.5 *. typical ()) < deadline do
    let traced = trace && !n mod 2 = 1 in
    Atomic.set Spans.enabled traced;
    let it, p = run_iteration w ~seed ~traced !n in
    Atomic.set Spans.enabled false;
    iters := it :: !iters;
    if traced then boots := p @ !boots;
    incr n
  done;
  let iters = List.rev !iters in
  let plain = List.filter (fun it -> not it.traced) iters in
  let traced_iters = List.filter (fun it -> it.traced) iters in
  let first = List.hd iters in
  let own_fit = List.concat_map (fun s -> s.Sim_stats.fit) (sims first.units) in
  let calib =
    if w.own_sim && own_fit <> [] then [] else calibrate ~seed ~traced:trace
  in
  let fit =
    if own_fit <> [] then own_fit else List.concat_map (fun s -> s.Sim_stats.fit) (sims calib)
  in
  let sim_units it = if w.own_sim then it.units else calib in
  let digests = List.sort_uniq compare (List.map (fun it -> it.digest) iters) in
  let failed_units = List.concat_map (fun it -> failures it.units) iters @ failures calib in
  let attempted =
    List.fold_left (fun a it -> a + List.length it.units) 0 iters + List.length calib
  in
  let failed = List.length failed_units in
  let sim, tail, samples = sim_figures (sim_units first) ~fit in
  let host = host_figures w plain in
  let values =
    if not trace then sim @ host
    else begin
      Atomic.set Spans.enabled true;
      let micro = Micro.run () in
      Atomic.set Spans.enabled false;
      let observed = List.hd traced_iters in
      let wall l = Stats.median (List.map (fun it -> it.wall_s) l) in
      host @ micro
      @ layer_figures observed ~machines:(sim_units observed) ~boots:!boots ~tail ~samples
      @ [
          ("failed_ratio", failed_ratio ~failed ~attempted);
          ("trace.overhead_s", wall traced_iters -. wall plain);
        ]
    end
  in
  let wanted = if trace then per_layer else end_to_end in
  let metrics = List.map (fun x -> (x, List.assoc x.name values)) wanted in
  Option.iter write_spans spans_file;
  let deterministic = List.length digests = 1 in
  let finite = List.for_all (fun (_, v) -> Float.is_finite v) metrics in
  let notes =
    [
      Printf.sprintf "workload %s seed %d: %d iterations (%d traced) of %d units%s" w.name seed
        (List.length iters) (List.length traced_iters) (List.length first.units)
        (if calib = [] then "" else Printf.sprintf ", calibration sweep of %d trials" (List.length calib));
      Printf.sprintf "iteration wall_s: %s"
        (String.concat " " (List.map (fun it -> Printf.sprintf "%.3f%s" it.wall_s (if it.traced then "t" else "")) iters));
      Printf.sprintf "sim digest %s %d %s%s" w.name seed (String.concat "," digests)
        (if calib = [] then "" else " calibration " ^ digest calib);
      (match tail with
      | Some t ->
          Printf.sprintf "shootdown tail: p%g of %d samples (%d beyond)" t.Stats.percentile
            t.Stats.samples t.Stats.beyond
      | None -> Printf.sprintf "shootdown tail: undefined over %d samples" samples);
    ]
    @ (if deterministic then []
       else [ "ERROR: simulated statistics differ between iterations of one seed" ])
    @ (if finite then [] else [ "ERROR: a metric is not a finite number" ])
    @ List.map (fun f -> "FAILED " ^ f) failed_units
  in
  { correct = deterministic && finite && failed = 0; attempted; failed; metrics; notes }

let to_json r =
  Json.Obj
    [
      ("correct", Json.Bool r.correct);
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int r.failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun (x, v) ->
               (x.name, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str x.unit_) ]))
             r.metrics) );
    ]
