(* The four benchmark workloads.  Each is closed-loop with a fixed input
   size: one iteration is a fixed list of units of work (a tester trial,
   an application run or an exhaustive exploration), every unit boots
   its own machine, and the machines' [Params.seed]s are derived from the
   benchmark's seed.  Why each workload is here is in README.md. *)

module Machine = Vm.Machine
module Oracle = Core.Consistency_oracle
module Flight = Instrument.Flight
module Profile = Instrument.Profile
module Explorer = Check.Explorer
module Scenario = Check.Scenario

(* What one unit of work reports. *)
type outcome = {
  sim : Sim_stats.t;
  boots : float list;  (** host seconds of each [Machine.create] timed here *)
  unseen_boots : int;  (** machines booted where the benchmark cannot time it *)
  events : int;  (** simulated events dispatched *)
  explorer : (string * float) list;
  failure : string option;
}

type unit_result = {
  label : string;
  bus_focus : bool;  (** counts towards the bus metrics *)
  host_s : float;
  minor_words : float;  (** allocated by the domain that ran the unit *)
  heap_words : int;  (** major heap size when the unit ended *)
  out : outcome;
}

type t = {
  name : string;
  jobs : int;  (** [Sim.Domain_pool] domains the units run on *)
  units : seed:int -> traced:bool -> (unit -> unit_result) list;
  boot : unit -> unit;  (** boots one machine of the shape the units boot *)
  own_sim : bool;
      (** the units' machines give the simulated figures; if not, the
          calibration sweep's do *)
}

let now = Unix.gettimeofday

(* splitmix64: each machine's seed is a pure function of the benchmark
   seed and the unit's coordinates. *)
let mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let derive seed parts =
  List.fold_left
    (fun acc p -> mix (Int64.add (Int64.mul acc 0x9E3779B97F4A7C15L) (Int64.of_int p)))
    (mix (Int64.of_int seed))
    parts

let boot params () = ignore (Machine.create ~params ())
let seeded base ~seed parts = { base with Sim.Params.seed = derive seed parts }

(* Run one unit: time it, count what its domain allocated, and fold any
   exception into a failure so the iteration carries on. *)
let measure label ~bus_focus f =
  let t0 = now () in
  let w0 = Gc.minor_words () in
  let out =
    Spans.span ("unit:" ^ label) (fun () ->
        try f ()
        with e ->
          {
            sim = Sim_stats.empty;
            boots = [];
            unseen_boots = 0;
            events = 0;
            explorer = [];
            failure = Some (Sim_stats.failure_of_exn e);
          })
  in
  let host_s = now () -. t0 in
  let minor_words = Gc.minor_words () -. w0 in
  { label; bus_focus; host_s; minor_words; heap_words = (Gc.quick_stat ()).Gc.heap_words; out }

let ran ?(boots = []) ?(unseen_boots = 0) ?(explorer = []) ~events sim failure =
  { sim; boots; unseen_boots; events; explorer; failure }

let observers ~traced (m : Machine.t) =
  if not traced then (None, None)
  else begin
    let ncpus = m.Machine.params.Sim.Params.ncpus in
    let flight = Flight.create ~ncpus () in
    let profile = Profile.create ~ncpus () in
    Machine.attach_flight m flight;
    Machine.attach_profile m profile;
    (Some flight, Some profile)
  end

let oracle_failure oracle =
  let n = Oracle.violation_count oracle in
  if n = 0 then None else Some (Printf.sprintf "%d oracle violations" n)

let first_some = List.find_map Fun.id

(* --- rounds: Figure 2 traffic ------------------------------------------- *)

let churn_rounds = 12
let max_k = 15

(* One tester trial in churn mode: [churn_rounds] unmaps plus the final
   reprotect, each a k-responder shootdown round. *)
let tester_trial ~traced ~seed (k, r) () =
  measure (Printf.sprintf "k%d.r%d" k r) ~bus_focus:(k >= 12) (fun () ->
      let params = seeded Sim.Params.default ~seed [ 1; k; r ] in
      let t0 = now () in
      let m = Spans.span "Machine.create" (fun () -> Machine.create ~params ()) in
      let boot = now () -. t0 in
      let oracle = Oracle.attach m.Machine.ctx in
      let flight, profile = observers ~traced m in
      let res =
        Spans.span "Tlb_tester.run" (fun () ->
            Workloads.Tlb_tester.run ~churn_rounds m ~children:k ())
      in
      let fit =
        Instrument.Summary.user_initiators m.Machine.xpr
        |> List.filter (fun i -> i.Instrument.Summary.processors = k)
        |> List.map (fun i -> (k, i.Instrument.Summary.elapsed))
      in
      let sim = Sim_stats.of_machine ~oracle ?flight ?profile ~fit m in
      let failure =
        first_some
          [
            (if res.Workloads.Tlb_tester.consistent then None
             else Some "tester saw a write through a stale entry");
            (if res.Workloads.Tlb_tester.processors = k then None
             else Some "final shootdown missed processors");
            (if List.length fit = churn_rounds + 1 then None
             else Some "wrong number of k-processor rounds");
            oracle_failure oracle;
          ]
      in
      ran ~boots:[ boot ] ~events:(Sim.Engine.events_processed m.Machine.eng) sim failure)

let trials ~reps =
  List.concat_map (fun k -> List.init reps (fun r -> (k, r))) (List.init max_k succ)

let rounds_reps = 4

let rounds =
  {
    name = "rounds";
    jobs = 2;
    units =
      (fun ~seed ~traced ->
        List.map (tester_trial ~traced ~seed) (trials ~reps:rounds_reps));
    boot = boot Sim.Params.default;
    own_sim = true;
  }

(* --- apps and batched: the paper's applications ---------------------- *)

(* One application run through [Workloads.Driver]: the boot is timed from
   the workload's [attach] hook, which runs right after [Machine.create]. *)
let app_unit ~traced ~params label run () =
  measure label ~bus_focus:true (fun () ->
      let machine = ref None and oracle = ref None and obs = ref (None, None) in
      let t0 = now () in
      let boot = ref 0.0 in
      let attach m =
        boot := now () -. t0;
        Spans.record "Machine.create" ~start:(t0 -. Spans.origin)
          ~stop:(t0 +. !boot -. Spans.origin);
        machine := Some m;
        oracle := Some (Oracle.attach m.Machine.ctx);
        obs := observers ~traced m
      in
      let report = Spans.span "Driver.run" (fun () -> run ~params ~attach) in
      match (!machine, !oracle) with
      | Some m, Some o ->
          let flight, profile = !obs in
          let sim = Sim_stats.of_machine ~report ~oracle:o ?flight ?profile m in
          ran ~boots:[ !boot ] ~events:(Sim.Engine.events_processed m.Machine.eng) sim
            (oracle_failure o)
      | _ -> ran ~events:0 Sim_stats.empty (Some "attach hook never ran"))

(* Ten percent of each application's default size, the smoke-run scale;
   Camelot cannot shrink below it.  Mach, Parthenon and Agora run on four
   seeds each.  Camelot is half the host time and its cost swings with
   the seed (4.5 to 8.0 M events per run over five seeds), so, like
   batched Mach below, it runs on [Params.production]'s own seed, the one
   the smoke run uses. *)
let app_scale = 10

let apps =
  let module A = Experiments.Apps in
  let seeded_app label tag run =
    List.init 4 (fun i ->
        fun ~seed ~traced ->
          app_unit ~traced
            ~params:(seeded Sim.Params.production ~seed [ tag; i ])
            (Printf.sprintf "%s.%d" label i) run)
  in
  let camelot ~seed:_ ~traced =
    app_unit ~traced ~params:Sim.Params.production "camelot" (fun ~params ~attach ->
        Workloads.Camelot.run ~params ~attach ~cfg:(A.scaled_camelot app_scale) ())
  in
  let all =
    List.concat
      [
        seeded_app "mach" 2 (fun ~params ~attach ->
            Workloads.Mach_build.run ~params ~attach ~cfg:(A.scaled_mach app_scale) ());
        seeded_app "parthenon" 3 (fun ~params ~attach ->
            Workloads.Parthenon.run ~params ~attach ~cfg:(A.scaled_parthenon app_scale) ());
        seeded_app "agora" 4 (fun ~params ~attach ->
            Workloads.Agora.run ~params ~attach ~cfg:(A.scaled_agora app_scale) ());
        [ camelot ];
      ]
  in
  {
    name = "apps";
    jobs = 1;
    units = (fun ~seed ~traced -> List.map (fun u -> u ~seed ~traced) all);
    boot = boot Sim.Params.production;
    own_sim = true;
  }

(* Batched Mach is oracle-RED at scale >= 60 (ROADMAP item 1); its scale
   is chosen for run length, and a violation counts as a failure.  Its
   cost is chaotic in the seed (0.2-4.5 s of host time over eight seeds),
   so it runs on [Params.production]'s own seed, the one [tlbshoot batch]
   uses, where the pathology shows: 2.4x the unbatched simulated runtime.
   The churn server runs at full size on two seeds, with batching alone,
   whose gather flushes give most of the round population, and with
   elision on top, whose generation bumps replace those rounds. *)
let batched_mach_scale = 10
let batched_churn_scale = 100

let batched =
  let module A = Experiments.Apps in
  let batching p = { p with Sim.Params.batch_shootdowns = true } in
  let churn ~params ~attach =
    Workloads.Mmap_churn.run ~params ~attach ~cfg:(A.scaled_churn batched_churn_scale) ()
  in
  {
    name = "batched";
    jobs = 1;
    units =
      (fun ~seed ~traced ->
        app_unit ~traced ~params:(batching Sim.Params.production) "mach-batched"
          (fun ~params ~attach ->
            Workloads.Mach_build.run ~params ~attach ~cfg:(A.scaled_mach batched_mach_scale) ())
        :: List.concat_map
             (fun i ->
               let p = batching (seeded Sim.Params.production ~seed [ 6; i ]) in
               [
                 app_unit ~traced ~params:p (Printf.sprintf "churn-batched.%d" i) churn;
                 app_unit ~traced
                   ~params:{ p with elide_reuse_flushes = true }
                   (Printf.sprintf "churn-batched-elided.%d" i)
                   churn;
               ])
             [ 0; 1 ]);
    boot = boot Sim.Params.production;
    own_sim = true;
  }

(* --- modelcheck: the model checker ------------------------------------- *)

(* [elide] is the cheapest scenario whose 2-CPU schedule space the
   explorer exhausts under its default cap and depth: 254 schedules.
   [escalate] (354) and [batch] (536) exhaust too, but each would more
   than double the run.  Exhaustive exploration does not depend on the seed. *)
let exhaustive = "elide"

let explore_unit key () =
  measure ("explore:" ^ key) ~bus_focus:true (fun () ->
      let spec =
        match Scenario.find key with Some s -> s | None -> invalid_arg ("no scenario " ^ key)
      in
      let e0 = Sim.Engine.total_events () in
      let r = Spans.span "Explorer.explore" (fun () -> Explorer.explore ~cpus:2 spec) in
      let s = r.Explorer.stats in
      let failure =
        match r.Explorer.verdict with
        | Scenario.Violation { kind; detail } -> Some (kind ^ ": " ^ detail)
        | Scenario.Pass -> if s.Explorer.capped then Some "capped before exhaustion" else None
      in
      let i = float_of_int in
      let explorer =
        [
          ("explorer.schedules", i s.Explorer.schedules);
          ("explorer.states", i s.Explorer.states);
          ("explorer.revisits", i s.Explorer.revisits);
        ]
      in
      ran ~unseen_boots:s.Explorer.schedules ~explorer
        ~events:(Sim.Engine.total_events () - e0)
        Sim_stats.empty failure)

(* The machine [Scenario] boots for every schedule: its jitter-free
   2-CPU configuration. *)
let quiet_params =
  {
    Sim.Params.default with
    ncpus = 2;
    cost_jitter = 0.0;
    store_traffic_rate = 0.0;
    spin_miss_rate = 0.0;
  }

let modelcheck =
  {
    name = "modelcheck";
    jobs = 1;
    units = (fun ~seed:_ ~traced:_ -> [ explore_unit exhaustive ]);
    boot = boot quiet_params;
    own_sim = false;
  }

(* --- the Figure 2 calibration sweep ------------------------------------ *)

(* The rounds trials for k <= 12: the only reference result in the repo
   is Figure 2, so every run measures the model against it.  A workload
   whose units give no simulated figures of their own (modelcheck)
   reports this sweep's. *)
let calibration ~seed ~traced =
  trials ~reps:rounds_reps
  |> List.filter (fun (k, _) -> k <= Stats.fit_limit)
  |> List.map (tester_trial ~traced ~seed)

let all = [ rounds; apps; batched; modelcheck ]
let find name = List.find_opt (fun w -> w.name = name) all
