(* The trial grid and the tester trial every tester sweep shares.

   The Figure 2 method is the section 5.1 tester at k = 1..15 children,
   several seeded runs per point and a fresh machine for each run.
   [per_point] is the grid: it fans every (point, run) pair of a sweep
   through Sim.Domain_pool and hands back each point's results in input
   order.  [tester] is the trial: a fresh machine booted from the one
   figure2 seed formula, an optional observer attached, one tester run.
   Figure2, Knee, Tail and Scale1024 are reductions over the two;
   Scaling, Resilience and Ablations use the grid with trials of their
   own.  The determinism contract is Domain_pool's: a trial depends only
   on its (point, run), so a sweep is bit-for-bit identical at any job
   count (docs/PARALLELISM.md). *)

module Profile = Instrument.Profile
module Histogram = Instrument.Histogram
module Stats = Instrument.Stats

(* [f point run] for every run 0..runs-1 of every point; the result is
   one list per point, runs in order. *)
let per_point ~jobs ~runs f points =
  if runs < 1 then invalid_arg "Sweep.per_point: runs must be >= 1";
  let results =
    Sim.Domain_pool.map_trials ~jobs
      (fun (p, r) -> f p r)
      (List.concat_map (fun p -> List.init runs (fun r -> (p, r))) points)
    |> Array.of_list
  in
  List.mapi
    (fun i _ -> List.init runs (fun r -> results.((i * runs) + r)))
    points

type 'o trial = {
  elapsed : float; (* initiator elapsed of the tester's final shootdown, us *)
  consistent : bool;
  processors : int; (* processors that shootdown involved *)
  observer : 'o;
}

(* The one seed formula: run [r] of the point keyed [key]. *)
let seed ~key r = Int64.of_int ((1000 * key) + r + 1)

(* [attach machine] runs before the tester and returns what collects the
   observer once the tester is done. *)
let no_observer _machine () = ()

(* One trial: a fresh machine from [params] with the seed of run [r] of
   the point keyed [key] (default: the child count), [attach], then the
   tester with [children] children — in churn mode when [churn_rounds]
   is given. *)
let tester ?churn_rounds ?key ~params ~attach ~children r =
  let key = Option.value key ~default:children in
  let params = { params with Sim.Params.seed = seed ~key r } in
  let machine = Vm.Machine.create ~params () in
  let collect = attach machine in
  let res = Workloads.Tlb_tester.run ?churn_rounds machine ~children () in
  {
    elapsed = res.Workloads.Tlb_tester.initiator_elapsed;
    consistent = res.Workloads.Tlb_tester.consistent;
    processors = res.Workloads.Tlb_tester.processors;
    observer = collect ();
  }

(* The figure2 grid: k = 1..max_procs children, [runs] trials each. *)
let tester_sweep ?churn_rounds ~jobs ~max_procs ~runs ~params ~attach () =
  per_point ~jobs ~runs
    (fun k r -> tester ?churn_rounds ~params ~attach ~children:k r)
    (List.init max_procs succ)

let mean_elapsed trials = Stats.mean (List.map (fun t -> t.elapsed) trials)

let all_consistent per_point =
  List.for_all (List.for_all (fun t -> t.consistent)) per_point

(* Ordered merge of a point's observers: run 0 first, then 1, ... —
   deterministic at any job count, like Metrics.merge.  Merges into run
   0's observer and returns it. *)
let merge_observers merge = function
  | [] -> invalid_arg "Sweep.merge_observers: empty point"
  | first :: rest ->
      List.iter (fun t -> merge ~into:first.observer t.observer) rest;
      first.observer

let frac num den = if den > 0.0 then num /. den else 0.0

(* The contention profiler as a trial observer, its total set to the
   machine's final clock. *)
let profiler machine =
  let profile =
    Profile.create ~ncpus:machine.Vm.Machine.params.Sim.Params.ncpus ()
  in
  Vm.Machine.attach_profile machine profile;
  fun () ->
    Profile.set_total profile (Vm.Machine.now machine);
    profile

(* Share of a profile's attributed (non-idle) CPU time in [category]. *)
let share profile category =
  frac
    (Profile.category_total profile category)
    (Profile.attributed_total profile)

(* Mean bus queue depth seen at enqueue. *)
let mean_queue_depth profile =
  match Profile.histogram profile ~name:"bus/queue_depth" with
  | Some h when Histogram.count h > 0 -> Histogram.mean h
  | Some _ | None -> 0.0

(* [title], then one "cpus ### share%" bar per row, scaled to the
   largest share. *)
let bar_plot buf ~title rows =
  let width = 48 in
  let maxv = List.fold_left (fun m (_, v) -> Float.max m v) 1e-9 rows in
  Buffer.add_string buf title;
  List.iter
    (fun (cpus, v) ->
      let bar = int_of_float (v /. maxv *. float_of_int width) in
      Buffer.add_string buf
        (Printf.sprintf "%2d %s %5.1f%%\n" cpus (String.make bar '#')
           (100.0 *. v)))
    rows
