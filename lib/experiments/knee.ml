(* Knee decomposition: *why* the Figure 2 curve bends past ~12 CPUs.

   The figure2 sweep is re-run with the contention profiler attached to
   every machine.  Each (k children, run r) trial uses figure2's exact
   seed formula, so a point here corresponds one-to-one with a figure2
   point; the profiler adds zero simulated cost, so elapsed times match
   figure2's byte for byte.  Per point (= per CPU count involved in the
   shootdown: the k children plus the initiator) the merged profiles are
   reduced to the shares of attributed CPU time spent waiting on the bus,
   spinning on locks and waiting at the ack barrier, plus the mean bus
   queue depth seen at enqueue.

   The paper's 430 us + 55 us/processor trend holds while these shares
   stay flat; the knee is where the bus-wait share turns superlinear —
   the shared bus saturating under the IPI/ack and invalidation traffic
   of many simultaneous responders (paper section 5.2). *)

module Json = Instrument.Json
module Profile = Instrument.Profile
module Tablefmt = Instrument.Tablefmt

type point = {
  cpus : int; (* processors involved: k children + 1 initiator *)
  mean_elapsed : float; (* mean initiator elapsed, as figure2 *)
  bus_wait_frac : float; (* of attributed (non-idle) CPU time *)
  lock_spin_frac : float;
  ack_wait_frac : float;
  mean_queue_depth : float; (* bus queue depth seen at enqueue *)
  profile : Profile.t; (* merged across the point's runs *)
}

type t = {
  points : point list;
  runs_per_point : int;
  all_consistent : bool;
}

(* Each (k children, run r) trial is figure2's Sweep.tester with the
   profiler attached: same seed formula, fresh machine, fresh profiler;
   the profilers of a point are merged in run order. *)
let make_point ~cpus trials =
  let merged = Sweep.merge_observers Profile.merge trials in
  {
    cpus;
    mean_elapsed = Sweep.mean_elapsed trials;
    bus_wait_frac = Sweep.share merged Profile.Bus_wait;
    lock_spin_frac = Sweep.share merged Profile.Lock_spin;
    ack_wait_frac = Sweep.share merged Profile.Ack_wait;
    mean_queue_depth = Sweep.mean_queue_depth merged;
    profile = merged;
  }

let run ?(jobs = 1) ?(max_procs = 15) ?(runs_per_point = 10)
    ?(params = Sim.Params.default) () =
  let per_point =
    Sweep.tester_sweep ~jobs ~max_procs ~runs:runs_per_point ~params
      ~attach:Sweep.profiler ()
  in
  {
    points =
      List.mapi (fun i trials -> make_point ~cpus:(i + 2) trials) per_point;
    runs_per_point;
    all_consistent = Sweep.all_consistent per_point;
  }

let find_point t ~cpus = List.find_opt (fun p -> p.cpus = cpus) t.points

(* The headline invariant the CI gate checks: the bus-wait share of CPU
   time at [hi] CPUs exceeds the share at [lo] CPUs — contention grows
   with the processor count, and superlinearly so near the knee. *)
let knee_holds ?(lo = 4) ?(hi = 16) t =
  match (find_point t ~cpus:lo, find_point t ~cpus:hi) with
  | Some a, Some b -> b.bus_wait_frac > a.bus_wait_frac
  | _ -> false

let point_json p =
  Json.Obj
    [
      ("cpus", Json.Int p.cpus);
      ("mean_elapsed_us", Json.Float p.mean_elapsed);
      ("bus_wait_frac", Json.Float p.bus_wait_frac);
      ("lock_spin_frac", Json.Float p.lock_spin_frac);
      ("ack_wait_frac", Json.Float p.ack_wait_frac);
      ("mean_queue_depth", Json.Float p.mean_queue_depth);
    ]

let to_json ?(lo = 4) ?(hi = 16) t =
  let knee =
    match (find_point t ~cpus:lo, find_point t ~cpus:hi) with
    | Some a, Some b ->
        Json.Obj
          [
            ("lo_cpus", Json.Int lo);
            ("hi_cpus", Json.Int hi);
            ("bus_wait_frac_lo", Json.Float a.bus_wait_frac);
            ("bus_wait_frac_hi", Json.Float b.bus_wait_frac);
            ("holds", Json.Bool (knee_holds ~lo ~hi t));
          ]
    | _ -> Json.Null
  in
  Json.Obj
    [
      ("schema", Json.Str "tlbshoot-knee-v1");
      ("runs_per_point", Json.Int t.runs_per_point);
      ("all_consistent", Json.Bool t.all_consistent);
      ("points", Json.List (List.map point_json t.points));
      ("knee", knee);
    ]

let render t =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    "Knee decomposition: where the Figure 2 trend's time goes\n\
     (shares of attributed CPU time, whole run, merged over runs)\n\n";
  let table =
    Tablefmt.create ~title:""
      ~headers:
        [ "cpus"; "mean (us)"; "bus-wait"; "lock-spin"; "ack-wait"; "queue" ]
  in
  List.iter
    (fun p ->
      Tablefmt.add_row table
        [
          string_of_int p.cpus;
          Printf.sprintf "%.0f" p.mean_elapsed;
          Printf.sprintf "%.1f%%" (100.0 *. p.bus_wait_frac);
          Printf.sprintf "%.1f%%" (100.0 *. p.lock_spin_frac);
          Printf.sprintf "%.1f%%" (100.0 *. p.ack_wait_frac);
          Printf.sprintf "%.2f" p.mean_queue_depth;
        ])
    t.points;
  Buffer.add_string buf (Tablefmt.render table);
  (* bar plot of the bus-wait share: the knee made visible *)
  Sweep.bar_plot buf ~title:"\nbus-wait share of attributed CPU time:\n"
    (List.map (fun p -> (p.cpus, p.bus_wait_frac)) t.points);
  Buffer.add_string buf
    (Printf.sprintf
       "\nknee invariant (bus-wait share at 16 cpus > at 4 cpus): %b\n\
        consistency maintained in every run: %b\n"
       (knee_holds t) t.all_consistent);
  Buffer.contents buf
