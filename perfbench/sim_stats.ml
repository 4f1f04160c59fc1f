(* Simulated statistics of one machine run, read after the run through
   the layers' public accessors.  They are exact: the same seed gives the
   same numbers, bit for bit, at any domain count. *)

module Machine = Vm.Machine
module Summary = Instrument.Summary
module Flight = Instrument.Flight
module Profile = Instrument.Profile

type t = {
  counters : (string * float) list;
      (** simulated counters, the input of the run's digest *)
  traced : (string * float) list;
      (** counters read from the flight recorder and profiler, which only
          traced iterations attach *)
  latencies : float list;  (** initiator latency of every round, us *)
  fit : (int * float) list;  (** (k, latency) of Figure 2 tester rounds *)
  runtime_us : float;
  busy_us : float;
  overhead_us : float;  (** numerator of [Driver.overhead_percent] *)
}

let empty =
  {
    counters = [];
    traced = [];
    latencies = [];
    fit = [];
    runtime_us = 0.0;
    busy_us = 0.0;
    overhead_us = 0.0;
  }

(* The report [Workloads.Driver.run] builds, for machines driven some
   other way (the tester, model-checker schedules). *)
let report_of_machine (m : Machine.t) =
  let ctx = m.Machine.ctx in
  {
    Workloads.Driver.name = "";
    runtime = Machine.now m;
    busy_time = Machine.total_busy_time m;
    kernel_initiators = Summary.kernel_initiators m.Machine.xpr;
    user_initiators = Summary.user_initiators m.Machine.xpr;
    responders = Summary.responders m.Machine.xpr;
    skipped_lazy = ctx.Core.Pmap.shootdowns_skipped_lazy;
    ipis_sent = ctx.Core.Pmap.ipis_sent;
    shootdowns_initiated = ctx.Core.Pmap.shootdowns_initiated;
    batches_opened = ctx.Core.Pmap.batches_opened;
    batch_ops = ctx.Core.Pmap.batch_ops;
    batch_flushes = ctx.Core.Pmap.batch_flushes;
    rounds_elided = ctx.Core.Pmap.elision_rounds_elided;
    gen_bumps = ctx.Core.Pmap.elision_gen_bumps;
    gen_stale_drops =
      Array.fold_left
        (fun acc mmu -> acc + Hw.Tlb.gen_stale_drops (Hw.Mmu.tlb mmu))
        0 m.Machine.mmus;
  }

let sum_tlbs (m : Machine.t) f =
  Array.fold_left (fun acc mmu -> acc + f (Hw.Mmu.tlb mmu)) 0 m.Machine.mmus
  |> float_of_int

let phase_key p = "shootdown.blame." ^ Flight.phase_name p ^ "_us"

let profile_key c = "profile." ^ Profile.category_name c ^ "_us"

let flight_counters f =
  ("flight.rounds", float_of_int (Flight.rounds f))
  :: ("flight.unattributed", float_of_int (Flight.unattributed f))
  :: List.map (fun p -> (phase_key p, Flight.phase_total f p)) Flight.phases

let profile_counters (m : Machine.t) p =
  Profile.set_total p (Machine.now m);
  let n = Profile.ncpus p in
  let idle = ref 0.0 in
  for cpu = 0 to n - 1 do
    idle := !idle +. Profile.idle p ~cpu
  done;
  ("profile.idle_us", !idle)
  :: ("profile.span_us", float_of_int n *. Profile.total p)
  :: List.map (fun c -> (profile_key c, Profile.category_total p c))
       Profile.categories

let of_machine ?report ?oracle ?flight ?profile ?(fit = []) (m : Machine.t) =
  let r =
    match report with Some r -> r | None -> report_of_machine m
  in
  let ctx = m.Machine.ctx in
  let bus = m.Machine.bus in
  let initiators = r.Workloads.Driver.kernel_initiators @ r.user_initiators in
  let latencies = Summary.elapsed_of initiators in
  let i = float_of_int in
  let counters =
    [
      ("sim.runtime_us", r.runtime);
      ("sim.busy_us", r.busy_time);
      ("engine.events", i (Sim.Engine.events_processed m.Machine.eng));
      ("bus.transactions", i (Sim.Bus.transactions bus));
      ("bus.wait_us", Sim.Bus.total_wait bus);
      ("bus.busy_us", Sim.Bus.total_busy bus);
      ("tlb.hits", sum_tlbs m Hw.Tlb.hits);
      ("tlb.misses", sum_tlbs m Hw.Tlb.misses);
      ("tlb.flushes", sum_tlbs m Hw.Tlb.flushes);
      ("tlb.invalidates", sum_tlbs m Hw.Tlb.single_invalidates);
      ("tlb.gen_stale_drops", i r.gen_stale_drops);
      ( "mmu.reloads",
        Array.fold_left (fun acc mmu -> acc + mmu.Hw.Mmu.reloads) 0 m.Machine.mmus
        |> i );
      ("shootdown.rounds", i r.shootdowns_initiated);
      ("shootdown.skipped_lazy", i r.skipped_lazy);
      ("shootdown.ipis", i r.ipis_sent);
      ("shootdown.watchdog_retries", i ctx.Core.Pmap.watchdog_retries);
      ("gather.batch_ops", i r.batch_ops);
      ("gather.flushes", i r.batch_flushes);
      ("elide.rounds_elided", i r.rounds_elided);
      ("elide.gen_bumps", i r.gen_bumps);
    ]
    @
    match oracle with
    | None -> []
    | Some o ->
        [
          ("oracle.checks", i (Core.Consistency_oracle.checks o));
          ("oracle.violations", i (Core.Consistency_oracle.violation_count o));
        ]
  in
  let traced =
    (match flight with Some f -> flight_counters f | None -> [])
    @ match profile with Some p -> profile_counters m p | None -> []
  in
  let overhead_pct = Workloads.Driver.overhead_percent m.Machine.params r in
  {
    counters;
    traced;
    latencies;
    fit;
    runtime_us = r.runtime;
    busy_us = r.busy_time;
    overhead_us = overhead_pct *. r.busy_time /. 100.0;
  }

(* What a failed unit of work reports in place of its statistics. *)
let failure_of_exn = function
  | Workloads.Driver.Workload_fault { workload; what; _ } ->
      Printf.sprintf "workload_fault(%s): %s" workload what
  | Machine.Wedged msg -> "wedged: " ^ msg
  | Sim.Engine.Runaway r ->
      Printf.sprintf "runaway after %d events" r.Sim.Engine.runaway_events
  | e -> "exception: " ^ Printexc.to_string e

(* Canonical text of the simulated statistics; floats in hex so that the
   digest changes if any bit does. *)
let add_to_digest buf s =
  List.iter
    (fun (k, v) -> Buffer.add_string buf (Printf.sprintf "%s=%h;" k v))
    (List.sort compare s.counters);
  List.iter (fun v -> Buffer.add_string buf (Printf.sprintf "%h," v)) s.latencies;
  Buffer.add_string buf (Printf.sprintf "|%h|%h|%h\n" s.runtime_us s.busy_us s.overhead_us)
