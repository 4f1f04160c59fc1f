(* Shared scaffolding for the evaluation applications of paper section 5.2:
   run a workload body on a freshly booted machine and extract the
   shootdown measurements in the shape of Tables 1-4. *)

module Summary = Instrument.Summary
module Stats = Instrument.Stats

(* Structured replacement for the workloads' historical bare [failwith]s,
   following Sched.Broken_invariant: a model-checker counterexample (or a
   fault-run backtrace) then reports *where* the workload died — which
   application, which self-check, on which CPU, at what simulated time —
   instead of a bare string. *)
exception
  Workload_fault of { workload : string; what : string; cpu : int; now : float }

let () =
  Printexc.register_printer (function
    | Workload_fault { workload; what; cpu; now } ->
        Some
          (Printf.sprintf "Workload_fault(%s): %s (cpu%d, t=%.1f)" workload
             what cpu now)
    | _ -> None)

(* Raise-site helper: [cpu]/[now] default to the no-context markers used
   by Sched.Broken_invariant when the raise happens outside the
   simulation. *)
let fault ~workload ~what ?(cpu = -1) ?(now = Float.nan) () =
  raise (Workload_fault { workload; what; cpu; now })

type report = {
  name : string;
  runtime : float; (* simulated us, start to finish *)
  busy_time : float; (* total CPU busy time across processors *)
  kernel_initiators : Summary.initiator list;
  user_initiators : Summary.initiator list;
  responders : float list; (* sampled responder elapsed times *)
  skipped_lazy : int; (* shootdowns avoided by the lazy check *)
  ipis_sent : int;
  shootdowns_initiated : int; (* consistency rounds actually run *)
  batches_opened : int;
  batch_ops : int; (* operations queued into gather batches *)
  batch_flushes : int; (* batch flushes that ran a round *)
  rounds_elided : int; (* rounds replaced by a generation bump *)
  gen_bumps : int; (* generation bumps published *)
  gen_stale_drops : int; (* stale entries evicted at lookup, all TLBs *)
}

let run ?(params = Sim.Params.production) ?trace ?attach ~name body =
  let machine = Vm.Machine.create ~params () in
  Option.iter (Vm.Machine.attach_trace machine) trace;
  (match attach with Some f -> f machine | None -> ());
  Vm.Machine.run machine (fun self -> body machine self);
  let xpr = machine.Vm.Machine.xpr in
  let ctx = machine.Vm.Machine.ctx in
  {
    name;
    runtime = Vm.Machine.now machine;
    busy_time = Vm.Machine.total_busy_time machine;
    kernel_initiators = Summary.kernel_initiators xpr;
    user_initiators = Summary.user_initiators xpr;
    responders = Summary.responders xpr;
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
        0 ctx.Core.Pmap.mmus;
  }

(* Responder events were only sampled on [responder_sample_cpus] of the
   processors, so scale their total up to the whole machine: the
   pessimistic accounting the paper uses. *)
let scaled_responder_time (params : Sim.Params.t) r =
  List.fold_left ( +. ) 0.0 r.responders
  *. (float_of_int params.ncpus /. float_of_int params.responder_sample_cpus)

(* Per-application overhead of shootdowns as a fraction of busy time. *)
let overhead_percent params r =
  let initiator =
    Summary.total_overhead r.kernel_initiators
    +. Summary.total_overhead r.user_initiators
  in
  if r.busy_time <= 0.0 then 0.0
  else 100.0 *. (initiator +. scaled_responder_time params r) /. r.busy_time
