(* Anatomy of one TLB shootdown: run the consistency tester with a span
   tracer attached and print the chronological, per-CPU log of the
   protocol's phase spans — Figure 1 of the paper, made visible.

     dune exec examples/anatomy.exe *)

module Trace = Instrument.Trace

(* One line per protocol span; the spans that name a target CPU fill the
   [%d] from their [target] attribute. *)
let label = function
  | "initiator.start" ->
      Some "initiator: enter (lock held, local TLB invalidated)"
  | "initiator.queue-action" ->
      Some "initiator: queue action for cpu%d, set action-needed"
  | "initiator.ipi" -> Some "initiator: send IPI to cpu%d"
  | "initiator.barrier-done" ->
      Some "initiator: all acknowledgements in - updating pmap"
  | "initiator.update-done" -> Some "initiator: update done, pmap unlocked"
  | "initiator.watchdog-retry" ->
      Some "initiator: watchdog timeout - re-interrupting cpu%d"
  | "initiator.watchdog-escalate" ->
      Some "initiator: retries exhausted - abandoning cpu%d (escalate)"
  | "responder.enter" -> Some "responder: interrupt dispatched"
  | "responder.ack" ->
      Some "responder: acknowledged (left active set), spinning on lock"
  | "responder.drain" -> Some "responder: lock released - draining action queue"
  | "responder.done" -> Some "responder: done, rejoined active set"
  | "idle.drain" ->
      Some "idle processor: drained queued actions before dispatch"
  | _ -> None

let render tr =
  let events =
    List.filter_map
      (fun (s : Trace.span) ->
        match label s.Trace.name with
        | None -> None
        | Some l ->
            let l =
              match List.assoc_opt "target" s.Trace.attrs with
              | Some (Trace.Int cpu) ->
                  Printf.sprintf (Scanf.format_from_string l "%d") cpu
              | _ -> l
            in
            (* a span with a duration ends at the event it names *)
            Some (s.Trace.at +. s.Trace.dur, s.Trace.cpu, l))
      (Trace.spans tr)
  in
  match events with
  | [] -> "(no shootdown spans recorded)\n"
  | (t0, _, _) :: _ ->
      let buf = Buffer.create 2048 in
      Buffer.add_string buf
        "Anatomy of a shootdown (relative microseconds, per-CPU)\n\n";
      List.iter
        (fun (at, cpu, l) ->
          Buffer.add_string buf
            (Printf.sprintf "%9.1f  cpu%-2d  %s\n" (at -. t0) cpu l))
        events;
      Buffer.contents buf

let () =
  let params =
    { Sim.Params.default with ncpus = 6; cost_jitter = 0.0; seed = 11L }
  in
  let machine = Vm.Machine.create ~params () in
  let tr = Trace.create () in
  Vm.Machine.attach_trace machine tr;
  let result = Workloads.Tlb_tester.run machine ~children:3 () in
  print_string (render tr);
  Printf.printf
    "\nshootdown involved %d processors; consistency maintained: %b\n"
    result.Workloads.Tlb_tester.processors
    result.Workloads.Tlb_tester.consistent;
  print_string
    "\nRead it against paper Figure 1: phase 1 is the queue/IPI burst, \
     phase 2 the\nacknowledgements and lock spins, phase 3 ends at 'update \
     done', and phase 4\nis each responder draining its queue after the \
     unlock.\n"
