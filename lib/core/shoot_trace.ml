(* The shootdown span stream: a fold of the protocol's probe stream
   (Instrument.Probe) into named Instrument.Trace spans with typed
   attributes — target CPU, per-CPU queue depth, flush-vs-invalidate
   decisions — for the `tlbshoot trace` views and Perfetto export
   (docs/OBSERVABILITY.md).

   Phase durations are readable without pairing events by hand:
   responder.enter -> responder.ack and initiator.start ->
   initiator.update-done carry the elapsed time as a [dur] (like
   engine.coroutine).  The pairing timestamps live here, per CPU. *)

module Trace = Instrument.Trace

let observer tr ~ncpus =
  let started = Array.make ncpus nan (* initiator.start of this round *)
  and entered = Array.make ncpus nan (* responder.enter *)
  and waiting = Array.make ncpus false (* barrier started, not yet done *) in
  let span ?dur ?(attrs = []) name ~cpu ~at =
    Trace.emit tr ~name ~cpu ~at ?dur ~attrs ()
  in
  let since start name ~cpu ~at =
    if Float.is_nan start then span name ~cpu ~at
    else span name ~cpu ~at:start ~dur:(at -. start)
  in
  let target t = [ ("target", Trace.Int t) ] in
  fun (p : Instrument.Probe.t) ->
    match p with
    | Round_start { cpu; _ } -> started.(cpu) <- nan
    | Initiator_start { cpu; at } ->
        started.(cpu) <- at;
        span "initiator.start" ~cpu ~at
    | Queue_action { cpu; at; target = t; depth; overflow } ->
        span "initiator.queue-action" ~cpu ~at
          ~attrs:
            [
              ("target", Trace.Int t);
              ("queue_depth", Trace.Int depth);
              ("overflow", Trace.Bool overflow);
            ]
    | Ipi_posted { cpu; at; target = t } ->
        span "initiator.ipi" ~cpu ~at ~attrs:(target t)
    | Barrier_start { cpu; _ } -> waiting.(cpu) <- true
    | Watchdog_retry { cpu; at; target = t } ->
        span "initiator.watchdog-retry" ~cpu ~at ~attrs:(target t)
    | Watchdog_escalate { cpu; at; target = t; pmap; retries; phase; note } ->
        span "initiator.watchdog-escalate" ~cpu ~at ~attrs:(target t);
        span "watchdog.escalation" ~cpu ~at
          ~attrs:
            [
              ("missing", Trace.Int t);
              ("pmap", Trace.Str pmap);
              ("retries", Trace.Int retries);
              ("missing_phase", Trace.Str phase);
              ("missing_note", Trace.Str note);
            ]
    | Barrier_done { cpu; at; _ } ->
        if waiting.(cpu) then begin
          waiting.(cpu) <- false;
          span "initiator.barrier-done" ~cpu ~at
        end
    | Round_unlock { cpu; at } ->
        (* only a round that really shot has an initiator.start *)
        if not (Float.is_nan started.(cpu)) then
          since started.(cpu) "initiator.update-done" ~cpu ~at
    | Responder_enter { cpu; at; _ } ->
        entered.(cpu) <- at;
        span "responder.enter" ~cpu ~at
    | Responder_ack { cpu; at } -> since entered.(cpu) "responder.ack" ~cpu ~at
    | Responder_drain { cpu; at } -> span "responder.drain" ~cpu ~at
    | Responder_done { cpu; at } -> span "responder.done" ~cpu ~at
    | Idle_drain { cpu; at } -> span "idle.drain" ~cpu ~at
    | Tlb { cpu; at; space; pages; flush } ->
        span
          (if flush then "tlb.flush" else "tlb.invalidate")
          ~cpu ~at
          ~attrs:[ ("space", Trace.Int space); ("pages", Trace.Int pages) ]
    | Round_lock _ | Round_shoot _ | Round_no_shoot _ | Round_abort _
    | Update_done _ | Round_end _ | Stall_start _ | Stall_end _
    | Drain_start _ | Drain_end _ | Responder_exit _ ->
        ()
