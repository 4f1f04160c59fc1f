(* Discrete-event engine.

   Simulated activities (CPU idle loops, threads, daemons) are coroutines
   implemented with OCaml effects.  A coroutine performs [Delay dt] to let
   simulated time pass, or [Suspend register] to park itself until some
   other coroutine wakes it.  The engine owns a single event heap; running
   the simulation is popping events in (time, seq) order until the heap
   drains or a time limit is reached.

   Per-label event accounting goes through Instrument.Metrics counters.
   The counter handle is resolved when the event is *scheduled* — the
   handles for the engine's own labels are resolved once at creation — so
   the per-event [step] does a direct field increment instead of a
   string-keyed hashtable lookup.

   The heap payload is a three-word variant, not a closure: the hot event
   shapes (timer expiry, wake, delay resumption — the idle-loop polling
   traffic that dominates every run) carry their wakener or continuation
   directly, so scheduling them allocates one small short-lived cell and
   dispatching them allocates nothing.  Only [at]/[after]/[spawn] — the
   cold, user-facing sites — carry a thunk.  A free-list cell pool was
   tried and measured *slower*: recycled cells get promoted to the major
   heap, so refilling them with young pointers pays a write barrier and
   remembered-set entry per store, which costs more than letting the
   minor collector reclaim dead three-word cells for free. *)

(* Diagnostic payload for a blown event budget: when it happened, how much
   work was done, and what was still scheduled — the pending-kind summary
   usually names the spinning site directly (e.g. 100k "spin" events). *)
type runaway = {
  runaway_at : float; (* sim time when the budget tripped *)
  runaway_events : int; (* events executed so far *)
  runaway_pending : (string * int) list;
      (* pending events by schedule label, most frequent first *)
}

exception Runaway of runaway

let () =
  Printexc.register_printer (function
    | Runaway r ->
        let pending =
          String.concat ", "
            (List.map
               (fun (label, n) -> Printf.sprintf "%s:%d" label n)
               r.runaway_pending)
        in
        Some
          (Printf.sprintf
             "Engine.Runaway: %d events executed at t=%.1f (pending: %s)"
             r.runaway_events r.runaway_at pending)
    | _ -> None)

type wakener = {
  mutable fired : bool;
  mutable cont : (unit, unit) Effect.Deep.continuation option;
      (* the parked coroutine; taken (set to None) when the wake fires *)
  wshard : int; (* event-heap shard the parked coroutine resumes on *)
}

(* Pre-fired sentinel: waking it is a no-op.  Never mutated (fired stays
   true), so sharing it across engines — and domains — is safe. *)
let no_wakener = { fired = true; cont = None; wshard = 0 }

(* One scheduled event.  The counter comes first in every arm so [step]
   can increment it with a single or-pattern match. *)
type ev =
  | Ev_thunk of Instrument.Metrics.counter * (unit -> unit)
      (* at / after / spawn: run the thunk *)
  | Ev_timer of Instrument.Metrics.counter * wakener
      (* timer expiry: wake the wakener (no-op if already woken) *)
  | Ev_resume of
      Instrument.Metrics.counter * (unit, unit) Effect.Deep.continuation
      (* resume a parked coroutine (wake delivery, delay expiry) *)

type _ Effect.t +=
  | Delay : float -> unit Effect.t
  | Suspend : (wakener -> unit) -> unit Effect.t

type t = {
  mutable now : float;
  mutable seq : int;
  mutable events : int; (* total processed, for runaway detection *)
  mutable events_flushed : int; (* portion already added to the global *)
  mutable max_events : int;
  heap : ev Heap.t;
  mutable cur_shard : int;
      (* shard of the event being executed; events it schedules inherit
         it, so a coroutine's activity stays on its home shard *)
  prng : Prng.t;
  metrics : Instrument.Metrics.t; (* per-label processed-event counters *)
  mutable tracer : Instrument.Trace.t option; (* structured span events *)
  mutable explore : Explore.t option;
      (* controlled-scheduling oracle; None (and cost-free) unless a
         model-checking run attaches one *)
  (* pre-resolved counter handles for the engine's own schedule sites *)
  c_at : Instrument.Metrics.counter;
  c_after : Instrument.Metrics.counter;
  c_delay : Instrument.Metrics.counter;
  c_wake : Instrument.Metrics.counter;
  c_spawn : Instrument.Metrics.counter;
}

(* Events processed by every engine that finished a [run],
   across all domains — the denominator for the bench harness's
   allocation-per-event telemetry. *)
let global_events = Atomic.make 0
let total_events () = Atomic.get global_events

let flush_events t =
  let delta = t.events - t.events_flushed in
  if delta > 0 then begin
    t.events_flushed <- t.events;
    ignore (Atomic.fetch_and_add global_events delta)
  end

let create ?(seed = 0x5EEDL) ?(max_events = 200_000_000) ?(shards = 1) () =
  let metrics = Instrument.Metrics.create () in
  let c_at = Instrument.Metrics.counter metrics "at" in
  {
    now = 0.0;
    seq = 0;
    events = 0;
    events_flushed = 0;
    max_events;
    heap = Heap.create ~shards ~dummy:(Ev_thunk (c_at, ignore)) ();
    cur_shard = 0;
    prng = Prng.create seed;
    metrics;
    tracer = None;
    explore = None;
    c_at;
    c_after = Instrument.Metrics.counter metrics "after";
    c_delay = Instrument.Metrics.counter metrics "delay";
    c_wake = Instrument.Metrics.counter metrics "wake";
    c_spawn = Instrument.Metrics.counter metrics "spawn";
  }

let now t = t.now
let prng t = t.prng
let events_processed t = t.events

(* All schedule paths funnel through here so (time clamp, seq assignment,
   heap order) are identical whatever the event shape. *)
let[@inline] push_ev t ~shard time ev =
  let time = if time < t.now then t.now else time in
  t.seq <- t.seq + 1;
  Heap.push t.heap ~shard time t.seq ev

let schedule_on t ~shard counter time thunk =
  push_ev t ~shard time (Ev_thunk (counter, thunk))

let schedule t counter time thunk =
  schedule_on t ~shard:t.cur_shard counter time thunk

let counter_of t = function
  | "at" -> t.c_at
  | "after" -> t.c_after
  | "delay" -> t.c_delay
  | "wake" -> t.c_wake
  | "spawn" -> t.c_spawn
  | label -> Instrument.Metrics.counter t.metrics label

let at ?(label = "at") t time thunk = schedule t (counter_of t label) time thunk

let after ?(label = "after") t dt thunk =
  schedule t (counter_of t label) (t.now +. dt) thunk

let set_tracer t tracer = t.tracer <- tracer
let set_explore t ex = t.explore <- ex
let explore t = t.explore
let set_max_events t n = t.max_events <- n

let delay dt =
  if dt < 0.0 then invalid_arg "Engine.delay: negative duration";
  Effect.perform (Delay dt)

let suspend register = Effect.perform (Suspend register)

let wake t w =
  if not w.fired then begin
    w.fired <- true;
    match w.cont with
    | Some k ->
        w.cont <- None;
        (* resume on the parkee's home shard, not the waker's *)
        push_ev t ~shard:w.wshard t.now (Ev_resume (t.c_wake, k))
    | None -> ()
  end

(* Timer-driven wake: schedules an event that, when it pops, wakes [w]
   (a no-op if something else woke it first).  Equivalent to
   [after t dt (fun () -> wake t w)] without the closure. *)
let wake_after t dt w =
  push_ev t ~shard:t.cur_shard (t.now +. dt) (Ev_timer (t.c_after, w))

let spawn t ?(name = "coroutine") ?shard fn =
  let shard = match shard with Some s -> s | None -> t.cur_shard in
  let started = t.now in
  let open Effect.Deep in
  let fiber () =
    match_with fn ()
      {
        retc =
          (fun () ->
            match t.tracer with
            | Some tr ->
                Instrument.Trace.emit tr ~name:"engine.coroutine" ~cpu:(-1)
                  ~at:started ~dur:(t.now -. started)
                  ~attrs:[ ("name", Instrument.Trace.Str name) ]
                  ()
            | None -> ());
        exnc = (fun e -> raise e);
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Delay dt ->
                Some
                  (fun (k : (a, unit) continuation) ->
                    push_ev t ~shard:t.cur_shard (t.now +. dt)
                      (Ev_resume (t.c_delay, k)))
            | Suspend register ->
                Some
                  (fun (k : (a, unit) continuation) ->
                    let w =
                      { fired = false; cont = Some k; wshard = t.cur_shard }
                    in
                    register w)
            | _ -> None);
      }
  in
  schedule_on t ~shard t.c_spawn t.now fiber

let[@inline] counter_of_ev = function
  | Ev_thunk (c, _) | Ev_timer (c, _) | Ev_resume (c, _) -> c

(* Pending events as (delay-from-now, schedule label) pairs, sorted.
   Part of the model checker's state fingerprint: together with the
   machine snapshot, the scheduled future determines the rest of a run
   up to the remaining choice points. *)
let pending_summary t =
  let acc = ref [] in
  Heap.iter_entries
    (fun time _seq ev ->
      let label = Instrument.Metrics.counter_name (counter_of_ev ev) in
      acc := (time -. t.now, label) :: !acc)
    t.heap;
  List.sort compare !acc

(* Controlled pop under an attached explorer: collect every event tied
   at [time], offer the explorer a choice among the *live* ones, push
   the losers back under their original (time, seq) keys.  An expired
   timer whose wakener already fired is a pure no-op — branching on its
   position would multiply schedules without changing any behaviour —
   so such events are elided from the choice (the harness's cheapest
   partial-order reduction) and only run, in FIFO order, when nothing
   live shares the instant. *)
let pop_controlled t ex time =
  let ties = ref [] in
  let more = ref true in
  while !more do
    match Heap.peek_time t.heap with
    | Some tm when tm = time ->
        let _, seq, ev = Heap.pop t.heap in
        ties := (Heap.last_shard t.heap, seq, ev) :: !ties
    | Some _ | None -> more := false
  done;
  let ties = List.rev !ties (* (time, seq) order: FIFO is alternative 0 *) in
  let live =
    List.filter
      (fun (_, _, ev) ->
        match ev with Ev_timer (_, w) -> not w.fired | _ -> true)
      ties
  in
  Explore.note_elision ex (List.length ties - List.length live);
  let cshard, cseq, cev =
    match live with
    | [] -> List.hd ties (* all inert: run the oldest no-op *)
    | [ only ] -> only
    | _ :: _ :: _ ->
        let c = Explore.choose ex Explore.Tie (List.length live) in
        List.nth live c
  in
  List.iter
    (fun (shard, seq, ev) ->
      if seq <> cseq then Heap.push t.heap ~shard time seq ev)
    ties;
  t.cur_shard <- cshard;
  cev

let step t =
  if Heap.is_empty t.heap then false
  else begin
    let time = Heap.min_time t.heap in
    let ev =
      match t.explore with
      | None ->
          let ev = Heap.pop_payload t.heap in
          t.cur_shard <- Heap.last_shard t.heap;
          ev
      | Some ex -> pop_controlled t ex time
    in
    Instrument.Metrics.inc (counter_of_ev ev);
    t.now <- time;
    t.events <- t.events + 1;
    if t.events > t.max_events then begin
      (* Summarise what is still scheduled, by label, most frequent first:
         the stuck site usually dominates the histogram.  The event just
         popped has not executed, so it counts as pending too. *)
      let tally = Hashtbl.create 16 in
      let count ev =
        let name = Instrument.Metrics.counter_name (counter_of_ev ev) in
        let n = try Hashtbl.find tally name with Not_found -> 0 in
        Hashtbl.replace tally name (n + 1)
      in
      count ev;
      Heap.iter_payloads count t.heap;
      let pending =
        Hashtbl.fold (fun name n acc -> (name, n) :: acc) tally []
        |> List.sort (fun (na, a) (nb, b) ->
               if a <> b then compare b a else compare na nb)
      in
      raise
        (Runaway
           {
             runaway_at = t.now;
             runaway_events = t.events;
             runaway_pending = pending;
           })
    end;
    (match ev with
    | Ev_thunk (_, thunk) -> thunk ()
    | Ev_timer (_, w) -> wake t w
    | Ev_resume (_, k) -> Effect.Deep.continue k ());
    true
  end

let run t =
  while step t do
    ()
  done;
  flush_events t
