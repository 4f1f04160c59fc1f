(* Per-round flight recorder with critical-path attribution.

   The aggregate instrumentation (spans, profile buckets, HDR
   histograms) answers "where did the run's time go"; this recorder
   answers "why was THIS round slow".  It folds the protocol's probe
   stream (Instrument.Probe, emitted by Core.Shootdown) into one causal
   record per consistency round — initiator start, pmap-lock acquire,
   IPI posting, per-responder delivery/enter/ack/drain, barrier release,
   PTE update, completion — and at round completion the record is
   reduced to:

     - an exact per-phase blame decomposition of the round's end-to-end
       latency (the six initiator phases below; the Finish phase absorbs
       the floating-point residual so the blame always sums exactly to
       the latency — any unattributed time is a recorder bug and is
       counted in [unattributed]);
     - the critical path: the phase with the largest blame and, when it
       is the acknowledgement barrier, the straggler responder whose ack
       arrived last plus whether its delivery or its handler dominated
       (the numaPTE straggler structure, docs/TAIL.md);
     - a bounded top-K reservoir of the slowest rounds (the tail that
       aggregate means hide) and exact whole-run per-phase totals.

   Like Profile and Trace, a detached recorder costs the simulation one
   branch per probe point and an attached one costs zero simulated time:
   it only reads the probes' timestamps, never advances the clock, and
   draws nothing from any PRNG — a recorded run stays byte-identical to
   an unrecorded one.

   An attached [Timeline] receives the derived time series (rounds,
   IPIs, elisions, retries, round latency) as the rounds complete. *)

(* The six consecutive initiator phases of a round, in causal order.
   Their boundaries are the timestamp chain of [record]; an elided round
   collapses Post and Ack_wait to zero and pays its generation bump in
   Finish. *)
type phase =
  | Lock_wait (* entering the algorithm -> pmap lock acquired *)
  | Setup (* entry bookkeeping + the lazy inconsistency check *)
  | Post (* local invalidate, action queueing, IPI sends (phase 1) *)
  | Ack_wait (* the acknowledgement barrier (phase 2) *)
  | Update (* the page-table change itself (phase 3) *)
  | Finish (* gen bump / forced invalidation / unlock (phase 4) *)

let phases = [ Lock_wait; Setup; Post; Ack_wait; Update; Finish ]

let phase_name = function
  | Lock_wait -> "lock_wait"
  | Setup -> "setup"
  | Post -> "post"
  | Ack_wait -> "ack_wait"
  | Update -> "update"
  | Finish -> "finish"

let phase_index = function
  | Lock_wait -> 0
  | Setup -> 1
  | Post -> 2
  | Ack_wait -> 3
  | Update -> 4
  | Finish -> 5

let nphases = 6

(* What kind of consistency round the record describes. *)
type kind = Probe.kind =
  | Round (* an ordinary shootdown round (one pmap operation) *)
  | Gather_flush (* a gather batch retiring its deferred ranges *)
  | Elided (* the round was replaced by a generation bump *)

let kind_name = function
  | Round -> "round"
  | Gather_flush -> "gather-flush"
  | Elided -> "elided"

(* One responder's view of the round.  Timestamps are nan until the
   corresponding event is seen; an idle target that drains via the idle
   check never enters the handler and keeps nan everywhere past
   [r_posted]. *)
type responder = {
  r_cpu : int;
  mutable r_posted : float; (* IPI posted by the initiator *)
  mutable r_enter : float; (* shootdown handler entered *)
  mutable r_ack : float; (* acknowledged (left the active set) *)
  mutable r_drain : float; (* began draining queued actions *)
  mutable r_done : float; (* rejoined the active set *)
}

(* The causal record of one round.  The timestamp chain
   t_start <= t_lock <= t_shoot <= t_barrier <= t_barrier_done
   <= t_update_done <= t_end bounds the six phases. *)
type record = {
  seq : int; (* per-recorder round sequence number *)
  cpu : int; (* initiator *)
  kind : kind;
  pmap : string;
  pages : int;
  t_start : float;
  mutable t_lock : float;
  mutable t_shoot : float;
  mutable t_barrier : float;
  mutable t_barrier_done : float;
  mutable t_update_done : float;
  mutable t_end : float;
  mutable retries : int; (* watchdog re-IPIs during the barrier *)
  mutable responders : responder list; (* reversed posting order *)
}

let duration r = r.t_end -. r.t_start

(* Nudge the residual phase so that re-summing the blame reproduces the
   end-to-end latency bit for bit: [prev +. f] can land half an ulp off
   [total] after rounding, and one correction step repairs it. *)
let exact_residual ~total ~prev =
  let f = ref (total -. prev) in
  let attempts = ref 0 in
  while prev +. !f <> total && !attempts < 4 do
    f := !f +. (total -. (prev +. !f));
    incr attempts
  done;
  !f

(* The blame decomposition: adjacent differences of the timestamp chain,
   with Finish defined as the exact residual so the six durations sum to
   [duration] with no unattributed time. *)
let blame r =
  let lock = r.t_lock -. r.t_start in
  let setup = r.t_shoot -. r.t_lock in
  let post = r.t_barrier -. r.t_shoot in
  let ack = r.t_barrier_done -. r.t_barrier in
  let update = r.t_update_done -. r.t_barrier_done in
  let prev = lock +. setup +. post +. ack +. update in
  let finish = exact_residual ~total:(duration r) ~prev in
  [
    (Lock_wait, lock);
    (Setup, setup);
    (Post, post);
    (Ack_wait, ack);
    (Update, update);
    (Finish, finish);
  ]

(* The no-unattributed-time invariant: every chain timestamp was
   captured (finite), the chain is monotone (every phase nonnegative),
   and the blame re-sums to the end-to-end latency exactly.  A missed
   capture point shows up as a nan poisoning the sum; a mis-ordered one
   as a negative phase. *)
let attributed_exactly r =
  let b = blame r in
  let sum = List.fold_left (fun acc (_, d) -> acc +. d) 0.0 b in
  Float.is_finite (duration r)
  && List.for_all (fun (_, d) -> Float.is_finite d && d >= 0.0) b
  && sum = duration r

(* Critical-path attribution: which phase made the round as slow as it
   was and — when the barrier did — which responder the initiator was
   last waiting on, split into IPI delivery versus handler time. *)
type critical = {
  c_phase : phase;
  c_blame : float; (* that phase's share of the round *)
  c_cpu : int; (* straggler responder; -1 when not responder-shaped *)
  c_detail : string; (* "delivery" | "handler" | "" *)
}

let critical r =
  let c_phase, c_blame =
    List.fold_left
      (fun ((_, best) as acc) (p, d) -> if d > best then (p, d) else acc)
      (Lock_wait, neg_infinity) (blame r)
  in
  let straggler =
    match c_phase with
    | Ack_wait ->
        List.fold_left
          (fun acc resp ->
            if Float.is_nan resp.r_ack then acc
            else
              match acc with
              | Some best when best.r_ack >= resp.r_ack -> acc
              | _ -> Some resp)
          None r.responders
    | _ -> None
  in
  match straggler with
  | None -> { c_phase; c_blame; c_cpu = -1; c_detail = "" }
  | Some resp ->
      let delivery =
        if Float.is_nan resp.r_enter then infinity
        else resp.r_enter -. resp.r_posted
      and handler =
        if Float.is_nan resp.r_enter then 0.0 else resp.r_ack -. resp.r_enter
      in
      {
        c_phase;
        c_blame;
        c_cpu = resp.r_cpu;
        c_detail = (if delivery >= handler then "delivery" else "handler");
      }

(* ------------------------------------------------------------------ *)
(* The recorder. *)

let default_top_k = 16

type t = {
  ncpus : int;
  top_k : int;
  in_flight : record option array; (* per initiator CPU *)
  mutable timeline : Timeline.t option;
  mutable next_seq : int;
  mutable rounds : int; (* completed records, all kinds *)
  mutable elided : int;
  mutable gather : int;
  mutable ipis : int;
  mutable retries_total : int;
  mutable unattributed : int; (* rounds failing [attributed_exactly] *)
  totals : float array; (* exact per-phase blame sums, all rounds *)
  mutable top : record list; (* slowest first, at most [top_k] *)
}

let create ?(top_k = default_top_k) ~ncpus () =
  if top_k < 1 then invalid_arg "Flight.create: top_k must be >= 1";
  if ncpus < 1 then invalid_arg "Flight.create: ncpus must be >= 1";
  {
    ncpus;
    top_k;
    in_flight = Array.make ncpus None;
    timeline = None;
    next_seq = 0;
    rounds = 0;
    elided = 0;
    gather = 0;
    ipis = 0;
    retries_total = 0;
    unattributed = 0;
    totals = Array.make nphases 0.0;
    top = [];
  }

let set_timeline t tl = t.timeline <- tl
let timeline t = t.timeline

(* --- completion --- *)

(* Insert into the bounded reservoir, slowest first.  Ties keep the
   earlier-inserted record ahead, which makes an ordered merge
   deterministic at any job count. *)
let top_insert t r =
  let d = duration r in
  let rec go = function
    | [] -> [ r ]
    | x :: rest when duration x >= d -> x :: go rest
    | rest -> r :: rest
  in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  t.top <- take t.top_k (go t.top)

let finalize t r =
  t.rounds <- t.rounds + 1;
  (match r.kind with
  | Elided -> t.elided <- t.elided + 1
  | Gather_flush -> t.gather <- t.gather + 1
  | Round -> ());
  List.iter
    (fun (p, d) -> t.totals.(phase_index p) <- t.totals.(phase_index p) +. d)
    (blame r);
  if not (attributed_exactly r) then t.unattributed <- t.unattributed + 1;
  top_insert t r;
  match t.timeline with
  | None -> ()
  | Some tl ->
      Timeline.count tl ~series:"rounds" ~at:r.t_end 1;
      Timeline.observe tl ~series:"round_latency_us" ~at:r.t_end (duration r);
      if r.kind = Elided then Timeline.count tl ~series:"elisions" ~at:r.t_end 1

(* --- the probe fold (Core.Shootdown emits Instrument.Probe events) ---

   Initiator probes fill the open record's timestamp chain.  The chain
   setters are first-write-wins: [Barrier_done] closes the barrier of
   every round that reaches its update and, for a round that never had
   to wait (no remote users), also opens it — a zero-width catch-up that
   must not clobber a [Barrier_start] that really ran.

   A responder activation services every shootdown in progress, so each
   responder probe attaches to every open round that posted an IPI at
   this CPU and has not yet seen the event — the same many-to-many
   structure the protocol itself has. *)

let with_open t ~cpu f =
  match t.in_flight.(cpu) with None -> () | Some r -> f r

(* Apply [f] to this CPU's responder view in every open round. *)
let each_responder t ~cpu f =
  Array.iter
    (function
      | Some r ->
          List.iter (fun resp -> if resp.r_cpu = cpu then f resp) r.responders
      | None -> ())
    t.in_flight

let count t series ~at =
  match t.timeline with
  | Some tl -> Timeline.count tl ~series ~at 1
  | None -> ()

let ipi_posted t ~cpu ~target ~at =
  t.ipis <- t.ipis + 1;
  count t "ipis" ~at;
  with_open t ~cpu (fun r ->
      match List.find_opt (fun resp -> resp.r_cpu = target) r.responders with
      | Some resp ->
          (* a watchdog re-IPI: keep the first posting time — delivery
             latency is measured from the original raise *)
          if Float.is_nan resp.r_posted then resp.r_posted <- at
      | None ->
          r.responders <-
            {
              r_cpu = target;
              r_posted = at;
              r_enter = nan;
              r_ack = nan;
              r_drain = nan;
              r_done = nan;
            }
            :: r.responders)

let observe t (p : Probe.t) =
  match p with
  | Round_start { cpu; at; kind; pmap; pages } ->
      t.in_flight.(cpu) <-
        Some
          {
            seq = t.next_seq;
            cpu;
            kind;
            pmap;
            pages;
            t_start = at;
            t_lock = nan;
            t_shoot = nan;
            t_barrier = nan;
            t_barrier_done = nan;
            t_update_done = nan;
            t_end = nan;
            retries = 0;
            responders = [];
          };
      t.next_seq <- t.next_seq + 1
  | Round_lock { cpu; at } ->
      with_open t ~cpu (fun r -> if Float.is_nan r.t_lock then r.t_lock <- at)
  | Round_shoot { cpu; at } ->
      with_open t ~cpu (fun r -> if Float.is_nan r.t_shoot then r.t_shoot <- at)
  | Round_no_shoot { cpu; at } ->
      (* elided: Post and Ack_wait collapse to zero width at the
         decision point, and the record is retagged *)
      with_open t ~cpu (fun r ->
          r.t_shoot <- at;
          r.t_barrier <- at;
          r.t_barrier_done <- at;
          t.in_flight.(cpu) <- Some { r with kind = Elided })
  | Round_abort { cpu; _ } -> t.in_flight.(cpu) <- None
  | Ipi_posted { cpu; at; target } -> ipi_posted t ~cpu ~target ~at
  | Watchdog_retry { cpu; at; target } ->
      t.retries_total <- t.retries_total + 1;
      count t "retries" ~at;
      with_open t ~cpu (fun r -> r.retries <- r.retries + 1);
      (* a real IPI on the wire; r_posted keeps the original raise *)
      ipi_posted t ~cpu ~target ~at
  | Barrier_start { cpu; at } ->
      with_open t ~cpu (fun r ->
          if Float.is_nan r.t_barrier then r.t_barrier <- at)
  | Barrier_done { cpu; at; _ } ->
      with_open t ~cpu (fun r ->
          if Float.is_nan r.t_barrier then r.t_barrier <- at;
          if Float.is_nan r.t_barrier_done then r.t_barrier_done <- at)
  | Update_done { cpu; at } ->
      with_open t ~cpu (fun r ->
          if Float.is_nan r.t_update_done then r.t_update_done <- at)
  | Round_end { cpu; at } ->
      with_open t ~cpu (fun r ->
          r.t_end <- at;
          t.in_flight.(cpu) <- None;
          finalize t r)
  | Responder_enter { cpu; at; posted } ->
      (* The delivered interrupt's own raise time (captured by Sim.Cpu at
         dispatch) beats the initiator-side posting time when both
         exist: coalesced re-posts keep the earliest raise. *)
      each_responder t ~cpu (fun resp ->
          if Float.is_nan resp.r_enter then begin
            resp.r_enter <- at;
            if Float.is_finite posted && posted < resp.r_posted then
              resp.r_posted <- posted
          end)
  | Responder_ack { cpu; at } ->
      each_responder t ~cpu (fun r ->
          if Float.is_nan r.r_ack then r.r_ack <- at)
  | Responder_drain { cpu; at } ->
      each_responder t ~cpu (fun r ->
          if Float.is_nan r.r_drain then r.r_drain <- at)
  | Responder_done { cpu; at } ->
      each_responder t ~cpu (fun r ->
          if Float.is_nan r.r_done then r.r_done <- at)
  | Initiator_start _ | Queue_action _ | Watchdog_escalate _ | Round_unlock _
  | Stall_start _ | Stall_end _ | Drain_start _ | Drain_end _
  | Responder_exit _ | Idle_drain _ | Tlb _ ->
      ()

(* --- results --- *)

let rounds t = t.rounds
let ipis t = t.ipis
let retries t = t.retries_total
let unattributed t = t.unattributed
let top t = t.top
let phase_total t p = t.totals.(phase_index p)

let attributed_total t = Array.fold_left ( +. ) 0.0 t.totals

(* The whole-run dominant phase by exact blame totals. *)
let dominant_phase t =
  if t.rounds = 0 then None
  else
    Some
      (List.fold_left
         (fun best p ->
           if phase_total t p > phase_total t best then p else best)
         Lock_wait phases)

(* The dominant phase of the tail: the mode of the top-K rounds'
   critical paths (ties resolved toward the earlier phase in protocol
   order, deterministically). *)
let tail_dominant t =
  match t.top with
  | [] -> None
  | top ->
      let votes = Array.make nphases 0 in
      List.iter
        (fun r ->
          let c = critical r in
          votes.(phase_index c.c_phase) <- votes.(phase_index c.c_phase) + 1)
        top;
      Some
        (List.fold_left
           (fun best p ->
             if votes.(phase_index p) > votes.(phase_index best) then p
             else best)
           Lock_wait phases)

(* Ordered exact merge (run trials in input order, merge in that same
   order — the Profile.merge contract that keeps --jobs sweeps
   byte-identical).  In-flight rounds do not merge: merging mid-round is
   a harness bug. *)
let merge ~into src =
  if into.ncpus <> src.ncpus then invalid_arg "Flight.merge: ncpus differ";
  if into.top_k <> src.top_k then invalid_arg "Flight.merge: top_k differ";
  Array.iteri
    (fun i r ->
      match r with
      | Some _ -> invalid_arg "Flight.merge: source has an open round"
      | None -> ignore i)
    src.in_flight;
  into.next_seq <- Stdlib.max into.next_seq src.next_seq;
  into.rounds <- into.rounds + src.rounds;
  into.elided <- into.elided + src.elided;
  into.gather <- into.gather + src.gather;
  into.ipis <- into.ipis + src.ipis;
  into.retries_total <- into.retries_total + src.retries_total;
  into.unattributed <- into.unattributed + src.unattributed;
  Array.iteri
    (fun i v -> into.totals.(i) <- into.totals.(i) +. v)
    src.totals;
  List.iter (fun r -> top_insert into r) src.top;
  match (into.timeline, src.timeline) with
  | Some dst, Some s -> Timeline.merge ~into:dst s
  | _ -> ()

(* --- JSON (schema tlbshoot-flight-v1) --- *)

let ts_json v = if Float.is_finite v then Json.Float v else Json.Null

let responder_json r =
  Json.Obj
    [
      ("cpu", Json.Int r.r_cpu);
      ("posted_us", ts_json r.r_posted);
      ("enter_us", ts_json r.r_enter);
      ("ack_us", ts_json r.r_ack);
      ("drain_us", ts_json r.r_drain);
      ("done_us", ts_json r.r_done);
    ]

let record_json r =
  let c = critical r in
  Json.Obj
    [
      ("seq", Json.Int r.seq);
      ("cpu", Json.Int r.cpu);
      ("kind", Json.Str (kind_name r.kind));
      ("pmap", Json.Str r.pmap);
      ("pages", Json.Int r.pages);
      ("start_us", Json.Float r.t_start);
      ("duration_us", Json.Float (duration r));
      ("retries", Json.Int r.retries);
      ("attributed_exactly", Json.Bool (attributed_exactly r));
      ( "blame_us",
        Json.Obj (List.map (fun (p, d) -> (phase_name p, Json.Float d)) (blame r))
      );
      ( "critical",
        Json.Obj
          [
            ("phase", Json.Str (phase_name c.c_phase));
            ("blame_us", Json.Float c.c_blame);
            ("cpu", Json.Int c.c_cpu);
            ("detail", Json.Str c.c_detail);
          ] );
      ( "responders",
        Json.List (List.rev_map responder_json r.responders) );
    ]

let to_json t =
  Json.Obj
    [
      ("schema", Json.Str "tlbshoot-flight-v1");
      ("rounds", Json.Int t.rounds);
      ("elided", Json.Int t.elided);
      ("gather_flushes", Json.Int t.gather);
      ("ipis", Json.Int t.ipis);
      ("retries", Json.Int t.retries_total);
      ("unattributed", Json.Int t.unattributed);
      ( "phase_totals_us",
        Json.Obj
          (List.map
             (fun p -> (phase_name p, Json.Float (phase_total t p)))
             phases) );
      ( "dominant_phase",
        match dominant_phase t with
        | Some p -> Json.Str (phase_name p)
        | None -> Json.Null );
      ( "tail_dominant_phase",
        match tail_dominant t with
        | Some p -> Json.Str (phase_name p)
        | None -> Json.Null );
      ("top", Json.List (List.map record_json t.top));
    ]
