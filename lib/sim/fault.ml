(* Deterministic fault injection for the shootdown protocol.

   The paper's algorithm is a pure-software protocol balanced on fragile
   hardware assumptions: interprocessor interrupts arrive, responders get
   to run, lock holders keep running, action queues do not overflow.  A
   [plan] perturbs exactly those assumptions — with probabilities and
   magnitudes drawn from a dedicated SplitMix64 stream, so a faulty run
   is still a pure function of (params.seed, plan).

   Each CPU owns one [t] (an injector), seeded from the machine seed and
   the CPU id.  A zero plan produces NO injector at all ([injector]
   returns [None]): the healthy paths take the same branches, consume the
   same PRNG draws and schedule the same events as before this module
   existed, which is what keeps zero-fault reports byte-identical to the
   committed baseline (bench/check_regression.exe --identical). *)

type plan = {
  ipi_drop_rate : float; (* P(shootdown IPI silently lost) *)
  ipi_delay_rate : float; (* P(shootdown IPI delayed in the wires) *)
  ipi_delay_mean : float; (* mean extra latency of a delayed IPI, us *)
  responder_stall_rate : float;
      (* P(responder parked behind an overlong device-masked section
         before its shootdown handler gets to run) *)
  responder_stall_mean : float; (* mean stall length, us *)
  lock_preempt_rate : float;
      (* P(a spinlock holder is "preempted" right after acquiring: the
         critical section stretches while contenders spin) *)
  lock_preempt_mean : float; (* mean preemption length, us *)
  queue_overflow_rate : float;
      (* P(an initiator's enqueue finds the target's action queue full,
         latching the overflow-to-full-flush path) *)
  fault_seed : int64; (* extra entropy so equal-rate plans can differ *)
}

let none =
  {
    ipi_drop_rate = 0.0;
    ipi_delay_rate = 0.0;
    ipi_delay_mean = 0.0;
    responder_stall_rate = 0.0;
    responder_stall_mean = 0.0;
    lock_preempt_rate = 0.0;
    lock_preempt_mean = 0.0;
    queue_overflow_rate = 0.0;
    fault_seed = 0L;
  }

let is_none p =
  p.ipi_drop_rate <= 0.0
  && p.ipi_delay_rate <= 0.0
  && p.responder_stall_rate <= 0.0
  && p.lock_preempt_rate <= 0.0
  && p.queue_overflow_rate <= 0.0

(* ------------------------------------------------------------------ *)
(* Per-CPU injector. *)

type t = {
  plan : plan;
  prng : Prng.t;
  mutable n_dropped : int;
  mutable n_delayed : int;
  mutable n_stalls : int;
  mutable n_preempts : int;
  mutable n_overflows : int;
}

let injector plan ~seed =
  if is_none plan then None
  else
    Some
      {
        plan;
        prng = Prng.create (Int64.logxor seed plan.fault_seed);
        n_dropped = 0;
        n_delayed = 0;
        n_stalls = 0;
        n_preempts = 0;
        n_overflows = 0;
      }

type ipi_fate = Deliver | Drop | Delay of float

(* One draw decides drop-vs-delay-vs-deliver so the two rates compose as
   a partition; the delay magnitude costs a second draw only when used. *)
let ipi_fate t =
  let r = Prng.float t.prng in
  if r < t.plan.ipi_drop_rate then begin
    t.n_dropped <- t.n_dropped + 1;
    Drop
  end
  else if r < t.plan.ipi_drop_rate +. t.plan.ipi_delay_rate then begin
    t.n_delayed <- t.n_delayed + 1;
    Delay (Prng.exponential t.prng t.plan.ipi_delay_mean)
  end
  else Deliver

let responder_stall t =
  if
    t.plan.responder_stall_rate > 0.0
    && Prng.float t.prng < t.plan.responder_stall_rate
  then begin
    t.n_stalls <- t.n_stalls + 1;
    Some (Prng.exponential t.prng t.plan.responder_stall_mean)
  end
  else None

let lock_preemption t =
  if
    t.plan.lock_preempt_rate > 0.0
    && Prng.float t.prng < t.plan.lock_preempt_rate
  then begin
    t.n_preempts <- t.n_preempts + 1;
    Some (Prng.exponential t.prng t.plan.lock_preempt_mean)
  end
  else None

let forced_overflow t =
  if
    t.plan.queue_overflow_rate > 0.0
    && Prng.float t.prng < t.plan.queue_overflow_rate
  then begin
    t.n_overflows <- t.n_overflows + 1;
    true
  end
  else false

(* ------------------------------------------------------------------ *)
(* Counter aggregation, for the resilience experiment's report. *)

type counters = {
  dropped : int;
  delayed : int;
  stalls : int;
  preempts : int;
  overflows : int;
}

let zero_counters =
  { dropped = 0; delayed = 0; stalls = 0; preempts = 0; overflows = 0 }

let counters t =
  {
    dropped = t.n_dropped;
    delayed = t.n_delayed;
    stalls = t.n_stalls;
    preempts = t.n_preempts;
    overflows = t.n_overflows;
  }

let add_counters a b =
  {
    dropped = a.dropped + b.dropped;
    delayed = a.delayed + b.delayed;
    stalls = a.stalls + b.stalls;
    preempts = a.preempts + b.preempts;
    overflows = a.overflows + b.overflows;
  }

let total_counters injectors =
  Array.fold_left
    (fun acc inj ->
      match inj with
      | Some f -> add_counters acc (counters f)
      | None -> acc)
    zero_counters injectors
