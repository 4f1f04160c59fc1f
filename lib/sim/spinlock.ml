(* Spinlocks with an associated interrupt priority level.

   The paper (section 4) avoids deadlocks between the shootdown barrier and
   interrupt-level lock acquisition by giving every lock a fixed interrupt
   priority: the lock is requested at that level and may only be held at
   that level or higher.  [acquire] therefore first raises the caller's IPL
   to the lock's level, then spins; [release] drops the lock and returns
   the IPL token for the caller to restore. *)

type t = {
  name : string;
  note_acquire : string; (* diagnostic notes, precomputed so the *)
  note_holding : string; (* acquire path never concatenates *)
  level : Interrupt.level;
  mutable holder : int; (* CPU id, or -1 when free *)
  mutable acquisitions : int;
  mutable contentions : int;
  mutable acquired_at : float; (* when the current holder took the lock *)
}

let create ?(level = Interrupt.ipl_vm) name =
  { name; note_acquire = "acquire:" ^ name; note_holding = "holding:" ^ name;
    level; holder = -1; acquisitions = 0; contentions = 0;
    acquired_at = 0.0 }

let is_locked t = t.holder >= 0
let holder t = if t.holder >= 0 then Some t.holder else None

(* Returns the saved IPL, to be passed to [release]. *)
let acquire t (cpu : Cpu.t) =
  let saved =
    if Cpu.ipl cpu < t.level then Cpu.set_ipl cpu t.level else Cpu.ipl cpu
  in
  if t.holder = Cpu.id cpu then
    invalid_arg (Printf.sprintf "Spinlock.acquire: %s already held by cpu%d"
                   t.name (Cpu.id cpu));
  cpu.Cpu.note <- t.note_acquire;
  let contended = ref false in
  let wait_started = Cpu.now cpu in
  Cpu.prof_enter cpu Instrument.Profile.Lock_spin;
  (* No effect is performed between the final emptiness check and taking
     ownership, so the test-and-set below is atomic in simulated time.
     Under a model-checking explorer a free lock may also be *deferred*
     (one more spin before the grab) — the schedule where another CPU's
     test-and-set wins the race.  Each retry re-consults, and the spin
     advances time, so deferral is bounded by the run's event budget. *)
  let rec wait () =
    let defer =
      t.holder < 0
      &&
      match Engine.explore cpu.Cpu.eng with
      | None -> false
      | Some ex -> Explore.choose ex Explore.Lock 2 = 1
    in
    if t.holder >= 0 || defer then begin
      contended := true;
      Cpu.spin_poll_masked cpu;
      wait ()
    end
    else t.holder <- Cpu.id cpu
  in
  wait ();
  Cpu.prof_leave cpu;
  Cpu.prof_observe cpu ~name:"lock/wait_us" (Cpu.now cpu -. wait_started);
  t.acquired_at <- Cpu.now cpu;
  cpu.Cpu.note <- t.note_holding;
  if !contended then t.contentions <- t.contentions + 1;
  t.acquisitions <- t.acquisitions + 1;
  (* Cost of the interlocked test-and-set that succeeded. *)
  Cpu.raw_delay cpu (Cpu.params cpu).Params.lock_cost;
  Bus.access cpu.Cpu.bus ~who:(Cpu.id cpu) ();
  (* Injected lock-holder preemption: the holder keeps the lock but stops
     making progress, stretching the critical section while every
     contender spins at raised IPL. *)
  (match cpu.Cpu.fault with
  | Some f -> (
      match Fault.lock_preemption f with
      | Some d -> Cpu.raw_delay cpu d
      | None -> ())
  | None -> ());
  saved

let release t (cpu : Cpu.t) ~saved_ipl =
  if t.holder <> Cpu.id cpu then
    invalid_arg (Printf.sprintf "Spinlock.release: %s not held by cpu%d"
                   t.name (Cpu.id cpu));
  Cpu.prof_observe cpu ~name:"lock/hold_us" (Cpu.now cpu -. t.acquired_at);
  Cpu.raw_delay cpu (Cpu.params cpu).Params.lock_cost;
  Bus.access cpu.Cpu.bus ~who:(Cpu.id cpu) ();
  t.holder <- -1;
  Cpu.restore_ipl cpu saved_ipl
