(* Choice points for the stateless model checker.

   An explorer is a prefix-driven oracle: the controlled scheduler (and
   the interrupt/spinlock hooks) call [choose] wherever the simulation
   could legally go more than one way.  Positions covered by [prefix]
   replay a previously recorded schedule; positions past it take
   alternative 0, which is defined at every choice point to be the
   uncontrolled engine's own behaviour (FIFO tie-break, immediate lock
   grab, immediate interrupt delivery).  The DFS driver in [Check]
   re-runs the simulation once per prefix and reads the recorded
   decision log to know where it can branch next.

   This module is deliberately free of simulator dependencies so the
   engine, CPUs and locks can all consult it without cycles. *)

type kind = Tie | Lock | Intr

type decision = { d_kind : kind; d_alts : int; d_chosen : int }

type t = {
  prefix : int array;
  max_decisions : int;
  mutable armed : bool;
      (* until armed, every choice silently takes the baseline branch;
         scenarios arm at the start of the protocol window under test so
         the whole position space (and the DFS depth budget) covers the
         interesting choices, not the deterministic warm-up *)
  mutable pos : int; (* next decision position *)
  mutable log_rev : decision list;
  mutable truncated : bool; (* a choice fell past [max_decisions] *)
  mutable consulted : int; (* all calls, including forced ones *)
  mutable elided : int; (* inert same-time events never branched on *)
  mutable on_choice : (int -> unit) option;
      (* fired with the position before each real (n > 1) decision; the
         DFS driver uses it to fingerprint states for pruning *)
}

let create ?(max_decisions = 4096) ?(prefix = [||]) ?(armed = true) () =
  {
    prefix;
    max_decisions;
    armed;
    pos = 0;
    log_rev = [];
    truncated = false;
    consulted = 0;
    elided = 0;
    on_choice = None;
  }

let arm t = t.armed <- true

let choose t kind n =
  t.consulted <- t.consulted + 1;
  if (not t.armed) || n <= 1 then 0
  else if t.pos >= t.max_decisions then begin
    (* Past the horizon every choice silently defaults; the flag tells
       the driver the tail of this schedule was not fully controlled. *)
    t.truncated <- true;
    0
  end
  else begin
    (match t.on_choice with Some f -> f t.pos | None -> ());
    let c =
      if t.pos < Array.length t.prefix then begin
        let p = t.prefix.(t.pos) in
        (* A replayed prefix can be stale against a mutated program (the
           same position may offer fewer alternatives); clamp rather than
           crash so counterexample replay stays best-effort robust. *)
        if p < 0 then 0 else if p >= n then n - 1 else p
      end
      else 0
    in
    t.log_rev <- { d_kind = kind; d_alts = n; d_chosen = c } :: t.log_rev;
    t.pos <- t.pos + 1;
    c
  end

let note_elision t n = if n > 0 then t.elided <- t.elided + n
let set_observer t f = t.on_choice <- f
let decisions t = List.rev t.log_rev
let truncated t = t.truncated
let consulted t = t.consulted
let elided t = t.elided
