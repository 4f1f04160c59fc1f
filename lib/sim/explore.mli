(** Choice points for the stateless model checker.

    An explorer turns the engine's fixed event order into a controlled
    one: wherever the simulation could legally go more than one way —
    same-instant event tie-breaks, grabbing vs. deferring a free
    spinlock, delivering vs. deferring a pending interrupt — the hook
    site calls {!choose} and obeys the answer.  Alternative [0] is
    always the uncontrolled engine's own behaviour, so an explorer with
    an empty prefix replays the baseline schedule exactly.

    The DFS driver in the [Check] library re-runs the whole simulation
    once per choice prefix and reads {!decisions} afterwards to learn
    where it can branch next.  Attaching an explorer is strictly opt-in:
    engines without one take a single [None] branch per event and
    behave byte-identically to previous releases. *)

type kind =
  | Tie  (** ordering of live events scheduled for the same instant *)
  | Lock  (** grab a free spinlock now, or spin once more first *)
  | Intr  (** deliver a pending deliverable interrupt, or defer it *)

type decision = {
  d_kind : kind;
  d_alts : int;  (** number of alternatives offered (at least 2) *)
  d_chosen : int;  (** the alternative taken, in [0, d_alts) *)
}

type t

val create : ?max_decisions:int -> ?prefix:int array -> ?armed:bool -> unit -> t
(** [create ~max_decisions ~prefix ()] makes an explorer that replays
    [prefix] (default empty) and defaults to alternative 0 afterwards.
    Decisions past [max_decisions] (default 4096) are not recorded and
    silently default — see {!truncated}.  With [~armed:false] the
    explorer starts dormant: every choice takes the baseline branch
    without consuming a position until {!arm} is called. *)

val arm : t -> unit
(** Start recording and branching.  Scenarios call this at the start of
    the protocol window under test, so the deterministic warm-up (task
    setup, thread announcement) costs no choice positions and the DFS
    depth budget covers only the choices that matter.  Arming must
    happen at a point the baseline schedule always reaches — everything
    before it is identical in every run, which is what keeps prefix
    positions aligned across runs. *)

val choose : t -> kind -> int -> int
(** [choose t kind n] records and returns the decision at the current
    position: the prefix value if the position is covered (clamped into
    [0, n)), else 0.  [n <= 1] means the site had no real choice; the
    call returns 0 without consuming a position. *)

val note_elision : t -> int -> unit
(** Count same-instant events recognised as inert (e.g. expired timers
    whose wakener already fired) and therefore excluded from a [Tie]
    choice — the harness's partial-order reduction statistic. *)

val set_observer : t -> (int -> unit) option -> unit
(** Install a callback fired with the decision position just before each
    real choice is made; the DFS driver uses it to fingerprint machine
    states for pruning.  [None] detaches. *)

val decisions : t -> decision list
(** The recorded decision log, in execution order. *)

val truncated : t -> bool
(** Whether any choice fell past [max_decisions] and defaulted. *)

val consulted : t -> int
(** Total [choose] calls, including forced ([n <= 1]) ones. *)

val elided : t -> int
(** Total inert events excluded from tie choices (see {!note_elision}). *)
