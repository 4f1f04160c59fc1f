(** The shootdown protocol's probe stream.

    [Core.Shootdown] emits one event at each point of the paper's
    Figure 1 protocol; the span stream ([Core.Shoot_trace]), the flight
    recorder ({!Flight.observe}) and the profiler's shootdown brackets
    ({!Profile.probe_observer}) are folds over it.  Every event carries
    its CPU and simulated time [at] (us).  docs/OBSERVABILITY.md
    tabulates what each event becomes in each consumer. *)

(** What kind of consistency round a [Round_start] opens. *)
type kind =
  | Round  (** an ordinary shootdown round (one pmap operation) *)
  | Gather_flush  (** a gather batch retiring its deferred ranges *)
  | Elided  (** replaced by a generation bump (no IPIs) *)

type t =
  | Round_start of {
      cpu : int;
      at : float;
      kind : kind;
      pmap : string;
      pages : int;
    }  (** the initiator enters the algorithm, before the pmap lock *)
  | Round_lock of { cpu : int; at : float }
  | Round_shoot of { cpu : int; at : float }
      (** the lazy check found a possible inconsistency *)
  | Round_no_shoot of { cpu : int; at : float }
      (** elided: a generation bump replaces the IPIs *)
  | Round_abort of { cpu : int; at : float }
      (** the lazy check proved no round necessary *)
  | Initiator_start of { cpu : int; at : float }
      (** the local TLB is clean; phase 1 queues actions next *)
  | Queue_action of {
      cpu : int;
      at : float;
      target : int;
      depth : int;  (** the target's queue depth, read under its lock *)
      overflow : bool;
    }
  | Ipi_posted of { cpu : int; at : float; target : int }
  | Barrier_start of { cpu : int; at : float }
  | Watchdog_retry of { cpu : int; at : float; target : int }
  | Watchdog_escalate of {
      cpu : int;
      at : float;
      target : int;  (** the abandoned CPU *)
      pmap : string;
      retries : int;
      phase : string;  (** [target]'s last protocol label *)
      note : string;  (** what [target] was last seen doing *)
    }
  | Barrier_done of { cpu : int; at : float; shot : int }
      (** phase 2 is over, whether or not anyone was waited for; [shot]
          counts the active processors the round targeted *)
  | Update_done of { cpu : int; at : float }
  | Round_unlock of { cpu : int; at : float }
  | Round_end of { cpu : int; at : float }
      (** before the initiator re-enables interrupts *)
  | Responder_enter of { cpu : int; at : float; posted : float }
      (** [posted]: the delivered interrupt's raise time, or [nan] *)
  | Responder_ack of { cpu : int; at : float }
  | Stall_start of { cpu : int; at : float }
      (** a responder's phase-2 stall, or the idle check's wait *)
  | Stall_end of { cpu : int; at : float }
  | Responder_drain of { cpu : int; at : float }
  | Drain_start of { cpu : int; at : float }
      (** this CPU starts executing its queued consistency actions *)
  | Drain_end of { cpu : int; at : float }
  | Responder_done of { cpu : int; at : float }
      (** not emitted for a spurious activation *)
  | Responder_exit of { cpu : int; at : float }
      (** the handler returns, after any interrupt it unmasked *)
  | Idle_drain of { cpu : int; at : float }
  | Tlb of { cpu : int; at : float; space : int; pages : int; flush : bool }
      (** TLB work on [cpu]: a flush ([space] -1: everything) or [pages]
          per-entry invalidations *)
