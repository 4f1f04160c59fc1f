(** A complete simulated multiprocessor: CPUs on a shared bus, MMUs and
    TLBs, the pmap context with the shootdown algorithm installed, the
    scheduler (idle loops wired to the idle-processor optimisation), the
    VM state, the kernel map, and the background daemons. *)

type t = {
  params : Sim.Params.t;
  eng : Sim.Engine.t;
  bus : Sim.Bus.t;
  cpus : Sim.Cpu.t array;
  mmus : Hw.Mmu.t array;
  mem : Hw.Phys_mem.t;
  xpr : Instrument.Xpr.t;
  ctx : Core.Pmap.ctx;
  sched : Sim.Sched.t;
  vms : Vmstate.t;
  kernel_map : Vm_map.t;
}

val create : ?params:Sim.Params.t -> unit -> t
(** Boot a machine: defaults to the calibrated 16-CPU Multimax model. *)

exception Wedged of string
(** Raised when the event queue drains before the main thread finishes. *)

val run : ?bound:int -> t -> (Sim.Sched.thread -> unit) -> unit
(** Run [body] as the machine's "main" thread (optionally pinned to a
    CPU); returns after it finishes and the machine has been shut down.
    @raise Wedged on deadlock. *)

val now : t -> float
(** Simulated microseconds since boot. *)

val with_kernel_batch :
  t -> Sim.Sched.thread -> (Batch.t option -> 'a) -> 'a
(** Run [f] with a batch open on the kernel map when
    [Params.batch_shootdowns] is set ([f None] otherwise), finishing the
    batch — one coalesced shootdown round — on the way out. *)

val attach_profile : t -> Instrument.Profile.t -> unit
(** Attach a contention profiler to every CPU and the bus, and its
    shootdown brackets to the protocol's probe stream.  The profiler
    must have been created with [~ncpus] equal to this machine's CPU
    count.  Attachment is behaviour-neutral: the hooks add no simulated
    cost and draw nothing from any PRNG, so results stay byte-identical
    to an unprofiled run. *)

val attach_flight : t -> Instrument.Flight.t -> unit
(** Attach a per-round flight recorder to the protocol's probe stream:
    one causal record per consistency round (docs/TAIL.md).
    Behaviour-neutral under the same contract as {!attach_profile}. *)

val attach_trace : t -> Instrument.Trace.t -> unit
(** Attach a span tracer: the shootdown protocol's phase spans
    ([Core.Shoot_trace]) and the engine's coroutine spans.
    Behaviour-neutral under the same contract as {!attach_profile}.
    Consumers see each probe in attach order: to share the trace with a
    profiler's [prof.*] slices, attach the profiler first. *)

val total_busy_time : t -> float
(** Sum of per-CPU busy time, for overhead percentages. *)
