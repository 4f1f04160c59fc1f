(** The shootdown span stream (see [docs/OBSERVABILITY.md]): a consumer
    of the protocol's probe stream that emits each phase transition of
    the initiator and of every responder as a named [Instrument.Trace]
    span with typed attributes — [initiator.start], [initiator.ipi],
    [responder.ack], [tlb.flush], ... — for the [tlbshoot trace] views
    and the Perfetto export. *)

val observer : Instrument.Trace.t -> ncpus:int -> Instrument.Probe.t -> unit
(** [observer tr ~ncpus] folds one machine's probes into spans on [tr]
    ([Vm.Machine.attach_trace] subscribes it).  It keeps the per-CPU
    pairing timestamps that give [responder.ack] (since
    [responder.enter]) and [initiator.update-done] (since
    [initiator.start]) their [dur], so build one per machine. *)
