(** Chrome trace-event (Perfetto-loadable) export of a {!Trace} buffer.

    One thread track per CPU, plus a "global" track for spans with
    [cpu = -1]; duration-carrying spans become complete ("X") events and
    instants become thread-scoped "i" events.  Events are sorted by start
    time, so [ts] is monotonic within every track.  Open the output at
    {{:https://ui.perfetto.dev}ui.perfetto.dev} or chrome://tracing; see
    docs/PROFILING.md. *)

val to_string : ?process_name:string -> Trace.t -> string

val timeline_to_string : ?process_name:string -> Timeline.t -> string
