(* Append-only event log in the style of the Mach xpr package the paper's
   measurements were taken with: each record carries an event code, the
   processor number, a microsecond timestamp and a few integer arguments.

   The shootdown code logs two event kinds (paper section 6):
   - initiator: kernel-or-user flag, pages involved, processors shot at,
     elapsed time until the initiator may change the pmap;
   - responder: elapsed time in the interrupt service routine (recorded on
     a fixed subset of processors to avoid lock-contention perturbation). *)

type code = Shoot_initiator | Shoot_responder

type event = {
  code : code;
  cpu : int;
  timestamp : float; (* microseconds *)
  arg1 : int;
  arg2 : int;
  arg3 : int;
  farg : float; (* elapsed-time argument *)
}

type t = { mutable rev_events : event list (* newest first *) }

let create () = { rev_events = [] }

let record t ~code ~cpu ~timestamp ?(arg1 = 0) ?(arg2 = 0) ?(arg3 = 0)
    ?(farg = 0.0) () =
  let e = { code; cpu; timestamp; arg1; arg2; arg3; farg } in
  t.rev_events <- e :: t.rev_events

let events_with_code t code =
  List.fold_left
    (fun acc e -> if e.code = code then e :: acc else acc)
    [] t.rev_events
