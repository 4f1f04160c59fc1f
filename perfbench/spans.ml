(* Host-time spans recorded from the benchmark's own code around each call
   into a layer of the simulator.  Spans are kept in memory and written
   out once, when the benchmark ends; recording is off (one branch per
   call) except during traced iterations.

   A span's parent is the innermost open span on the same domain, or the
   root span of the current trace (one trace per traced iteration) when a
   pool worker opens its first span. *)

module Json = Instrument.Json

type span = {
  id : int;
  parent : int;  (** 0 = none *)
  trace : int;
  name : string;
  start : float;  (** host seconds since the recorder started *)
  stop : float;
}

let enabled = Atomic.make false
let lock = Mutex.create ()
let next_id = Atomic.make 1
let recorded : span list ref = ref []
let origin = Unix.gettimeofday ()
let trace = Atomic.make 0
let trace_root = Atomic.make 0
let stack : int list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let now () = Unix.gettimeofday () -. origin

let push sp =
  Mutex.lock lock;
  recorded := sp :: !recorded;
  Mutex.unlock lock

let current_parent () =
  match Domain.DLS.get stack with p :: _ -> p | [] -> Atomic.get trace_root

(* A finished interval measured by the caller (e.g. machine boot time
   inside a workload run, taken from the workload's attach hook). *)
let record name ~start ~stop =
  if Atomic.get enabled then
    push
      {
        id = Atomic.fetch_and_add next_id 1;
        parent = current_parent ();
        trace = Atomic.get trace;
        name;
        start;
        stop;
      }

let span name f =
  if not (Atomic.get enabled) then f ()
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    let parent = current_parent () in
    let saved = Domain.DLS.get stack in
    Domain.DLS.set stack (id :: saved);
    let start = now () in
    let finish () =
      Domain.DLS.set stack saved;
      push { id; parent; trace = Atomic.get trace; name; start; stop = now () }
    in
    Fun.protect ~finally:finish f
  end

(* Run [f] as trace [n]: its root span is named [name], and every span
   [f] opens belongs to the trace and, failing a closer parent, hangs off
   that root. *)
let in_trace n name f =
  if not (Atomic.get enabled) then f ()
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    Atomic.set trace n;
    Atomic.set trace_root id;
    let start = now () in
    let finish () =
      push { id; parent = 0; trace = n; name; start; stop = now () };
      Atomic.set trace_root 0
    in
    Fun.protect ~finally:finish f
  end

let all () =
  Mutex.lock lock;
  let l = List.rev !recorded in
  Mutex.unlock lock;
  l

(* Per span name: count, total and self time (duration minus the part
   covered by child spans), in host milliseconds. *)
let summary spans =
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt child_time s.parent) in
      Hashtbl.replace child_time s.parent (prev +. (s.stop -. s.start)))
    spans;
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let dur = s.stop -. s.start in
      let self = dur -. Option.value ~default:0.0 (Hashtbl.find_opt child_time s.id) in
      let n, tot, slf =
        Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt by_name s.name)
      in
      Hashtbl.replace by_name s.name (n + 1, tot +. dur, slf +. self))
    spans;
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) by_name []
  |> List.sort compare

let to_json spans =
  let ms x = Json.Float (1000.0 *. x) in
  Json.Obj
    [
      ( "summary",
        Json.List
          (List.map
             (fun (name, (n, tot, self)) ->
               Json.Obj
                 [
                   ("name", Json.Str name);
                   ("count", Json.Int n);
                   ("total_ms", ms tot);
                   ("self_ms", ms self);
                 ])
             (summary spans)) );
      ( "spans",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("id", Json.Int s.id);
                   ("parent", Json.Int s.parent);
                   ("trace", Json.Int s.trace);
                   ("name", Json.Str s.name);
                   ("start_ms", ms s.start);
                   ("end_ms", ms s.stop);
                 ])
             spans) );
    ]
