(* Extraction of shootdown measurements from an xpr buffer, in the shape
   the paper reports them: initiator events carry the kernel/user flag,
   page count, processor count and elapsed setup+synchronization time;
   responder events carry the interrupt-service elapsed time. *)

type initiator = {
  on_kernel_pmap : bool;
  pages : int;
  processors : int; (* processors shot at *)
  elapsed : float; (* us until the initiator could change the pmap *)
  at : float;
}

let initiators xpr =
  List.map
    (fun (e : Xpr.event) ->
      {
        on_kernel_pmap = e.arg1 = 1;
        pages = e.arg2;
        processors = e.arg3;
        elapsed = e.farg;
        at = e.timestamp;
      })
    (Xpr.events_with_code xpr Xpr.Shoot_initiator)

let responders xpr =
  List.map
    (fun (e : Xpr.event) -> e.farg)
    (Xpr.events_with_code xpr Xpr.Shoot_responder)

let kernel_initiators xpr =
  List.filter (fun i -> i.on_kernel_pmap) (initiators xpr)

let user_initiators xpr =
  List.filter (fun i -> not i.on_kernel_pmap) (initiators xpr)

let elapsed_of rows = List.map (fun i -> i.elapsed) rows
let pages_of rows = List.map (fun i -> float_of_int i.pages) rows
let processors_of rows = List.map (fun i -> float_of_int i.processors) rows

(* Total initiator overhead: number of events x average time. *)
let total_overhead rows =
  List.fold_left (fun acc i -> acc +. i.elapsed) 0.0 rows
