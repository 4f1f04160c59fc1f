(* Additional property tests over the core data structures: address
   arithmetic round trips, action-queue semantics against a reference,
   pv-lists against a reference multimap, and protection-lattice laws. *)

module Addr = Hw.Addr
module Action = Core.Action
module Pv_list = Core.Pv_list

(* ------------------------------------------------------------------ *)
(* Addr *)

let addr_roundtrip =
  QCheck.Test.make ~name:"vpn/addr round trip" ~count:500
    QCheck.(int_range 0 0xFFFFF)
    (fun vpn ->
      Addr.vpn_of_addr (Addr.addr_of_vpn vpn) = vpn
      && Addr.page_offset (Addr.addr_of_vpn vpn) = 0)

let addr_rounding =
  QCheck.Test.make ~name:"page rounding laws" ~count:500
    QCheck.(int_range 0 0xFFFFFFF)
    (fun a ->
      (* an address is its page's base (rounded down) plus an in-page
         offset *)
      let down = Addr.addr_of_vpn (Addr.vpn_of_addr a) in
      let off = Addr.page_offset a in
      down + off = a && down <= a && off >= 0 && off < Addr.page_size
      && Addr.page_offset down = 0)

let prot_of_int i =
  match i mod 3 with
  | 0 -> Addr.Prot_none
  | 1 -> Addr.Prot_read
  | _ -> Addr.Prot_read_write

let prot_lattice_laws =
  QCheck.Test.make ~name:"protection lattice laws" ~count:300
    QCheck.(pair small_nat small_nat)
    (fun (a, b) ->
      let pa = prot_of_int a and pb = prot_of_int b in
      let inter = Addr.prot_intersect pa pb in
      (* intersection grants nothing either side withholds *)
      Addr.prot_allows_subset ~outer:pa ~inner:inter
      && Addr.prot_allows_subset ~outer:pb ~inner:inter
      (* reduction is exactly "not a subset of the new rights" *)
      && Addr.prot_reduces ~from:pa ~to_:pb
         = not (Addr.prot_allows_subset ~outer:pb ~inner:pa))

(* ------------------------------------------------------------------ *)
(* Action queues vs a reference list *)

let action_queue_reference =
  QCheck.Test.make ~name:"action queue matches reference up to overflow"
    ~count:300
    QCheck.(pair (int_range 1 8) (small_list (int_range 0 100)))
    (fun (capacity, pushes) ->
      let q = Action.create_queue ~cpu_id:0 ~capacity in
      List.iter
        (fun lo ->
          Action.enqueue q (Action.Invalidate_range { space = 1; lo; hi = lo + 1 }))
        pushes;
      match Action.drain q with
      | `Actions actions ->
          List.length pushes <= capacity
          && List.map
               (function
                 | Action.Invalidate_range { lo; _ } -> lo
                 | Action.Flush_space _ -> -1)
               actions
             = pushes
      | `Flush_everything -> List.length pushes > capacity)

let action_queue_reusable =
  QCheck.Test.make ~name:"action queue reusable after drain" ~count:200
    QCheck.(int_range 1 6)
    (fun capacity ->
      let q = Action.create_queue ~cpu_id:0 ~capacity in
      (* overflow it, drain, then use normally *)
      for i = 0 to (2 * capacity) + 1 do
        Action.enqueue q (Action.Invalidate_range { space = 0; lo = i; hi = i + 1 })
      done;
      (match Action.drain q with `Flush_everything -> () | `Actions _ -> ());
      Action.enqueue q (Action.Flush_space 3);
      match Action.drain q with
      | `Actions [ Action.Flush_space 3 ] -> true
      | `Actions _ | `Flush_everything -> false)

(* ------------------------------------------------------------------ *)
(* Pv lists vs a reference association list *)

type pv_op = Pv_add of int * int * int | Pv_del of int * int * int

let pv_op_gen =
  QCheck.Gen.(
    map3
      (fun add pfn (pm, vpn) ->
        if add then Pv_add (pfn, pm, vpn) else Pv_del (pfn, pm, vpn))
      bool (int_range 0 20)
      (pair (int_range 0 3) (int_range 0 50)))

let pv_print = function
  | Pv_add (pfn, pm, vpn) -> Printf.sprintf "add(%d,%d,%d)" pfn pm vpn
  | Pv_del (pfn, pm, vpn) -> Printf.sprintf "del(%d,%d,%d)" pfn pm vpn

let pv_matches_reference ops =
  let pv = Pv_list.create () in
  let reference = Hashtbl.create 32 in
  let ref_get pfn = Option.value ~default:[] (Hashtbl.find_opt reference pfn) in
  List.iter
    (fun op ->
      match op with
      | Pv_add (pfn, pm, vpn) ->
          Pv_list.insert pv ~pfn ~pmap:pm ~vpn;
          Hashtbl.replace reference pfn ((pm, vpn) :: ref_get pfn)
      | Pv_del (pfn, pm, vpn) ->
          Pv_list.remove pv ~pfn ~pmap:pm ~vpn;
          Hashtbl.replace reference pfn
            (List.filter (fun e -> e <> (pm, vpn)) (ref_get pfn)))
    ops;
  (* counts must agree for every frame *)
  let ok = ref true in
  for pfn = 0 to 20 do
    (* the pv list keeps duplicates; the reference does too *)
    if Pv_list.mapping_count pv ~pfn <> List.length (ref_get pfn) then
      ok := false
  done;
  !ok

let pv_reference =
  QCheck.Test.make ~name:"pv list matches reference multimap" ~count:200
    (QCheck.make
       ~print:QCheck.Print.(list pv_print)
       QCheck.Gen.(list_size (int_range 0 40) pv_op_gen))
    pv_matches_reference

(* ------------------------------------------------------------------ *)
(* IPC copy round trip over random page patterns *)

let ipc_roundtrip seed =
  let params =
    {
      Sim.Params.default with
      seed = Int64.of_int (seed + 1);
      cost_jitter = 0.0;
      device_intr_rate = 0.0;
      spl_section_rate = 0.0;
    }
  in
  let machine = Vm.Machine.create ~params () in
  let vms = machine.Vm.Machine.vms in
  let ok = ref true in
  Vm.Machine.run machine (fun self ->
      let prng = Sim.Prng.create (Int64.of_int (seed * 13)) in
      let pages = 1 + Sim.Prng.int prng 6 in
      let sender = Vm.Task.create vms ~name:"s" in
      Vm.Task.adopt vms self sender;
      let src = Vm.Vm_map.allocate vms self sender.Vm.Task.map ~pages () in
      let values =
        Array.init pages (fun _ -> Sim.Prng.int prng 1_000_000)
      in
      Array.iteri
        (fun p v ->
          match
            Vm.Task.write_word vms self sender.Vm.Task.map
              (Addr.addr_of_vpn (src + p))
              v
          with
          | Ok () -> ()
          | Error _ -> ok := false)
        values;
      let receiver = Vm.Task.create vms ~name:"r" in
      match
        Vm.Ipc_copy.send_ool_data vms self ~sender ~src_vpn:src ~pages
          ~receiver
      with
      | Error `Incomplete_range -> ok := false
      | Ok dst ->
          Vm.Task.adopt vms self receiver;
          Array.iteri
            (fun p v ->
              match
                Vm.Task.read_word vms self receiver.Vm.Task.map
                  (Addr.addr_of_vpn (dst + p))
              with
              | Ok got -> if got <> v then ok := false
              | Error _ -> ok := false)
            values);
  !ok

let ipc_roundtrip_prop =
  QCheck.Test.make ~name:"ipc copy preserves every word" ~count:15
    QCheck.small_nat ipc_roundtrip

let () =
  Alcotest.run "properties"
    [
      ( "addr",
        List.map QCheck_alcotest.to_alcotest
          [ addr_roundtrip; addr_rounding; prot_lattice_laws ]
      );
      ( "action-queue",
        List.map QCheck_alcotest.to_alcotest
          [ action_queue_reference; action_queue_reusable ] );
      ("pv-list", List.map QCheck_alcotest.to_alcotest [ pv_reference ]);
      ("ipc", List.map QCheck_alcotest.to_alcotest [ ipc_roundtrip_prop ]);
    ]
