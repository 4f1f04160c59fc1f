(* Per-CPU simulated-time attribution for the contention profiler.

   Every clock advance a CPU makes is classified into one of the buckets
   below.  Producers (Sim.Cpu, Sim.Bus, Sim.Spinlock) hold an optional
   [t] and account only when one is attached, and the shootdown
   protocol's brackets come from its probe stream ([probe_observer]), so
   the no-profiler cost is a single branch — the same contract as
   tracing.

   Classification is a per-CPU category stack: [enter]/[leave] bracket a
   region (lock spin, ack-barrier wait, interrupt dispatch, queue drain)
   and [account] charges a clock advance to the top of the stack
   (Compute when empty).  Bus stalls are charged directly to Bus_wait by
   Sim.Bus, bypassing the stack — a bus transaction issued from a spin
   loop is bus time, not spin time.  The categories are therefore
   disjoint, and whatever the hooks never see (blocked or idle
   coroutines) is the Idle remainder: total - attributed.

   Named histograms (lock wait/hold, bus queue depth, IPI delivery
   latency, shootdown phases) ride along; both the buckets and the
   histograms merge exactly across trials, like Metrics.merge, so
   `--jobs N` sweeps stay deterministic. *)

type category =
  | Compute
  | Lock_spin
  | Ack_wait
  | Bus_wait
  | Interconnect_wait
  | Intr_dispatch
  | Queue_drain

let categories =
  [
    Compute;
    Lock_spin;
    Ack_wait;
    Bus_wait;
    Interconnect_wait;
    Intr_dispatch;
    Queue_drain;
  ]

let category_name = function
  | Compute -> "compute"
  | Lock_spin -> "lock_spin"
  | Ack_wait -> "ack_wait"
  | Bus_wait -> "bus_wait"
  | Interconnect_wait -> "interconnect_wait"
  | Intr_dispatch -> "intr_dispatch"
  | Queue_drain -> "queue_drain"

let category_index = function
  | Compute -> 0
  | Lock_spin -> 1
  | Ack_wait -> 2
  | Bus_wait -> 3
  | Interconnect_wait -> 4
  | Intr_dispatch -> 5
  | Queue_drain -> 6

let ncategories = List.length categories

type t = {
  ncpus : int;
  buckets : float array array; (* ncategories x ncpus, accumulated us *)
  stacks : (category * float) list array; (* (category, entered-at) *)
  mutable total : float; (* per-CPU simulated time; summed over merges *)
  histograms : (string, Histogram.t) Hashtbl.t;
  mutable tracer : Trace.t option; (* receives "prof.*" slices on leave *)
  mutable cluster_map : int array option;
      (* cpu -> cluster, for per-cluster report sections; attribution
         itself stays per-CPU, so merges are unaffected *)
}

let create ~ncpus () =
  if ncpus < 1 then invalid_arg "Profile.create: need at least one CPU";
  {
    ncpus;
    buckets = Array.make_matrix ncategories ncpus 0.0;
    stacks = Array.make ncpus [];
    total = 0.0;
    histograms = Hashtbl.create 16;
    tracer = None;
    cluster_map = None;
  }

let ncpus t = t.ncpus
let set_tracer t tr = t.tracer <- tr

(* Per-cluster attribution is derived from the per-CPU buckets at report
   time, so setting (or not setting) the map changes no accounting and
   no merge semantics. *)
let set_clusters t map =
  if Array.length map <> t.ncpus then
    invalid_arg "Profile.set_clusters: map length must equal ncpus";
  t.cluster_map <- Some (Array.copy map)

let nclusters t =
  match t.cluster_map with
  | None -> 1
  | Some map -> 1 + Array.fold_left max 0 map

let in_range t cpu = cpu >= 0 && cpu < t.ncpus

let enter t ~cpu ~at cat =
  if in_range t cpu then t.stacks.(cpu) <- (cat, at) :: t.stacks.(cpu)

(* Pop the innermost region; when a tracer is attached the region is also
   emitted as a "prof.<category>" slice so the Perfetto timeline shows
   where each CPU's time went between the protocol events. *)
let leave t ~cpu ~at =
  if in_range t cpu then
    match t.stacks.(cpu) with
    | [] -> ()
    | (cat, since) :: rest -> (
        t.stacks.(cpu) <- rest;
        match t.tracer with
        | Some tr when at -. since > 0.0 ->
            Trace.emit tr
              ~name:("prof." ^ category_name cat)
              ~cpu ~at:since ~dur:(at -. since) ()
        | _ -> ())

let current t ~cpu =
  if in_range t cpu then
    match t.stacks.(cpu) with (cat, _) :: _ -> cat | [] -> Compute
  else Compute

let account_as t ~cpu cat dt =
  if in_range t cpu && dt > 0.0 then
    let row = t.buckets.(category_index cat) in
    row.(cpu) <- row.(cpu) +. dt

let account t ~cpu dt = account_as t ~cpu (current t ~cpu) dt

let histogram t ~name = Hashtbl.find_opt t.histograms name

let observe t ~name v =
  let h =
    match Hashtbl.find_opt t.histograms name with
    | Some h -> h
    | None ->
        let h = Histogram.create () in
        Hashtbl.add t.histograms name h;
        h
  in
  Histogram.observe h v

(* The shootdown protocol's brackets and phase samples, folded from its
   probe stream: the initiator's barrier and every responder/idle stall
   are Ack_wait, executing queued actions is Queue_drain, and the
   shoot/* histograms sample the initiator (lock to barrier done, for
   rounds that targeted an active processor), the barrier, the update
   and each responder activation that did work.  The pairing timestamps
   live here, per CPU; [nan] marks a phase not in progress. *)
let probe_observer t =
  let since () = Array.make t.ncpus nan in
  let locked = since () and barrier = since () and update = since () in
  let entered = since () and worked = Array.make t.ncpus false in
  let sample name ~at start =
    if not (Float.is_nan start) then observe t ~name (at -. start)
  in
  fun (p : Probe.t) ->
    match p with
    | Round_lock { cpu; at } -> locked.(cpu) <- at
    | Barrier_start { cpu; at } ->
        enter t ~cpu ~at Ack_wait;
        barrier.(cpu) <- at
    | Barrier_done { cpu; at; shot } ->
        if not (Float.is_nan barrier.(cpu)) then leave t ~cpu ~at;
        sample "shoot/barrier_us" ~at barrier.(cpu);
        barrier.(cpu) <- nan;
        if shot > 0 then sample "shoot/initiator_us" ~at locked.(cpu);
        update.(cpu) <- at
    | Round_no_shoot { cpu; at } -> update.(cpu) <- at
    | Update_done { cpu; at } ->
        sample "shoot/update_us" ~at update.(cpu);
        update.(cpu) <- nan
    | Stall_start { cpu; at } -> enter t ~cpu ~at Ack_wait
    | Drain_start { cpu; at } -> enter t ~cpu ~at Queue_drain
    | Stall_end { cpu; at } | Drain_end { cpu; at } -> leave t ~cpu ~at
    | Responder_enter { cpu; at; _ } ->
        entered.(cpu) <- at;
        worked.(cpu) <- false
    | Responder_done { cpu; _ } -> worked.(cpu) <- true
    | Responder_exit { cpu; at } ->
        if worked.(cpu) then sample "shoot/responder_us" ~at entered.(cpu)
    | Round_start _ | Round_shoot _ | Round_abort _ | Initiator_start _
    | Queue_action _ | Ipi_posted _ | Watchdog_retry _ | Watchdog_escalate _
    | Round_unlock _ | Round_end _ | Responder_ack _ | Responder_drain _
    | Idle_drain _ | Tlb _ ->
        ()

let get t ~cpu cat =
  if in_range t cpu then t.buckets.(category_index cat).(cpu) else 0.0

let attributed t ~cpu =
  List.fold_left (fun acc cat -> acc +. get t ~cpu cat) 0.0 categories

let category_total t cat =
  Array.fold_left ( +. ) 0.0 t.buckets.(category_index cat)

let cluster_total t ~cluster cat =
  match t.cluster_map with
  | None -> if cluster = 0 then category_total t cat else 0.0
  | Some map ->
      let row = t.buckets.(category_index cat) in
      let acc = ref 0.0 in
      Array.iteri
        (fun cpu c -> if c = cluster then acc := !acc +. row.(cpu))
        map;
      !acc

let attributed_total t =
  List.fold_left (fun acc cat -> acc +. category_total t cat) 0.0 categories

let set_total t v = t.total <- v
let total t = t.total
let idle t ~cpu = t.total -. attributed t ~cpu

let merge ~into src =
  if into.ncpus <> src.ncpus then
    invalid_arg "Profile.merge: CPU counts differ";
  Array.iteri
    (fun c row ->
      Array.iteri (fun i v -> row.(i) <- row.(i) +. v) src.buckets.(c))
    into.buckets;
  into.total <- into.total +. src.total;
  (match (into.cluster_map, src.cluster_map) with
  | None, Some map -> into.cluster_map <- Some (Array.copy map)
  | _ -> ());
  let names = Hashtbl.fold (fun k _ acc -> k :: acc) src.histograms [] in
  List.iter
    (fun name ->
      let h = Hashtbl.find src.histograms name in
      match Hashtbl.find_opt into.histograms name with
      | Some dst -> Histogram.merge ~into:dst h
      | None ->
          let dst = Histogram.create () in
          Histogram.merge ~into:dst h;
          Hashtbl.add into.histograms name dst)
    (List.sort compare names)

let sorted_histograms t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.histograms []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let to_json t =
  let cpu_row cpu =
    Json.Obj
      (("cpu", Json.Int cpu)
      :: List.map
           (fun cat -> (category_name cat, Json.Float (get t ~cpu cat)))
           categories
      @ [ ("idle", Json.Float (idle t ~cpu)) ])
  in
  Json.Obj
    ([
       ("schema", Json.Str "tlbshoot-profile-v1");
       ("ncpus", Json.Int t.ncpus);
       ("total_us", Json.Float t.total);
       ( "totals",
         Json.Obj
           (List.map
              (fun cat ->
                (category_name cat, Json.Float (category_total t cat)))
              categories
           @ [
               ( "idle",
                 Json.Float
                   ((t.total *. float_of_int t.ncpus) -. attributed_total t) );
             ]) );
       ("cpus", Json.List (List.init t.ncpus cpu_row));
     ]
    (* per-cluster attribution, emitted only on a clustered machine so
       flat-profile JSON keeps its historical shape *)
    @ (if nclusters t <= 1 then []
       else
         [
           ( "clusters",
             Json.List
               (List.init (nclusters t) (fun c ->
                    Json.Obj
                      (("cluster", Json.Int c)
                      :: List.map
                           (fun cat ->
                             ( category_name cat,
                               Json.Float (cluster_total t ~cluster:c cat) ))
                           categories))) );
         ])
    @ [
        ( "histograms",
          Json.Obj
            (List.map
               (fun (name, h) -> (name, Histogram.to_json h))
               (sorted_histograms t)) );
      ])
