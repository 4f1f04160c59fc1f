(* The memory interconnect, modelled as FCFS servers.

   Flat topology (the 1989 Multimax, [Params.flat_topology]): one shared
   bus, one server.  Every synchronization-related memory reference
   (spinlock operations, action-queue writes, interrupt state saves
   through the write-through caches, page-table walks) is a transaction.
   Queueing behind a busy bus is what produces the congestion knee above
   ~12 processors in Figure 2 — it is emergent, not hard-coded.

   Clustered topology ([Params.topology.cluster_size] > 0): each cluster
   of CPUs has its own local bus, joined by one FCFS interconnect.  A
   transaction whose memory lives on another node crosses three servers
   in sequence — local bus, interconnect (plus a fixed wire latency),
   remote bus (slower by [node_memory_cost] per transaction).  Callers
   say where the memory lives with [?home] (a CPU id on the owning
   node); the default is the issuer's own node, so all the historical
   call sites model node-local traffic unchanged.

   With a single cluster the code takes the flat branch, which performs
   the exact float operations of the historical single-server bus —
   baseline smoke reports stay byte-identical. *)

type server = {
  per : float; (* us per transaction *)
  mutable busy_until : float;
  mutable transactions : int;
  mutable total_wait : float; (* accumulated queueing delay *)
  mutable total_busy : float; (* accumulated service time *)
}

let make_server per =
  { per; busy_until = 0.0; transactions = 0; total_wait = 0.0; total_busy = 0.0 }

type t = {
  eng : Engine.t;
  service : float; (* local-bus us per transaction *)
  local : server array; (* one per cluster; length 1 = flat *)
  xbar : server option; (* inter-cluster interconnect; None when flat *)
  cluster_size : int;
  remote_latency : float;
  node_memory_cost : float;
  mutable profile : Instrument.Profile.t option;
      (* contention profiler; None (and cost-free) unless attached *)
}

let create eng (params : Params.t) =
  let nclusters = Params.clusters params in
  {
    eng;
    service = params.bus_service;
    local = Array.init nclusters (fun _ -> make_server params.bus_service);
    xbar =
      (if nclusters > 1 then
         Some (make_server params.topology.Params.interconnect_service)
       else None);
    cluster_size = params.topology.Params.cluster_size;
    remote_latency = params.topology.Params.remote_latency;
    node_memory_cost = params.topology.Params.node_memory_cost;
    profile = None;
  }

let set_profile t profile = t.profile <- profile
let clusters t = Array.length t.local
let clustered t = Array.length t.local > 1

(* Unattributed traffic (cpu < 0) is homed on cluster 0, where the
   kernel's shared structures live. *)
let cluster_of_cpu t cpu =
  if clustered t && cpu >= 0 then cpu / t.cluster_size else 0

let home_cpu t ~cluster = cluster * t.cluster_size

(* Occupy [srv] for [n] back-to-back transactions starting no earlier
   than [at]; returns (start, finish).  The caller decides who (if
   anyone) waits for the finish time. *)
let serve srv ~at ~per n =
  let start = if srv.busy_until > at then srv.busy_until else at in
  let service = per *. float_of_int n in
  srv.busy_until <- start +. service;
  srv.transactions <- srv.transactions + n;
  srv.total_wait <- srv.total_wait +. (start -. at);
  srv.total_busy <- srv.total_busy +. service;
  (start, srv.busy_until)

(* Perform [n] back-to-back transactions; the caller's coroutine is delayed
   for queueing plus service time.  [who] is the issuing CPU, for the
   profiler's Bus_wait attribution; pass -1 (the default) for traffic not
   chargeable to one CPU.  [home] is a CPU id on the node owning the
   memory (default: the issuer's node). *)
let access t ?(n = 1) ?(who = -1) ?home () =
  if n > 0 then begin
    let now = Engine.now t.eng in
    match t.xbar with
    | None ->
        (* Flat: the historical single FCFS server, float for float. *)
        let start, fin = serve t.local.(0) ~at:now ~per:t.service n in
        (match t.profile with
        | Some prof ->
            (* The full stall — queueing plus service — is bus time for the
               issuer; the queue depth seen at enqueue is the congestion
               signal behind the Figure-2 knee. *)
            Instrument.Profile.account_as prof ~cpu:who
              Instrument.Profile.Bus_wait (fin -. now);
            Instrument.Profile.observe prof ~name:"bus/queue_depth"
              ((start -. now) /. t.service)
        | None -> ());
        Engine.delay (fin -. now)
    | Some xbar ->
        let kc = cluster_of_cpu t who in
        let hc = match home with None -> kc | Some h -> cluster_of_cpu t h in
        let start, t1 = serve t.local.(kc) ~at:now ~per:t.service n in
        if hc = kc then begin
          (match t.profile with
          | Some prof ->
              Instrument.Profile.account_as prof ~cpu:who
                Instrument.Profile.Bus_wait (t1 -. now);
              Instrument.Profile.observe prof ~name:"bus/queue_depth"
                ((start -. now) /. t.service)
          | None -> ());
          Engine.delay (t1 -. now)
        end
        else begin
          (* Remote: local bus, then the interconnect (plus the wire
             latency), then the remote node's bus at remote-memory cost. *)
          let xstart, t2 = serve xbar ~at:t1 ~per:xbar.per n in
          let t3 = t2 +. t.remote_latency in
          let _, t4 =
            serve t.local.(hc) ~at:t3 ~per:(t.service +. t.node_memory_cost) n
          in
          (match t.profile with
          | Some prof ->
              Instrument.Profile.account_as prof ~cpu:who
                Instrument.Profile.Bus_wait
                ((t1 -. now) +. (t4 -. t3));
              Instrument.Profile.account_as prof ~cpu:who
                Instrument.Profile.Interconnect_wait (t3 -. t1);
              Instrument.Profile.observe prof ~name:"bus/queue_depth"
                ((start -. now) /. t.service);
              Instrument.Profile.observe prof ~name:"interconnect/queue_depth"
                ((xstart -. t1) /. xbar.per)
          | None -> ());
          Engine.delay (t4 -. now)
        end
  end

(* Consume bandwidth without delaying any coroutine — used for DMA-like
   background traffic.  Clustered, a remote post books all three hops. *)
let post_async t ?(who = -1) ?home ~n () =
  if n > 0 then begin
    let now = Engine.now t.eng in
    match t.xbar with
    | None ->
        let s = t.local.(0) in
        let start = if s.busy_until > now then s.busy_until else now in
        let service = t.service *. float_of_int n in
        s.busy_until <- start +. service;
        s.transactions <- s.transactions + n;
        s.total_busy <- s.total_busy +. service
    | Some xbar ->
        let kc = cluster_of_cpu t who in
        let hc = match home with None -> kc | Some h -> cluster_of_cpu t h in
        let _, t1 = serve t.local.(kc) ~at:now ~per:t.service n in
        if hc <> kc then begin
          let _, t2 = serve xbar ~at:t1 ~per:xbar.per n in
          ignore
            (serve t.local.(hc)
               ~at:(t2 +. t.remote_latency)
               ~per:(t.service +. t.node_memory_cost)
               n)
        end
  end

(* Aggregates over the local (cluster) buses; flat = the single bus. *)
let sum_local f t = Array.fold_left (fun acc s -> acc + f s) 0 t.local
let sumf_local f t = Array.fold_left (fun acc s -> acc +. f s) 0.0 t.local
let transactions t = sum_local (fun s -> s.transactions) t
let total_wait t = sumf_local (fun s -> s.total_wait) t
let total_busy t = sumf_local (fun s -> s.total_busy) t
