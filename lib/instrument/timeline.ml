(* Windowed time-series telemetry over simulated time.

   A timeline buckets counter increments and latency samples into
   fixed-width windows of simulated microseconds, so a run can be read as
   rates over time (rounds/s, IPIs/s, elisions and retries per window)
   and as per-window latency quantiles (p50/p99 round latency) instead of
   one whole-run aggregate.  Two series kinds:

     - counter series: integer increments summed per window;
     - sample series: float observations collected per window into an
       HDR histogram (Histogram), from which the per-window quantiles
       are read.

   Everything is integers or exact integer-count histograms, so [merge]
   is exact and associative: merging the timelines of N trials in trial
   order produces identical bytes at any job count, the same contract as
   Metrics.merge and Profile.merge (docs/PARALLELISM.md).

   The export surfaces are [to_json] (schema tlbshoot-timeline-v1) and
   Perfetto counter tracks (Perfetto.timeline_to_string): one counter
   track per series, window start times as timestamps. *)

let default_window = 1_000.0 (* us: 1 simulated millisecond per window *)

type t = {
  window : float;
  counters : (string, (int, int ref) Hashtbl.t) Hashtbl.t;
  samples : (string, (int, Histogram.t) Hashtbl.t) Hashtbl.t;
}

let create ?(window = default_window) () =
  if window <= 0.0 then invalid_arg "Timeline.create: window must be positive";
  {
    window;
    counters = Hashtbl.create 8;
    samples = Hashtbl.create 4;
  }

let window t = t.window

(* Window index of a simulated timestamp.  Timestamps are nonnegative in
   every run; a (defensive) negative one lands in window 0 rather than
   crashing the recorder mid-run. *)
let index t ~at =
  if at <= 0.0 then 0 else int_of_float (Float.floor (at /. t.window))

let count t ~series ~at n =
  let windows =
    match Hashtbl.find_opt t.counters series with
    | Some w -> w
    | None ->
        let w = Hashtbl.create 64 in
        Hashtbl.add t.counters series w;
        w
  in
  let i = index t ~at in
  match Hashtbl.find_opt windows i with
  | Some r -> r := !r + n
  | None -> Hashtbl.add windows i (ref n)

let observe t ~series ~at v =
  let windows =
    match Hashtbl.find_opt t.samples series with
    | Some w -> w
    | None ->
        let w = Hashtbl.create 64 in
        Hashtbl.add t.samples series w;
        w
  in
  let i = index t ~at in
  let h =
    match Hashtbl.find_opt windows i with
    | Some h -> h
    | None ->
        let h = Histogram.create () in
        Hashtbl.add windows i h;
        h
  in
  Histogram.observe h v

let sorted_keys tbl = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl [])

let series_names t =
  List.sort_uniq compare
    (Hashtbl.fold (fun k _ acc -> k :: acc) t.counters
       (Hashtbl.fold (fun k _ acc -> k :: acc) t.samples []))

let counter_windows t ~series =
  match Hashtbl.find_opt t.counters series with
  | None -> []
  | Some w -> List.map (fun i -> (i, !(Hashtbl.find w i))) (sorted_keys w)

let sample_windows t ~series =
  match Hashtbl.find_opt t.samples series with
  | None -> []
  | Some w -> List.map (fun i -> (i, Hashtbl.find w i)) (sorted_keys w)

let counter_total t ~series =
  List.fold_left (fun acc (_, n) -> acc + n) 0 (counter_windows t ~series)

(* Exact element-wise merge, in caller order (into first, then src). *)
let merge ~into src =
  if into.window <> src.window then
    invalid_arg "Timeline.merge: window widths differ";
  Hashtbl.iter
    (fun series windows ->
      Hashtbl.iter
        (fun i n ->
          count into ~series ~at:(float_of_int i *. into.window) !n)
        windows)
    src.counters;
  Hashtbl.iter
    (fun series windows ->
      Hashtbl.iter
        (fun i h ->
          let dst =
            match Hashtbl.find_opt into.samples series with
            | Some w -> w
            | None ->
                let w = Hashtbl.create 64 in
                Hashtbl.add into.samples series w;
                w
          in
          match Hashtbl.find_opt dst i with
          | Some existing -> Histogram.merge ~into:existing h
          | None ->
              let fresh = Histogram.create () in
              Histogram.merge ~into:fresh h;
              Hashtbl.add dst i fresh)
        windows)
    src.samples

(* Per-second rate of a per-window count. *)
let per_second t n = float_of_int n /. t.window *. 1e6

let counter_series_json t series =
  let points =
    List.map
      (fun (i, n) ->
        Json.Obj
          [
            ("window", Json.Int i);
            ("t0_us", Json.Float (float_of_int i *. t.window));
            ("count", Json.Int n);
            ("per_s", Json.Float (per_second t n));
          ])
      (counter_windows t ~series)
  in
  Json.Obj
    [
      ("series", Json.Str series);
      ("kind", Json.Str "counter");
      ("total", Json.Int (counter_total t ~series));
      ("windows", Json.List points);
    ]

let sample_series_json t series =
  let points =
    List.map
      (fun (i, h) ->
        Json.Obj
          [
            ("window", Json.Int i);
            ("t0_us", Json.Float (float_of_int i *. t.window));
            ("count", Json.Int (Histogram.count h));
            ("p50", Json.Float (Histogram.quantile h 0.5));
            ("p99", Json.Float (Histogram.quantile h 0.99));
            ("mean", Json.Float (Histogram.mean h));
          ])
      (sample_windows t ~series)
  in
  Json.Obj
    [
      ("series", Json.Str series);
      ("kind", Json.Str "samples");
      ("windows", Json.List points);
    ]

let to_json t =
  let counters = List.map (counter_series_json t) (sorted_keys t.counters)
  and samples = List.map (sample_series_json t) (sorted_keys t.samples) in
  Json.Obj
    [
      ("schema", Json.Str "tlbshoot-timeline-v1");
      ("window_us", Json.Float t.window);
      ("series", Json.List (counters @ samples));
    ]
