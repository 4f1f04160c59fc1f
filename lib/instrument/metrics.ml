(* Metrics registry for the observability layer: counters (monotonic
   event counts), gauges (last-written values, e.g. fit coefficients) and
   histograms (raw samples summarized with the paper's percentile set —
   mean±std, min/max, median, 10th and 90th percentiles).

   Snapshots serialize to JSON with names sorted, so the export schema is
   stable no matter the registration order. *)

type counter = { c_name : string; mutable count : int }
type gauge = { mutable value : float }
type histogram = { mutable samples : float list }

type metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

type t = { tbl : (string, metric) Hashtbl.t }

let create () = { tbl = Hashtbl.create 64 }

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let find_or_register t name make match_ =
  match Hashtbl.find_opt t.tbl name with
  | Some m -> (
      match match_ m with
      | Some v -> v
      | None ->
          invalid_arg
            (Printf.sprintf "Metrics: %S already registered as a %s" name
               (kind_name m)))
  | None ->
      let v = make () in
      v

let counter t name =
  find_or_register t name
    (fun () ->
      let c = { c_name = name; count = 0 } in
      Hashtbl.add t.tbl name (Counter c);
      c)
    (function Counter c -> Some c | _ -> None)

let gauge t name =
  find_or_register t name
    (fun () ->
      let g = { value = nan } in
      Hashtbl.add t.tbl name (Gauge g);
      g)
    (function Gauge g -> Some g | _ -> None)

let histogram t name =
  find_or_register t name
    (fun () ->
      let h = { samples = [] } in
      Hashtbl.add t.tbl name (Histogram h);
      h)
    (function Histogram h -> Some h | _ -> None)

let inc ?(by = 1) c = c.count <- c.count + by
let counter_name c = c.c_name

let set g v = g.value <- v

let observe h v = h.samples <- v :: h.samples
let observe_list h vs = List.iter (observe h) vs

let names t =
  List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.tbl [])

(* Merge [src] into [into] — how per-domain (or per-section) registries
   combine into the single exported report.  Counters add, gauges take
   the source value (last writer wins; an unset nan source is skipped),
   histograms append the source samples in their observation order.
   Sources are walked in sorted-name order, so merging the same set of
   registries always yields the same result no matter how trials were
   scheduled; a name registered as different kinds in the two registries
   raises Invalid_argument (via find_or_register). *)
let merge ~into src =
  List.iter
    (fun name ->
      match Hashtbl.find_opt src.tbl name with
      | None -> ()
      | Some (Counter c) -> inc ~by:c.count (counter into name)
      | Some (Gauge g) ->
          (* register the name even while unset, so the merged schema has
             every source gauge; only a *set* value overwrites *)
          let dst = gauge into name in
          if not (Float.is_nan g.value) then set dst g.value
      | Some (Histogram h) ->
          let dst = histogram into name in
          dst.samples <- List.rev_append (List.rev h.samples) dst.samples)
    (List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) src.tbl []))

(* ------------------------------------------------------------------ *)
(* JSON snapshot.  One object per metric, keyed by name in sorted order:

     "table2/Mach/events":  { "type": "counter", "value": 123 }
     "figure2/fit/slope":   { "type": "gauge", "value": 55.1 }
     "...elapsed_us":       { "type": "histogram", "n": ..., "mean": ...,
                              "std": ..., "min": ..., "max": ...,
                              "median": ..., "p10": ..., "p90": ... }   *)

let metric_to_json = function
  | Counter c ->
      Json.Obj [ ("type", Json.Str "counter"); ("value", Json.Int c.count) ]
  | Gauge g ->
      Json.Obj [ ("type", Json.Str "gauge"); ("value", Json.Float g.value) ]
  | Histogram h ->
      let s = Stats.summarize (List.rev h.samples) in
      Json.Obj
        [
          ("type", Json.Str "histogram");
          ("n", Json.Int s.Stats.n);
          ("mean", Json.Float s.Stats.mean);
          ("std", Json.Float s.Stats.std);
          ("min", Json.Float s.Stats.min);
          ("max", Json.Float s.Stats.max);
          ("median", Json.Float s.Stats.median);
          ("p10", Json.Float s.Stats.p10);
          ("p90", Json.Float s.Stats.p90);
        ]

let to_json t =
  Json.Obj
    (List.map
       (fun name -> (name, metric_to_json (Hashtbl.find t.tbl name)))
       (names t))
