(* perfbench: run one benchmark workload and print its metrics.

     main.exe --workload rounds --seed 1 --seconds 20 --trace 0

   prints a line per metric with its unit and, last, one JSON object
   {"correct", "attempted", "failed", "metrics"}.  [--trace 1] reports the
   per-layer metrics instead and writes the recorded spans to
   [--spans-dir] (default .bench_out). *)

open Perfbench

let usage () =
  prerr_endline
    "usage: main.exe --workload (rounds|apps|batched|modelcheck) --seed N --seconds S \
     --trace (0|1) [--spans-dir DIR]";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        parse ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get key = match List.assoc_opt key opts with Some v -> v | None -> usage () in
  let int key = match int_of_string_opt (get key) with Some n -> n | None -> usage () in
  let workload =
    match Suite.find (get "workload") with Some w -> w | None -> usage ()
  in
  let seed = int "seed" in
  let seconds = float_of_int (int "seconds") in
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  let spans_dir = Option.value ~default:".bench_out" (List.assoc_opt "spans-dir" opts) in
  let spans_file =
    if not trace then None
    else begin
      if not (Sys.file_exists spans_dir) then Sys.mkdir spans_dir 0o755;
      Some
        (Filename.concat spans_dir
           (Printf.sprintf "spans-%s-%d.json" workload.Suite.name seed))
    end
  in
  let r = Runner.run workload ~seed ~seconds ~trace ~spans_file in
  List.iter print_endline r.Runner.notes;
  List.iter
    (fun ((x : Runner.metric), v) -> Printf.printf "%-32s %.6g %s\n" x.name v x.unit_)
    r.Runner.metrics;
  print_endline (Instrument.Json.to_string ~minify:true (Runner.to_json r))
