(* Order statistics and the accuracy figure the benchmark reports. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> Float.nan
  | a ->
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Index of the first element of sorted [a] strictly greater than [v]. *)
let upper_bound a v =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) <= v then lo := mid + 1 else hi := mid
  done;
  !lo

type tail = {
  value : float;
  percentile : float;
  samples : int;
  beyond : int;  (** samples strictly above [value] *)
}

(* Percentiles a tail may be reported at, highest first.  A fixed ladder
   keeps the figure comparable between runs whose sample counts differ
   a little. *)
let ladder = [ 99.9; 99.0; 90.0; 50.0 ]

(* The tail of a latency distribution: the highest percentile of the
   ladder (nearest-rank) that still has at least [min_beyond] samples
   above it, so the figure never rests on a handful of outliers.  [None]
   when even the median has too few samples above it. *)
let tail ?(min_beyond = 10) xs =
  let a = sorted xs in
  let n = Array.length a in
  List.find_map
    (fun p ->
      if n = 0 then None
      else
        let i = max 0 (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1) in
        let beyond = n - upper_bound a a.(i) in
        if beyond >= min_beyond then Some { value = a.(i); percentile = p; samples = n; beyond }
        else None)
    ladder

let geomean = function
  | [] -> Float.nan
  | xs ->
      exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (List.length xs))

let mean = function
  | [] -> Float.nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Paper Figure 2: one k-processor shootdown costs about 430 + 55k us,
   fitted through k <= 12 (bus congestion bends the curve beyond). *)
let paper_intercept_us = 430.0
let paper_slope_us = 55.0
let fit_limit = 12

(* The model's error against Figure 2, in percent: the mean, over the
   k <= [fit_limit] that have samples, of the per-k mean latency's
   relative deviation from the paper's line.  [samples] are
   (k, initiator latency in us) pairs. *)
let paper_fit_err_pct samples =
  let sums = Array.make (fit_limit + 1) 0.0 in
  let counts = Array.make (fit_limit + 1) 0 in
  List.iter
    (fun (k, us) ->
      if k >= 1 && k <= fit_limit then begin
        sums.(k) <- sums.(k) +. us;
        counts.(k) <- counts.(k) + 1
      end)
    samples;
  List.init fit_limit succ
  |> List.filter_map (fun k ->
         if counts.(k) = 0 then None
         else
           let paper = paper_intercept_us +. (paper_slope_us *. float_of_int k) in
           Some (100.0 *. Float.abs ((sums.(k) /. float_of_int counts.(k)) -. paper) /. paper))
  |> mean

let ratio num den = if den = 0.0 then 0.0 else num /. den
