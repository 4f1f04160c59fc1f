(* Statistics used by the paper's evaluation: sample mean and standard
   deviation, medians and percentiles (the skew diagnostics of section 7.3),
   least-squares trend lines (Figure 2) and simple histograms (used to spot
   the bimodal Agora distribution). *)

type summary = {
  n : int;
  mean : float;
  std : float; (* sample standard deviation *)
  min : float;
  max : float;
  median : float;
  p10 : float;
  p90 : float;
}

let empty_summary =
  {
    n = 0;
    mean = nan;
    std = nan;
    min = nan;
    max = nan;
    median = nan;
    p10 = nan;
    p90 = nan;
  }

let mean xs =
  match xs with
  | [] -> nan
  | _ ->
      let n = List.length xs in
      List.fold_left ( +. ) 0.0 xs /. float_of_int n

let std xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ ->
      let n = float_of_int (List.length xs) in
      let m = mean xs in
      let ss = List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs in
      sqrt (ss /. (n -. 1.0))

(* Percentile with linear interpolation between closest ranks. *)
let percentile xs p =
  match xs with
  | [] -> nan
  | _ ->
      if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile";
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n = 1 then a.(0)
      else begin
        let rank = p /. 100.0 *. float_of_int (n - 1) in
        let lo = int_of_float (floor rank) in
        let hi = int_of_float (ceil rank) in
        let frac = rank -. float_of_int lo in
        a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
      end

let median xs = percentile xs 50.0

let summarize xs =
  match xs with
  | [] -> empty_summary
  | _ ->
      {
        n = List.length xs;
        mean = mean xs;
        std = std xs;
        min = List.fold_left min infinity xs;
        max = List.fold_left max neg_infinity xs;
        median = median xs;
        p10 = percentile xs 10.0;
        p90 = percentile xs 90.0;
      }

type fit = { slope : float; intercept : float; r2 : float }

(* Ordinary least squares y = intercept + slope * x. *)
let linear_fit points =
  let n = float_of_int (List.length points) in
  if n < 2.0 then invalid_arg "Stats.linear_fit: need at least two points";
  let sx = List.fold_left (fun a (x, _) -> a +. x) 0.0 points in
  let sy = List.fold_left (fun a (_, y) -> a +. y) 0.0 points in
  let sxx = List.fold_left (fun a (x, _) -> a +. (x *. x)) 0.0 points in
  let sxy = List.fold_left (fun a (x, y) -> a +. (x *. y)) 0.0 points in
  let denom = (n *. sxx) -. (sx *. sx) in
  if abs_float denom < 1e-12 then
    invalid_arg "Stats.linear_fit: degenerate x values";
  let slope = ((n *. sxy) -. (sx *. sy)) /. denom in
  let intercept = (sy -. (slope *. sx)) /. n in
  let ybar = sy /. n in
  let ss_tot =
    List.fold_left (fun a (_, y) -> a +. ((y -. ybar) ** 2.0)) 0.0 points
  in
  let ss_res =
    List.fold_left
      (fun a (x, y) -> a +. ((y -. intercept -. (slope *. x)) ** 2.0))
      0.0 points
  in
  let r2 = if ss_tot <= 0.0 then 1.0 else 1.0 -. (ss_res /. ss_tot) in
  { slope; intercept; r2 }

type histogram = { lo : float; bin_width : float; counts : int array }

let histogram ?(bins = 20) xs =
  match xs with
  | [] -> { lo = 0.0; bin_width = 1.0; counts = [||] }
  | _ ->
      let lo = List.fold_left min infinity xs in
      let hi = List.fold_left max neg_infinity xs in
      let width = if hi > lo then (hi -. lo) /. float_of_int bins else 1.0 in
      let counts = Array.make bins 0 in
      List.iter
        (fun x ->
          let b = int_of_float ((x -. lo) /. width) in
          let b = if b >= bins then bins - 1 else if b < 0 then 0 else b in
          counts.(b) <- counts.(b) + 1)
        xs;
      { lo; bin_width = width; counts }

(* Crude bimodality detector: the histogram has two local maxima separated
   by a bin at most half their height (enough to flag the Agora data). *)
let bimodal ?(bins = 10) xs =
  let h = histogram ~bins xs in
  let n = Array.length h.counts in
  if n < 3 then false
  else begin
    let peaks = ref [] in
    for i = 0 to n - 1 do
      let l = if i = 0 then 0 else h.counts.(i - 1) in
      let r = if i = n - 1 then 0 else h.counts.(i + 1) in
      if h.counts.(i) > l && h.counts.(i) >= r && h.counts.(i) > 0 then
        peaks := (i, h.counts.(i)) :: !peaks
    done;
    match List.rev !peaks with
    | (i1, c1) :: rest -> (
        match List.rev rest with
        | (i2, c2) :: _ when i2 > i1 + 2 ->
            let valley = ref max_int in
            for j = i1 + 1 to i2 - 1 do
              if h.counts.(j) < !valley then valley := h.counts.(j)
            done;
            (* well-separated peaks with a deep valley between them *)
            float_of_int !valley <= 0.35 *. float_of_int (min c1 c2)
            && min c1 c2 >= 3
        | _ -> false)
    | [] -> false
  end
