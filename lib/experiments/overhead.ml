(* Section 8: performance analysis.

   Two results are reproduced:

   1. Shootdown overhead as a fraction of CPU time, per application and
      per pmap kind.  Initiator time comes from the (complete) initiator
      records; responder time is scaled up pessimistically from the 5
      sampled processors to all 16, as the paper does.  Because the
      simulated workloads compress hours of production use into seconds,
      the raw percentages are also *density-normalized* to the paper's
      observed event rates (Mach: 7494 kernel shootdowns over a 20-minute
      build; Camelot: its user shootdowns over an hour), which is the
      honest apples-to-apples comparison for "~1 % kernel / <0.2 % user".

   2. The extrapolation: the fitted per-shootdown cost scales linearly
      with processors, giving about 6 ms for a basic shootdown at 100
      processors — the paper's warning about larger machines. *)

module Stats = Instrument.Stats
module Summary = Instrument.Summary
module Tablefmt = Instrument.Tablefmt

type app_overhead = {
  app : string;
  kernel_pct : float; (* raw: kernel initiators + kernel responders *)
  user_pct : float;
  kernel_events_per_busy_s : float;
  user_events_per_busy_s : float;
  kernel_cost_per_event : float; (* us, initiator + scaled responders *)
  user_cost_per_event : float;
}

type t = { apps : app_overhead list; fit : Stats.fit }

(* The paper's event densities, used for normalization: the Mach build ran
   ~20 minutes with an average of roughly 8 busy processors. *)
let paper_mach_kernel_density = 7494.0 /. (1200.0 *. 8.0) (* events per busy-second *)
let paper_camelot_user_density = 360.0 /. (3600.0 *. 3.0)

let of_report (params : Sim.Params.t) (r : Workloads.Driver.report) =
  let busy = r.Workloads.Driver.busy_time in
  let ki = Summary.total_overhead r.Workloads.Driver.kernel_initiators in
  let ui = Summary.total_overhead r.Workloads.Driver.user_initiators in
  (* Responder time is split between the kinds in proportion to their
     initiator counts. *)
  let resp_total = Workloads.Driver.scaled_responder_time params r in
  let kn = List.length r.Workloads.Driver.kernel_initiators in
  let un = List.length r.Workloads.Driver.user_initiators in
  let k_share =
    let total = kn + un in
    if total = 0 then 0.0 else float_of_int kn /. float_of_int total
  in
  let k_resp = resp_total *. k_share and u_resp = resp_total *. (1.0 -. k_share) in
  let pct x = if busy <= 0.0 then 0.0 else 100.0 *. x /. busy in
  let busy_s = busy /. 1e6 in
  {
    app = r.Workloads.Driver.name;
    kernel_pct = pct (ki +. k_resp);
    user_pct = pct (ui +. u_resp);
    kernel_events_per_busy_s =
      (if busy_s > 0.0 then float_of_int kn /. busy_s else 0.0);
    user_events_per_busy_s =
      (if busy_s > 0.0 then float_of_int un /. busy_s else 0.0);
    kernel_cost_per_event =
      (if kn = 0 then nan else (ki +. k_resp) /. float_of_int kn);
    user_cost_per_event =
      (if un = 0 then nan else (ui +. u_resp) /. float_of_int un);
  }

let of_apps ?(params = Sim.Params.production) (a : Apps.t) ~fit =
  { apps = List.map (of_report params) (Apps.all a); fit }

(* Overhead the paper would have seen: our per-event cost at the paper's
   event density. *)
let normalized_kernel_pct o =
  if Float.is_nan o.kernel_cost_per_event then 0.0
  else o.kernel_cost_per_event *. paper_mach_kernel_density /. 1e6 *. 100.0

let normalized_user_pct o =
  if Float.is_nan o.user_cost_per_event then 0.0
  else o.user_cost_per_event *. paper_camelot_user_density /. 1e6 *. 100.0

let render t =
  let table =
    Tablefmt.create ~title:"Section 8: Shootdown Overhead"
      ~headers:
        [
          "Application";
          "kernel %";
          "user %";
          "k-ev/busy-s";
          "u-ev/busy-s";
          "us/event";
          "paper-density k%";
          "paper-density u%";
        ]
  in
  List.iter
    (fun o ->
      Tablefmt.add_row table
        [
          o.app;
          Printf.sprintf "%.2f" o.kernel_pct;
          Printf.sprintf "%.2f" o.user_pct;
          Printf.sprintf "%.1f" o.kernel_events_per_busy_s;
          Printf.sprintf "%.1f" o.user_events_per_busy_s;
          (if Float.is_nan o.kernel_cost_per_event then Tablefmt.nm
           else Printf.sprintf "%.0f" o.kernel_cost_per_event);
          Printf.sprintf "%.2f" (normalized_kernel_pct o);
          Printf.sprintf "%.3f" (normalized_user_pct o);
        ])
    t.apps;
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Tablefmt.render table);
  Buffer.add_string buf
    "\n(The simulated workloads compress hours of production use into \
     seconds, so raw\npercentages overstate overhead; the paper-density \
     columns price our measured\nper-event cost at the paper's event \
     rates: ~1% kernel, <0.2% user.)\n";
  Buffer.add_string buf
    "\nExtrapolation of basic shootdown cost (initiator, from the Figure 2 \
     fit):\n";
  List.iter
    (fun n ->
      Buffer.add_string buf
        (Printf.sprintf "  %4d processors: %6.2f ms\n" n
           ((t.fit.Stats.intercept +. (t.fit.Stats.slope *. float_of_int n))
           /. 1000.0)))
    [ 16; 32; 64; 100; 200; 400 ];
  Buffer.add_string buf
    "paper: ~6 ms at 100 processors; user shootdowns manageable at a few \
     hundred\nprocessors, kernel shootdowns may need pool-structured \
     kernels.\n";
  Buffer.contents buf
