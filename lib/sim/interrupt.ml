(* Interrupt priority levels and pending-interrupt bookkeeping.

   The Multimax (like most machines of its era) delivered the shootdown
   interprocessor interrupt *below* device priority, so any kernel code
   running with device interrupts masked delays shootdown responders; the
   paper's section 9 proposes a software interrupt above device priority.
   Both wirings are supported via Params.high_priority_shootdown. *)

type level = int

let ipl_none : level = 0 (* nothing masked *)
let ipl_vm : level = 3 (* pmap/VM locks are taken at this level *)
let ipl_device : level = 4 (* device interrupts masked at or above *)
let ipl_high : level = 7 (* everything masked *)

type kind =
  | Shootdown (* TLB-consistency interprocessor interrupt *)
  | Device (* background device interrupt *)

(* The level at which a kind is delivered under the given parameters. *)
let level_of (params : Params.t) = function
  | Device -> ipl_device
  | Shootdown -> if params.high_priority_shootdown then ipl_high - 1 else ipl_vm

type pending = {
  kind : kind;
  level : level;
  posted_at : float; (* when the line was raised; feeds the profiler's
                        IPI delivery-latency histogram *)
}

(* A tiny pending set: at most one entry per kind is kept, matching real
   interrupt controllers where a posted-but-undelivered interrupt line does
   not stack.  One slot per kind — checked on every [Cpu.check_interrupts],
   so the representation is two fields probed with no allocation and no
   polymorphic comparison. *)
type controller = {
  mutable p_shootdown : pending option;
  mutable p_device : pending option;
}

let make_controller () = { p_shootdown = None; p_device = None }

let post ctl p =
  match p.kind with
  | Shootdown -> (
      match ctl.p_shootdown with
      | None -> ctl.p_shootdown <- Some p
      | Some _ -> ())
  | Device -> (
      match ctl.p_device with
      | None -> ctl.p_device <- Some p
      | Some _ -> ())

let has_pending ctl kind =
  match kind with
  | Shootdown -> ( match ctl.p_shootdown with Some _ -> true | None -> false)
  | Device -> ( match ctl.p_device with Some _ -> true | None -> false)

(* Highest-priority pending interrupt strictly above [ipl], if any.  The
   two kinds are never wired to the same level (Shootdown is ipl_vm or
   ipl_high - 1, Device is ipl_device), so there is no tie to break.
   Returns the stored option — no allocation on this per-slice path. *)
let deliverable ctl ~ipl =
  let s =
    match ctl.p_shootdown with
    | Some p when p.level > ipl -> ctl.p_shootdown
    | _ -> None
  in
  let d =
    match ctl.p_device with
    | Some p when p.level > ipl -> ctl.p_device
    | _ -> None
  in
  match (s, d) with
  | Some ps, Some pd -> if pd.level > ps.level then d else s
  | Some _, None -> s
  | None, r -> r

let take ctl p =
  match p.kind with
  | Shootdown -> ctl.p_shootdown <- None
  | Device -> ctl.p_device <- None
