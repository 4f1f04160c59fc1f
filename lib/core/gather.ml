(* Deferred shootdown batching (docs/BATCHING.md), after Linux's
   mmu_gather: a batch accumulates unmap/protect operations against one
   pmap, applying the page-table changes eagerly (under the pmap lock,
   charged exactly like their unbatched equivalents) while deferring every
   TLB invalidation.  [flush] then retires all the accumulated ranges in a
   single consistency round — one lock/interrupt/quiesce cycle instead of
   one per operation.

   The contract is the mmu_gather contract: between an operation and the
   flush, stale translations may survive in any TLB (including the
   caller's own), so nothing freed by a batched operation may be reused
   until the batch flushes — the VM layer ([Vm.Batch]) quarantines
   virtual ranges and defers frame frees past the flush.  The batch
   registers itself in [ctx.open_batches] so the consistency oracle
   treats the in-flight ranges like a draining responder's queue: legal
   mid-protocol staleness.

   Lazy evaluation (paper section 7.2) is preserved per operation: a
   range the lazy check proves unmapped contributes nothing to the batch,
   exactly as the unbatched path would have skipped its shootdown.
   Overflow semantics are preserved by construction: [flush] queues one
   range action per coalesced range, so a batch larger than the
   fixed-size action queues latches the overflow flag and the responders
   fall back to flushing everything. *)

module Addr = Hw.Addr
module Page_table = Hw.Page_table

type t = {
  ctx : Pmap.ctx;
  pmap : Pmap.t;
  reg : Pmap.batch; (* our entry in ctx.open_batches *)
  mutable ranges : (Addr.vpn * Addr.vpn) list;
      (* pending invalidations: coalesced, sorted, disjoint *)
  mutable ops : int; (* operations queued since the last flush *)
  mutable pure_unmap : bool;
      (* every pending range came from an unmap — the batch-level
         flush-elision condition (docs/ELISION.md): a rights-reducing
         protect must run a real round, a batch of removals may retire
         by generation bump *)
  mutable finished : bool;
}

(* Insert [lo, hi) into a sorted disjoint range list, merging overlapping
   and adjacent ranges.  Pure; exposed for the coalescing tests. *)
let rec insert_range ranges ~lo ~hi =
  if hi <= lo then ranges
  else
    match ranges with
    | [] -> [ (lo, hi) ]
    | (l, h) :: rest ->
        if hi < l then (lo, hi) :: ranges
        else if h < lo then (l, h) :: insert_range rest ~lo ~hi
        else insert_range rest ~lo:(min lo l) ~hi:(max hi h)

let range_pages ranges =
  List.fold_left (fun acc (lo, hi) -> acc + (hi - lo)) 0 ranges

let check_open g op =
  if g.finished then invalid_arg (Printf.sprintf "Gather.%s: batch finished" op)

let start ctx (pmap : Pmap.t) =
  let reg = { Pmap.b_space = pmap.Pmap.space_id; b_ranges = [] } in
  ctx.Pmap.open_batches <- reg :: ctx.Pmap.open_batches;
  ctx.Pmap.batches_opened <- ctx.Pmap.batches_opened + 1;
  {
    ctx;
    pmap;
    reg;
    ranges = [];
    ops = 0;
    pure_unmap = true;
    finished = false;
  }

let note_pending g ~lo ~hi =
  g.ranges <- insert_range g.ranges ~lo ~hi;
  g.reg.Pmap.b_ranges <- g.ranges;
  g.ctx.Pmap.batch_pages <- g.ctx.Pmap.batch_pages + (hi - lo)

let account_op g ~may_be_inconsistent =
  g.ops <- g.ops + 1;
  g.ctx.Pmap.batch_ops <- g.ctx.Pmap.batch_ops + 1;
  (* Lazy evaluation, batched: an operation the check proves harmless
     contributes nothing to the flush — the same skip the unbatched path
     counts per shootdown. *)
  if not may_be_inconsistent then
    g.ctx.Pmap.shootdowns_skipped_lazy <-
      g.ctx.Pmap.shootdowns_skipped_lazy + 1

(* Eagerly clear every mapping in [lo, hi) (the page-table side of
   Pmap_ops.remove), deferring the TLB invalidations to the flush. *)
let unmap g (cpu : Sim.Cpu.t) ~lo ~hi =
  check_open g "unmap";
  let ctx = g.ctx and pmap = g.pmap in
  pmap.Pmap.op_count <- pmap.Pmap.op_count + 1;
  let saved = Sim.Spinlock.acquire pmap.Pmap.lock cpu in
  let may = Pmap_ops.range_may_be_mapped ctx cpu pmap ~lo ~hi in
  let cleared = ref 0 in
  Page_table.iter_valid_range pmap.Pmap.pt ~lo ~hi (fun vpn pte ->
      Pv_list.remove ctx.Pmap.pv ~pfn:pte.Page_table.pfn ~pmap ~vpn;
      incr cleared);
  let vpns = ref [] in
  Page_table.iter_valid_range pmap.Pmap.pt ~lo ~hi (fun vpn _ ->
      vpns := vpn :: !vpns);
  List.iter (fun vpn -> ignore (Page_table.clear pmap.Pmap.pt vpn)) !vpns;
  Pmap_ops.charge_pages ctx cpu !cleared;
  if may then note_pending g ~lo ~hi;
  Sim.Spinlock.release pmap.Pmap.lock cpu ~saved_ipl:saved;
  account_op g ~may_be_inconsistent:may

(* Eagerly set the protection of every mapping in [lo, hi); only
   rights-reducing changes defer an invalidation (increases are the benign
   direction of section 3). *)
let protect g (cpu : Sim.Cpu.t) ~lo ~hi ~prot =
  if prot = Addr.Prot_none then unmap g cpu ~lo ~hi
  else begin
    check_open g "protect";
    let ctx = g.ctx and pmap = g.pmap in
    pmap.Pmap.op_count <- pmap.Pmap.op_count + 1;
    let saved = Sim.Spinlock.acquire pmap.Pmap.lock cpu in
    let may = Pmap_ops.range_may_be_mapped ctx cpu pmap ~lo ~hi in
    let reduces = ref false in
    let touched = ref 0 in
    Page_table.iter_valid_range pmap.Pmap.pt ~lo ~hi (fun _ pte ->
        if Addr.prot_reduces ~from:pte.Page_table.prot ~to_:prot then
          reduces := true;
        pte.Page_table.prot <- prot;
        incr touched);
    Pmap_ops.charge_pages ctx cpu !touched;
    let inconsistent = may && !reduces in
    if inconsistent then begin
      note_pending g ~lo ~hi;
      g.pure_unmap <- false
    end;
    Sim.Spinlock.release pmap.Pmap.lock cpu ~saved_ipl:saved;
    account_op g ~may_be_inconsistent:inconsistent
  end

let pending_ops g = g.ops
let pending_pages g = range_pages g.ranges
let pending_ranges g = g.ranges
let should_flush g = g.ops >= g.ctx.Pmap.params.batch_max_ops

let flush g (cpu : Sim.Cpu.t) =
  check_open g "flush";
  let ctx = g.ctx in
  (match g.ranges with
  | [] ->
      (* Nothing was ever mapped (or only rights increases): no TLB can
         hold a stale translation, so there is no round to run.  An empty
         flush is free — the lazy-evaluation guarantee, batched. *)
      ctx.Pmap.batch_flushes_elided <- ctx.Pmap.batch_flushes_elided + 1
  | ranges ->
      ctx.Pmap.batch_flushes <- ctx.Pmap.batch_flushes + 1;
      Shootdown.with_update_ranges ctx cpu g.pmap ~elide_reuse:g.pure_unmap
        ~origin:Instrument.Probe.Gather_flush ~ranges
        ~may_be_inconsistent:(fun () -> true)
        ~update:(fun () ->
          (* The barrier has been reached: every responder acknowledged
             (or was force-invalidated), so the only CPUs still holding
             stale entries are ones the oracle already treats as covered
             by their pending actions.  The batch stops covering them. *)
          g.reg.Pmap.b_ranges <- [];
          g.ranges <- []));
  g.ops <- 0;
  g.pure_unmap <- true;
  (* The retire point: the batch no longer covers its ranges, so a stale
     translation surviving here is a real violation — check it, instead
     of letting it hide until the next shootdown-complete or quiescent
     checkpoint.  (Cost-free when no oracle is attached, like every other
     checkpoint.) *)
  match ctx.Pmap.oracle_check with
  | Some check -> check "batch-flush"
  | None -> ()

let finish g (cpu : Sim.Cpu.t) =
  check_open g "finish";
  flush g cpu;
  g.ctx.Pmap.open_batches <-
    List.filter (fun b -> b != g.reg) g.ctx.Pmap.open_batches;
  g.finished <- true
