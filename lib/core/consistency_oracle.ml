(* The TLB-consistency oracle: an omniscient cross-check that every
   resident TLB entry agrees with the page tables it caches.

   The simulator can see all state at once, so the invariant the paper
   only argues for — after a shootdown completes, no TLB retains rights
   the pmap has withdrawn — becomes directly checkable.  The oracle runs
   at shootdown-completion points (via the [ctx.oracle_check] hook that
   [attach] installs) and at quiescent points (Machine.run's drain), and
   must stay green for the Shootdown policy under *any* fault plan while
   going red for No_consistency.

   One subtlety makes the check an invariant rather than wishful timing:
   a processor with a consistency action pending ([action_needed]) or in
   the middle of draining its queue ([draining]) is allowed to hold stale
   entries — the protocol's contract is only that such a processor will
   destroy them before doing anything observable with the pmap (it is out
   of the active set).  Such CPUs are skipped (and counted).

   The check is pure: it advances no simulated time, draws no random
   numbers, and touches no statistics the reports export — attaching the
   oracle cannot change the simulation it is auditing. *)

module Addr = Hw.Addr
module Page_table = Hw.Page_table
module Mmu = Hw.Mmu
module Tlb = Hw.Tlb

type violation_kind =
  | Unmapped (* TLB caches a translation the page table no longer has *)
  | Wrong_frame (* TLB points at a different physical frame *)
  | Excess_rights (* TLB grants rights the PTE has withdrawn *)

type violation = {
  v_cpu : int;
  v_space : int;
  v_vpn : Addr.vpn;
  v_kind : violation_kind;
  v_at : float; (* sim time of the check that caught it *)
  v_reason : string; (* which checkpoint: "shootdown-complete", ... *)
}

type t = {
  ctx : Pmap.ctx;
  max_kept : int;
  mutable checks : int;
  mutable batch_entries_skipped : int; (* covered by an open gather batch *)
  mutable gen_entries_skipped : int; (* generation-stale, dead on lookup *)
  mutable violation_count : int;
  mutable violations : violation list; (* newest first, capped *)
}

let kind_name = function
  | Unmapped -> "unmapped"
  | Wrong_frame -> "wrong-frame"
  | Excess_rights -> "excess-rights"

(* Resolve the pmap a TLB entry claims to translate through.  An entry
   whose space cannot be resolved belongs to a deactivated address space;
   those entries are flushed before the space id is ever reused, so they
   can never be exercised and are not violations. *)
let pmap_for ctx ~cpu_id ~space =
  if space = 0 then Some ctx.Pmap.kernel_pmap
  else
    match
      List.find_opt
        (fun (p : Pmap.t) -> p.Pmap.space_id = space)
        ctx.Pmap.kernel_pool_pmaps
    with
    | Some p -> Some p
    | None -> (
        match ctx.Pmap.current_user.(cpu_id) with
        | Some p when p.Pmap.space_id = space -> Some p
        | Some _ | None -> None)

let check t ~reason =
  let ctx = t.ctx in
  t.checks <- t.checks + 1;
  let before = t.violation_count in
  let now = Sim.Engine.now ctx.Pmap.eng in
  Array.iteri
    (fun id mmu ->
      (* A CPU with a pending or draining action is covered by it. *)
      if not (ctx.Pmap.action_needed.(id) || ctx.Pmap.draining.(id)) then
        List.iter
          (fun (e : Tlb.entry) ->
            (* A page covered by an open gather batch may legally linger:
               its PTE was already changed but the batched invalidation
               has not flushed yet (docs/BATCHING.md).  The batch's flush
               stops covering it the moment the protocol barrier has been
               reached. *)
            if Pmap.batch_covers ctx ~space:e.Tlb.space ~vpn:e.Tlb.vpn then
              t.batch_entries_skipped <- t.batch_entries_skipped + 1
            else if
              (* A generation-stale entry is logically invalidated
                 (docs/ELISION.md): the MMU rejects and evicts it at its
                 next lookup before granting any access or writing any
                 ref/mod bit back, so whatever it caches can never be
                 exercised. *)
              e.Tlb.gen
              <> Tlb.generation (Mmu.tlb mmu) ~space:e.Tlb.space
            then t.gen_entries_skipped <- t.gen_entries_skipped + 1
            else
            match pmap_for ctx ~cpu_id:id ~space:e.Tlb.space with
            | None -> ()
            | Some p ->
                let fail kind =
                  t.violation_count <- t.violation_count + 1;
                  if List.length t.violations < t.max_kept then
                    t.violations <-
                      {
                        v_cpu = id;
                        v_space = e.Tlb.space;
                        v_vpn = e.Tlb.vpn;
                        v_kind = kind;
                        v_at = now;
                        v_reason = reason;
                      }
                      :: t.violations
                in
                (match Page_table.lookup p.Pmap.pt e.Tlb.vpn with
                | None -> fail Unmapped
                | Some pte ->
                    if pte.Page_table.pfn <> e.Tlb.pfn then fail Wrong_frame
                    else if
                      not
                        (Addr.prot_allows_subset ~outer:pte.Page_table.prot
                           ~inner:e.Tlb.prot)
                    then fail Excess_rights))
          (Tlb.entries (Mmu.tlb mmu)))
    ctx.Pmap.mmus;
  t.violation_count - before

let attach ?(max_kept = 32) ctx =
  let t =
    {
      ctx;
      max_kept;
      checks = 0;
      batch_entries_skipped = 0;
      gen_entries_skipped = 0;
      violation_count = 0;
      violations = [];
    }
  in
  ctx.Pmap.oracle_check <- Some (fun reason -> ignore (check t ~reason));
  t

let consistent t = t.violation_count = 0
let checks t = t.checks
let batch_entries_skipped t = t.batch_entries_skipped
let gen_entries_skipped t = t.gen_entries_skipped
let violation_count t = t.violation_count
let violations t = List.rev t.violations

let describe_violation v =
  Printf.sprintf "cpu%d space%d vpn%d %s at %.1fus (%s)" v.v_cpu v.v_space
    v.v_vpn (kind_name v.v_kind) v.v_at v.v_reason
