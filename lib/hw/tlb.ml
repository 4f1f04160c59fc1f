(* The translation lookaside buffer.

   Entries are tagged with a space (pmap) identifier.  On hardware without
   address-space tags the operating system flushes user entries at context
   switch; with Params.tlb_asid_tagged the flush is omitted and entries
   from many spaces coexist (MIPS-style, section 10).

   Each entry remembers the page-table entry it was loaded from, which is
   how the asynchronous reference/modify-bit writeback hazard of section 3
   is modelled: a stale TLB entry can write those bits back into a PTE the
   OS has since reused.

   Lookup, insert and single-page invalidate go through a (space, vpn) ->
   slot hash index kept in sync with the FIFO slot array, so the per-access
   cost is O(1) instead of a scan of every slot; [insert] guarantees at
   most one slot per (space, vpn), which is what makes the index sound.
   Range and space-wide operations still scan — they are rare (shootdown
   responders, context switches) and must visit every slot anyway.

   In front of the hash index sits a small direct-mapped cache of
   (packed key -> slot) pairs in two int arrays.  A fast-path hit is two
   array probes plus a validation read of the slot itself — no hashing,
   no [Hashtbl] bucket walk, no [Some] from [find_opt].  The cache is
   allowed to go stale (invalidates and FIFO evictions do not clear it):
   every hit re-checks that the indexed slot still holds an entry for
   exactly this (space, vpn), and since [insert] keeps at most one slot
   per key, a validated slot is *the* slot.  Mismatches fall back to the
   authoritative hash index. *)

type entry = {
  space : int;
  vpn : Addr.vpn;
  pfn : Addr.pfn;
  prot : Addr.prot; (* the *cached* protection — may go stale *)
  mutable ref_bit : bool;
  mutable mod_bit : bool;
  mutable gen : int; (* space generation at fill; stale if it lags *)
  pte : Page_table.pte; (* source PTE, target of ref/mod writeback *)
}

(* Direct-mapped fast-path cache size; a power of two so the hash is one
   mask.  256 entries comfortably covers the hot working set of a trial
   while staying cache-resident on the host. *)
let fp_size = 256
let fp_mask = fp_size - 1

type t = {
  size : int;
  slots : entry option array;
  index : (int, int) Hashtbl.t; (* packed (space, vpn) -> slot *)
  fp_keys : int array; (* direct-mapped cache: packed key, -1 = empty *)
  fp_slots : int array; (* ... -> candidate slot, validated on hit *)
  mutable fifo_next : int;
  (* Per-space generation counters (docs/ELISION.md).  A hit is valid
     only if the entry's [gen] stamp matches the space's current
     generation; bumping the generation is therefore a logical
     whole-space flush with no scan and no IPIs.  [gen_active] stays
     false until the first bump, so with elision off every lookup pays
     exactly one predictable branch. *)
  mutable space_gens : int array;
  mutable gen_active : bool;
  (* statistics *)
  mutable hits : int;
  mutable misses : int;
  mutable flushes : int;
  mutable single_invalidates : int;
  mutable gen_stale_drops : int;
}

let create ~size =
  {
    size;
    slots = Array.make size None;
    index = Hashtbl.create (2 * size);
    fp_keys = Array.make fp_size (-1);
    fp_slots = Array.make fp_size 0;
    fifo_next = 0;
    space_gens = [||];
    gen_active = false;
    hits = 0;
    misses = 0;
    flushes = 0;
    single_invalidates = 0;
    gen_stale_drops = 0;
  }

let generation t ~space =
  if space < Array.length t.space_gens then t.space_gens.(space) else 0

let set_generation t ~space ~gen =
  let n = Array.length t.space_gens in
  if space >= n then begin
    let grown = Array.make (max 16 (2 * (space + 1))) 0 in
    Array.blit t.space_gens 0 grown 0 n;
    t.space_gens <- grown
  end;
  t.space_gens.(space) <- gen;
  if gen <> 0 then t.gen_active <- true

(* A 32-bit address space with 4 KB pages means vpn < 2^20, so (space,
   vpn) packs losslessly into one immediate int — hashtable operations on
   the index allocate nothing. *)
let key ~space ~vpn = (space lsl 20) lor vpn

let clear_slot t i =
  match t.slots.(i) with
  | None -> ()
  | Some e ->
      Hashtbl.remove t.index (key ~space:e.space ~vpn:e.vpn);
      t.slots.(i) <- None

(* A generation-stale hit behaves exactly like a miss with an eager
   invalidate: the slot is reclaimed so the dead translation cannot be
   consulted again (and cannot write ref/mod bits back), and the caller
   reloads from the page tables. *)
let drop_stale t i =
  clear_slot t i;
  t.gen_stale_drops <- t.gen_stale_drops + 1;
  t.misses <- t.misses + 1;
  None

let gen_current t e = (not t.gen_active) || e.gen = generation t ~space:e.space

(* Authoritative lookup through the hash index; refreshes the
   direct-mapped cache line [h] for the packed key [k]. *)
let lookup_slow t k h =
  match Hashtbl.find_opt t.index k with
  | Some i -> (
      match t.slots.(i) with
      | Some e when not (gen_current t e) -> drop_stale t i
      | slot ->
          t.fp_keys.(h) <- k;
          t.fp_slots.(h) <- i;
          t.hits <- t.hits + 1;
          slot)
  | None ->
      t.misses <- t.misses + 1;
      None

let lookup t ~space ~vpn =
  let k = key ~space ~vpn in
  let h = k land fp_mask in
  if t.fp_keys.(h) = k then begin
    let i = t.fp_slots.(h) in
    match t.slots.(i) with
    | Some e when e.space = space && e.vpn = vpn ->
        (* Validated: [insert] keeps at most one slot per key, so this is
           the current entry.  Return the stored option — no allocation.
           The generation stamp is re-validated here too: a generation
           bump does not touch the direct-mapped cache, so a cached slot
           must never be allowed to bypass the tag check. *)
        if gen_current t e then begin
          t.hits <- t.hits + 1;
          t.slots.(i)
        end
        else drop_stale t i
    | Some _ | None -> lookup_slow t k h
  end
  else lookup_slow t k h

(* FIFO replacement, as on simple hardware of the period. *)
let insert t entry =
  (* Stamp the fill with the space's current generation: an entry loaded
     after a bump is valid, everything older is logically dead. *)
  if t.gen_active then entry.gen <- generation t ~space:entry.space;
  let k = key ~space:entry.space ~vpn:entry.vpn in
  (* Replace an existing translation for the same page, if any. *)
  let slot =
    match Hashtbl.find_opt t.index k with
    | Some i -> i
    | None ->
        let i = t.fifo_next in
        t.fifo_next <- (t.fifo_next + 1) mod t.size;
        i
  in
  clear_slot t slot;
  t.slots.(slot) <- Some entry;
  Hashtbl.replace t.index k slot;
  t.fp_keys.(k land fp_mask) <- k;
  t.fp_slots.(k land fp_mask) <- slot

let invalidate_page t ~space ~vpn =
  match Hashtbl.find_opt t.index (key ~space ~vpn) with
  | Some i ->
      clear_slot t i;
      t.single_invalidates <- t.single_invalidates + 1
  | None -> ()

let invalidate_range t ~space ~lo ~hi =
  for i = 0 to t.size - 1 do
    match t.slots.(i) with
    | Some e when e.space = space && e.vpn >= lo && e.vpn < hi ->
        clear_slot t i;
        t.single_invalidates <- t.single_invalidates + 1
    | Some _ | None -> ()
  done

let flush_all t =
  Array.fill t.slots 0 t.size None;
  Hashtbl.reset t.index;
  t.flushes <- t.flushes + 1

let flush_space t ~space =
  for i = 0 to t.size - 1 do
    match t.slots.(i) with
    | Some e when e.space = space -> clear_slot t i
    | Some _ | None -> ()
  done;
  t.flushes <- t.flushes + 1

(* Flush every non-kernel entry (context switch on untagged hardware). *)
let flush_user t ~kernel_space =
  for i = 0 to t.size - 1 do
    match t.slots.(i) with
    | Some e when e.space <> kernel_space -> clear_slot t i
    | Some _ | None -> ()
  done;
  t.flushes <- t.flushes + 1

let entries t =
  Array.fold_left
    (fun acc s -> match s with Some e -> e :: acc | None -> acc)
    [] t.slots

let hits t = t.hits
let misses t = t.misses
let flushes t = t.flushes
let single_invalidates t = t.single_invalidates
let gen_stale_drops t = t.gen_stale_drops
