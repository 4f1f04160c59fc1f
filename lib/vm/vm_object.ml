(* Memory objects — the machine-independent containers of pages.

   An object is a sparse collection of resident pages backed either by
   zero-fill (anonymous memory) or by a simulated pager with a fixed
   round-trip latency (mapped files and backing store).  Copy-on-write is
   implemented with shadow objects: a shadow holds privately-modified
   pages and defers everything else to the object it shadows, exactly as
   in the Mach VM system. *)

module Addr = Hw.Addr

type backing =
  | Anonymous (* zero-fill on first touch *)
  | File of { pagein_latency : float } (* simulated pager round trip *)

type page = {
  mutable pfn : Addr.pfn;
  mutable page_offset : int; (* page index within its object *)
  mutable busy : bool; (* being paged in/out; waiters sleep *)
  mutable wire_count : int;
  mutable on_queue : [ `Active | `Inactive | `None ];
  mutable dirty : bool; (* machine-independent dirty hint *)
}

type t = {
  obj_id : int;
  mutable backing : backing;
  mutable size : int; (* pages *)
  pages : (int, page) Hashtbl.t; (* offset -> resident page *)
  mutable shadow : (t * int) option; (* (shadowed object, page offset) *)
  mutable shadows_of_me : t list; (* objects whose shadow link targets us;
                                     lets ref-count drops trigger collapse *)
  mutable refs : int;
}

(* Atomic: object ids must stay unique when trials run on several domains
   (Sim.Domain_pool); they are diagnostic-only and never affect results. *)
let counter = Atomic.make 0

let create ?(backing = Anonymous) ~size () =
  let id_ = Atomic.fetch_and_add counter 1 + 1 in
  {
    obj_id = id_;
    backing;
    size;
    pages = Hashtbl.create 16;
    shadow = None;
    shadows_of_me = [];
    refs = 1;
  }

let reference t = t.refs <- t.refs + 1

let resident_page t ~offset = Hashtbl.find_opt t.pages offset

let insert_page t page = Hashtbl.replace t.pages page.page_offset page

let remove_page t page = Hashtbl.remove t.pages page.page_offset

(* Create a shadow of [t] covering [size] pages starting at page [offset]:
   the new object starts empty and defers lookups to [t].  Used when a
   copy-on-write region is first written. *)
let make_shadow t ~offset ~size =
  let id_ = Atomic.fetch_and_add counter 1 + 1 in
  let s =
    {
      obj_id = id_;
      backing = Anonymous;
      size;
      pages = Hashtbl.create 16;
      shadow = Some (t, offset);
      shadows_of_me = [];
      refs = 1;
    }
  in
  t.shadows_of_me <- s :: t.shadows_of_me;
  s

(* Walk the shadow chain looking for the page backing [offset] of [t].
   Returns the owning object, the offset within it, and the page if
   resident.  Stops at the first object that could supply the page. *)
let rec chain_lookup t ~offset =
  match resident_page t ~offset with
  | Some page -> `Resident (t, offset, page)
  | None -> (
      match t.shadow with
      | Some (below, shadow_offset) ->
          chain_lookup below ~offset:(offset + shadow_offset)
      | None -> `Absent (t, offset))

(* Shadow-chain depth (diagnostics). *)
let rec chain_depth t =
  match t.shadow with Some (below, _) -> 1 + chain_depth below | None -> 0

(* Shadow-chain collapse: when a shadowed object has no other references,
   its resident pages can be folded into the shadow above it and the
   chain link removed.  Mach performs this in vm_object_collapse to keep
   repeated forks from building unbounded chains.  Pages the upper object
   already has (it copied them) win; busy or foreign pages block the
   bypass of that offset but not the rest. *)
let collapse t =
  match t.shadow with
  | Some (below, shadow_offset)
    when below.refs = 1 && below.backing = Anonymous ->
      let movable =
        Hashtbl.fold
          (fun offset page acc ->
            let upper_offset = offset - shadow_offset in
            if
              (not page.busy)
              && upper_offset >= 0 && upper_offset < t.size
              && not (Hashtbl.mem t.pages upper_offset)
            then (offset, upper_offset, page) :: acc
            else acc)
          below.pages []
      in
      List.iter
        (fun (offset, upper_offset, page) ->
          Hashtbl.remove below.pages offset;
          page.page_offset <- upper_offset;
          Hashtbl.replace t.pages upper_offset page)
        movable;
      (* the bypassed object's remaining pages (outside our window) die
         with it; the caller releases them via the VM state *)
      let orphans = Hashtbl.fold (fun _ p acc -> p :: acc) below.pages [] in
      Hashtbl.reset below.pages;
      (match below.shadow with
      | Some (grand, grand_offset) ->
          t.shadow <- Some (grand, shadow_offset + grand_offset);
          grand.shadows_of_me <-
            t :: List.filter (fun o -> not (o == below)) grand.shadows_of_me
      | None -> t.shadow <- None);
      below.shadow <- None;
      below.shadows_of_me <- [];
      below.refs <- 0;
      `Collapsed (List.map (fun (_, _, p) -> p) movable, orphans)
  | Some _ | None -> `Unchanged
