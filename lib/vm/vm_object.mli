(** Memory objects — the machine-independent containers of pages, with
    copy-on-write implemented as shadow chains, exactly as in the Mach VM
    system (paper section 2). *)

type backing =
  | Anonymous (** zero-fill on first touch *)
  | File of { pagein_latency : float } (** simulated pager round trip *)

type page = {
  mutable pfn : Hw.Addr.pfn;
  mutable page_offset : int; (** page index within its object *)
  mutable busy : bool; (** being paged in/out; waiters sleep *)
  mutable wire_count : int;
  mutable on_queue : [ `Active | `Inactive | `None ];
  mutable dirty : bool;
}

type t = {
  obj_id : int;
  mutable backing : backing;
  mutable size : int; (** pages *)
  pages : (int, page) Hashtbl.t;
  mutable shadow : (t * int) option; (** (shadowed object, page offset) *)
  mutable shadows_of_me : t list;
      (** objects whose shadow link targets this one (collapse trigger) *)
  mutable refs : int;
}

val create : ?backing:backing -> size:int -> unit -> t
val reference : t -> unit
val insert_page : t -> page -> unit
val remove_page : t -> page -> unit

val make_shadow : t -> offset:int -> size:int -> t
(** Interpose a shadow: the new object starts empty and defers lookups to
    [t] (the first write to a copy-on-write region does this). *)

val chain_lookup :
  t -> offset:int -> [ `Resident of t * int * page | `Absent of t * int ]
(** Walk the shadow chain for the page backing [offset]. *)

val chain_depth : t -> int

val collapse :
  t -> [ `Collapsed of page list * page list | `Unchanged ]
(** vm_object_collapse: absorb a singly-referenced anonymous shadow into
    [t].  Returns (moved pages, orphaned pages); use
    {!Vmstate.collapse_chain}, which also fixes the residence records. *)
