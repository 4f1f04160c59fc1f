(** The translation lookaside buffer: space-tagged entries, FIFO
    replacement, per-entry invalidation and whole-buffer flushes.  Each
    entry remembers the PTE it was loaded from, which is how the
    asynchronous reference/modify-bit writeback hazard of paper section 3
    is modelled.

    [lookup], [insert], [invalidate_page] and [resident] are O(1) via a
    (space, vpn) hash index kept in sync with the slot array; range and
    space-wide operations scan the slots. *)

type entry = {
  space : int; (** pmap identifier; 0 is the kernel *)
  vpn : Addr.vpn;
  pfn : Addr.pfn;
  prot : Addr.prot; (** the {e cached} protection — may go stale *)
  mutable ref_bit : bool;
  mutable mod_bit : bool;
  mutable gen : int;
      (** the space's generation when the entry was filled; a lookup whose
          stamp lags the current generation is dropped as if invalidated
          (flush elision, docs/ELISION.md) *)
  pte : Page_table.pte; (** source PTE, target of ref/mod writeback *)
}

type t

val create : size:int -> t

val lookup : t -> space:int -> vpn:Addr.vpn -> entry option
(** Also counts hit/miss statistics. *)

val insert : t -> entry -> unit
(** FIFO replacement; an existing translation for the same page is
    replaced in place. *)

val invalidate_page : t -> space:int -> vpn:Addr.vpn -> unit
val invalidate_range : t -> space:int -> lo:Addr.vpn -> hi:Addr.vpn -> unit
val flush_all : t -> unit
val flush_space : t -> space:int -> unit

val flush_user : t -> kernel_space:int -> unit
(** Flush every non-kernel entry (context switch on untagged hardware). *)

val entries : t -> entry list

(** {2 Generation tags (flush elision)}

    Each space has a generation counter, default 0.  [insert] stamps the
    entry with the space's current generation and [lookup] treats a
    stale stamp as a miss, evicting the slot — so bumping the generation
    on every TLB is a logical whole-space flush that needs no IPIs and
    no slot scan.  Both the hash-index path and the direct-mapped
    fast-path cache re-validate the stamp on every hit. *)

val generation : t -> space:int -> int
(** Current generation of [space]; 0 until the first [set_generation]. *)

val set_generation : t -> space:int -> gen:int -> unit
(** Publish a new generation for [space].  Entries stamped with an older
    generation are dead from the next lookup on. *)

(** {2 Statistics} *)

val hits : t -> int
val misses : t -> int
val flushes : t -> int
val single_invalidates : t -> int

val gen_stale_drops : t -> int
(** Lookups that hit a generation-stale entry and evicted it. *)
