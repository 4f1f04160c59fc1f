(** Physical memory: a word-addressable store plus a frame allocator.
    Real data lives here so the consistency tester can observe genuinely
    stale TLB entries. *)

type t

val create : frames:int -> t
val free_frames : t -> int

exception Out_of_memory

val alloc_frame : t -> Addr.pfn
(** @raise Out_of_memory when no frame is free. *)

val free_frame : t -> Addr.pfn -> unit
val read : t -> pfn:Addr.pfn -> offset:int -> int
val write : t -> pfn:Addr.pfn -> offset:int -> int -> unit
val zero_frame : t -> Addr.pfn -> unit
val copy_frame : t -> src:Addr.pfn -> dst:Addr.pfn -> unit
