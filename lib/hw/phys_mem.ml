(* Physical memory: a word-addressable store plus a frame allocator.

   Real data lives here so that the section 5.1 consistency tester can
   observe genuinely stale TLB entries: its counters are words in a frame,
   incremented through simulated translation. *)

type t = {
  words : int array; (* frames * words_per_page *)
  nframes : int;
  mutable free : Addr.pfn list;
  mutable allocated : int;
}

let create ~frames =
  {
    words = Array.make (frames * Addr.words_per_page) 0;
    nframes = frames;
    free = List.init frames (fun i -> i);
    allocated = 0;
  }

let free_frames t = t.nframes - t.allocated

exception Out_of_memory

let alloc_frame t =
  match t.free with
  | [] -> raise Out_of_memory
  | pfn :: rest ->
      t.free <- rest;
      t.allocated <- t.allocated + 1;
      pfn

let free_frame t pfn =
  if pfn < 0 || pfn >= t.nframes then invalid_arg "Phys_mem.free_frame";
  t.free <- pfn :: t.free;
  t.allocated <- t.allocated - 1

let word_index t ~pfn ~offset =
  if pfn < 0 || pfn >= t.nframes then invalid_arg "Phys_mem: bad frame";
  if offset < 0 || offset >= Addr.page_size then
    invalid_arg "Phys_mem: bad offset";
  (pfn * Addr.words_per_page) + (offset / Addr.word_size)

let read t ~pfn ~offset = t.words.(word_index t ~pfn ~offset)
let write t ~pfn ~offset v = t.words.(word_index t ~pfn ~offset) <- v

let zero_frame t pfn =
  Array.fill t.words (pfn * Addr.words_per_page) Addr.words_per_page 0

let copy_frame t ~src ~dst =
  Array.blit t.words
    (src * Addr.words_per_page)
    t.words
    (dst * Addr.words_per_page)
    Addr.words_per_page
