(* Addresses, pages and protections.

   A 32-bit virtual address space with 4 KB pages and 4-byte words, split
   NS32382-style: 10 bits of first-level index, 10 bits of second-level
   index, 12 bits of page offset.  Kernel virtual addresses occupy the top
   quarter of the space. *)

type addr = int (* byte address *)
type vpn = int (* virtual page number *)
type pfn = int (* physical frame number *)

let page_size = 4096
let page_shift = 12
let word_size = 4
let words_per_page = page_size / word_size

let kernel_base = 0xC000_0000
let user_limit = kernel_base
let address_limit = 0x1_0000_0000

let vpn_of_addr a = a lsr page_shift
let addr_of_vpn v = v lsl page_shift
let page_offset a = a land (page_size - 1)
let is_kernel_addr a = a >= kernel_base

(* Page-table indices *)
let l1_index vpn = vpn lsr 10
let l2_index vpn = vpn land 1023

type access = Read_access | Write_access

(* Protection lattice: None < Read < Read_write. *)
type prot = Prot_none | Prot_read | Prot_read_write

let prot_allows prot access =
  match (prot, access) with
  | Prot_none, _ -> false
  | Prot_read, Read_access -> true
  | Prot_read, Write_access -> false
  | Prot_read_write, _ -> true

(* [prot_reduces ~from ~to_] is true when the change removes some right —
   the condition under which a TLB inconsistency can be harmful and a
   shootdown is required (increases may be allowed to be temporarily
   inconsistent, section 3 technique 3). *)
let prot_reduces ~from ~to_ =
  match (from, to_) with
  | Prot_read_write, (Prot_read | Prot_none) -> true
  | Prot_read, Prot_none -> true
  | (Prot_none | Prot_read | Prot_read_write), _ -> false

(* [inner] grants no right that [outer] withholds. *)
let prot_allows_subset ~outer ~inner =
  match (outer, inner) with
  | Prot_read_write, _ -> true
  | Prot_read, (Prot_read | Prot_none) -> true
  | Prot_read, Prot_read_write -> false
  | Prot_none, Prot_none -> true
  | Prot_none, (Prot_read | Prot_read_write) -> false

let prot_intersect a b =
  match (a, b) with
  | Prot_none, _ | _, Prot_none -> Prot_none
  | Prot_read, _ | _, Prot_read -> Prot_read
  | Prot_read_write, Prot_read_write -> Prot_read_write
