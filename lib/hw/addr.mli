(** Addresses, pages and protections: a 32-bit virtual address space with
    4 KB pages, split NS32382-style (10/10/12 bits), kernel addresses in
    the top quarter. *)

type addr = int (** byte address *)

type vpn = int (** virtual page number *)

type pfn = int (** physical frame number *)

val page_size : int
val word_size : int
val words_per_page : int

val kernel_base : addr
val user_limit : addr
val address_limit : int

val vpn_of_addr : addr -> vpn
val addr_of_vpn : vpn -> addr
val page_offset : addr -> int
val is_kernel_addr : addr -> bool

val l1_index : vpn -> int
(** First-level page-table index. *)

val l2_index : vpn -> int

type access = Read_access | Write_access

(** Protection lattice: [Prot_none] < [Prot_read] < [Prot_read_write]. *)
type prot = Prot_none | Prot_read | Prot_read_write

val prot_allows : prot -> access -> bool

val prot_reduces : from:prot -> to_:prot -> bool
(** True when the change removes a right — the condition under which a
    stale TLB entry is harmful and consistency actions are required. *)

val prot_allows_subset : outer:prot -> inner:prot -> bool
(** [inner] grants no right [outer] withholds. *)

val prot_intersect : prot -> prot -> prot
