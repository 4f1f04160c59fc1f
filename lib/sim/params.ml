(* Every timing constant and hardware/algorithm feature flag in one record.

   The defaults model a 16-processor Encore Multimax: NS32332 CPUs at about
   2 MIPS, write-through caches, one shared bus, an NS32382-style MMU with a
   32-entry hardware-reloaded TLB.  Costs are simulated microseconds and were
   calibrated so that the basic-cost experiment (paper Figure 2) reproduces
   the published least-squares trend of roughly 430 us + 55 us per
   additional processor, with bus congestion appearing above ~12 busy
   processors.  test/test_figure2.ml pins the calibration. *)

type ipi_mode =
  | Unicast (* send one interprocessor interrupt per target (Multimax) *)
  | Multicast (* one bus operation interrupts a set of CPUs (paper section 9) *)
  | Broadcast (* one bus operation interrupts every other CPU *)

type tlb_reload =
  | Hardware_reload (* MMU walks page tables itself (NS32382, i386) *)
  | Software_reload (* miss traps to software (MIPS R2000); responders
                       need not stall during pmap updates *)

(* Machine topology: how processors reach memory.

   The 1989 Multimax is a single shared bus — [cluster_size = 0] — and
   every timing in the calibrated defaults assumes it.  To test the
   paper's section 8 extrapolation past ~16 processors the machine can
   instead be built as a two-level hierarchy: clusters of [cluster_size]
   CPUs, each with its own local bus, joined by one FCFS interconnect.
   A transaction whose home node is in another cluster occupies its
   local bus, then the interconnect, then the remote cluster's bus
   (remote memory being slower by [node_memory_cost] per transaction,
   plus a fixed [remote_latency] wire delay) — the numaPTE-style cost
   model of docs/TOPOLOGY.md.  With a single cluster the hierarchy
   degenerates to exactly the historical flat bus, byte for byte. *)
type topology = {
  cluster_size : int;
      (* CPUs per cluster bus; 0 (or >= ncpus) = flat single bus *)
  interconnect_service : float; (* us per transaction on the interconnect *)
  remote_latency : float; (* fixed wire delay per remote bus visit *)
  node_memory_cost : float; (* extra service per transaction when the
                               memory lives on another node *)
}

(* The interconnect timings below only matter when [cluster_size > 0];
   they model an interconnect somewhat slower than a local bus, with
   remote memory roughly 1.5x the cost of local. *)
let flat_topology =
  {
    cluster_size = 0;
    interconnect_service = 2.2;
    remote_latency = 1.5;
    node_memory_cost = 0.4;
  }

type consistency_policy =
  | Shootdown (* the Mach algorithm of paper section 4 *)
  | Timer_flush of float (* technique 2 of section 3: flush every TLB on a
                            periodic timer and delay use of changed
                            mappings until a full period has passed *)
  | Hw_remote (* section 9: MC88200-style remote invalidation; the
                 initiator shoots entries out of remote TLBs directly *)
  | No_consistency (* do nothing; exists so tests can prove the section 5.1
                      tester really detects inconsistencies *)
  | Deferred_free of float
    (* Thompson et al. (section 10): no interrupts; freed frames are
       quarantined until every TLB has been flushed (context switches plus
       a periodic flush with the given period).  Sufficient for System V
       semantics (no parallel address spaces, no remote operations);
       demonstrably NOT sufficient in Mach's full generality. *)

type t = {
  ncpus : int;
  seed : int64;
  (* --- shared bus / topology ------------------------------------------- *)
  bus_service : float; (* us per bus transaction, uncontended *)
  topology : topology; (* flat_topology = the historical single bus *)
  (* --- interrupts ------------------------------------------------------ *)
  ipi_send_cost : float; (* initiator CPU cost to post one IPI *)
  ipi_latency : float; (* wire latency until the target sees it *)
  intr_dispatch_cost : float; (* vectoring + state save on the responder *)
  intr_dispatch_bus_writes : int; (* write-through state save: bus writes *)
  intr_return_cost : float;
  ipi_mode : ipi_mode;
  high_priority_shootdown : bool;
  (* section 9: shootdown interrupt above device priority, so device-level
     interrupt disablement no longer delays responders *)
  device_intr_rate : float; (* mean us between device interrupts per CPU;
                               0. disables the background load *)
  device_intr_service : float; (* mean service time, run at device IPL *)
  store_traffic_rate : float; (* write-through store traffic generated per
                                 us of computation by a busy processor
                                 (bus transactions/us); this is what makes
                                 the bus congest as more CPUs are busy *)
  (* --- spinning -------------------------------------------------------- *)
  spin_poll : float; (* us per spin-loop iteration *)
  spin_miss_rate : float; (* fraction of polls that go to the bus (the
                             flag lives in a write-through cache, so most
                             polls hit locally) *)
  (* --- TLB ------------------------------------------------------------- *)
  tlb_size : int;
  tlb_entry_invalidate_cost : float;
  tlb_flush_cost : float;
  tlb_flush_threshold : int; (* >= this many entries: flush whole buffer *)
  tlb_reload : tlb_reload;
  tlb_refmod_writeback : bool; (* TLB writes ref/mod bits back to PTEs
                                  asynchronously (the hazard of section 3) *)
  tlb_interlocked_refmod : bool; (* MC88200-style interlocked writeback that
                                    re-checks PTE validity *)
  tlb_asid_tagged : bool; (* MIPS-style tagged TLB: no flush on context
                             switch; pmaps stay "in use" until flushed *)
  (* --- MMU ------------------------------------------------------------- *)
  ptw_cost : float; (* hardware page-table walk (two memory references) *)
  (* --- pmap / shootdown ------------------------------------------------ *)
  lazy_check : bool; (* skip shootdowns for pages never entered in the pmap *)
  lazy_check_cost : float; (* per page examined by the validity check
                              (about 2 instructions on the NS32332) *)
  action_queue_size : int; (* per-CPU consistency-action queue slots *)
  lock_cost : float; (* uncontended spinlock acquire or release *)
  queue_action_cost : float; (* write one action record into a queue *)
  shoot_entry_cost : float; (* fixed bookkeeping entering the algorithm:
                               interrupt disable, active-set update, the
                               inconsistency check, procedure overhead *)
  pmap_op_page_cost : float; (* pmap update work per page (PTE rewrite) *)
  batch_shootdowns : bool; (* mmu_gather-style deferral: VM callers that
                              can accumulate several unmap/protect
                              operations do so and flush them with one
                              shootdown round (docs/BATCHING.md).  Off by
                              default: zero-batch runs must stay
                              byte-identical to the baseline reports. *)
  batch_max_ops : int; (* auto-flush a gather after this many queued
                          operations (bounds quarantined memory) *)
  elide_reuse_flushes : bool; (* generation-tagged flush elision: a user
                                 unmap whose range may be cached remotely
                                 bumps the space's generation instead of
                                 running a shootdown round; stale entries
                                 die on the tag check at next lookup
                                 (docs/ELISION.md).  Off by default:
                                 elision-off runs must stay byte-identical
                                 to the baseline reports. *)
  gen_bump_cost : float; (* publish one generation bump: a coherent
                            version-word store plus bookkeeping, paid by
                            the initiator in place of the whole round *)
  consistency : consistency_policy;
  (* --- fault injection / recovery -------------------------------------- *)
  faults : Fault.plan; (* deterministic adversity; Fault.none disables *)
  shoot_watchdog_timeout : float; (* us the initiator waits on one
                                     responder's acknowledgement before a
                                     re-interrupt retry; 0. disables the
                                     watchdog (original infinite spin) *)
  shoot_watchdog_retries : int; (* re-interrupts before escalating *)
  (* --- scheduling ------------------------------------------------------ *)
  ctx_switch_cost : float;
  idle_poll : float; (* idle-loop polling interval *)
  (* --- VM -------------------------------------------------------------- *)
  page_size : int; (* bytes; words are 4 bytes *)
  phys_pages : int;
  fault_base_cost : float; (* entering/leaving the fault handler *)
  cow_copy_cost : float; (* copying one page for copy-on-write *)
  zero_fill_cost : float;
  (* --- kernel critical sections --------------------------------------- *)
  spl_section_rate : float; (* mean us between kernel sections that raise
                               IPL (disable interrupts); 0. disables *)
  spl_section_mean : float; (* mean length of such a section *)
  (* --- instrumentation ------------------------------------------------- *)
  responder_sample_cpus : int; (* record responder events on this many CPUs
                                  (the paper used 5 of 16) *)
  cost_jitter : float; (* multiplicative noise applied to primitive costs *)
}

let default =
  {
    ncpus = 16;
    seed = 0x6D61636BL (* "mach" *);
    bus_service = 1.1;
    topology = flat_topology;
    ipi_send_cost = 10.0;
    ipi_latency = 4.0;
    intr_dispatch_cost = 50.0;
    intr_dispatch_bus_writes = 12;
    intr_return_cost = 24.0;
    ipi_mode = Unicast;
    high_priority_shootdown = false;
    device_intr_rate = 0.0;
    device_intr_service = 120.0;
    store_traffic_rate = 0.040;
    spin_poll = 1.8;
    spin_miss_rate = 0.085;
    tlb_size = 32;
    tlb_entry_invalidate_cost = 6.0;
    tlb_flush_cost = 22.0;
    tlb_flush_threshold = 8;
    tlb_reload = Hardware_reload;
    tlb_refmod_writeback = true;
    tlb_interlocked_refmod = false;
    tlb_asid_tagged = false;
    ptw_cost = 7.0;
    lazy_check = true;
    lazy_check_cost = 1.0;
    action_queue_size = 8;
    lock_cost = 7.0;
    queue_action_cost = 10.0;
    shoot_entry_cost = 385.0;
    pmap_op_page_cost = 11.0;
    batch_shootdowns = false;
    batch_max_ops = 16;
    elide_reuse_flushes = false;
    gen_bump_cost = 6.0;
    consistency = Shootdown;
    faults = Fault.none;
    (* Generous enough that a healthy shootdown (hundreds of us even with
       background device load) never trips it, so the watchdog changes
       nothing about fault-free runs. *)
    shoot_watchdog_timeout = 50_000.0;
    shoot_watchdog_retries = 3;
    ctx_switch_cost = 150.0;
    idle_poll = 25.0;
    page_size = 4096;
    phys_pages = 4096 (* 16 MB *);
    fault_base_cost = 180.0;
    cow_copy_cost = 950.0;
    zero_fill_cost = 400.0;
    spl_section_rate = 0.0;
    spl_section_mean = 300.0;
    responder_sample_cpus = 5;
    cost_jitter = 0.08;
  }

(* Variant used by the application workloads: adds the background device
   interrupt load and kernel interrupt-disabled sections that the paper
   blames for the longer, more skewed kernel-pmap shootdown times. *)
let production =
  {
    default with
    device_intr_rate = 2_500.0;
    spl_section_rate = 1_800.0;
    spl_section_mean = 260.0;
  }

let words_per_page t = t.page_size / 4

(* --- topology helpers --------------------------------------------------- *)

let clusters t =
  let cs = t.topology.cluster_size in
  if cs <= 0 || cs >= t.ncpus then 1 else (t.ncpus + cs - 1) / cs

let clustered t = clusters t > 1

(* Cluster of a CPU id; unattributed traffic (cpu < 0) is homed on
   cluster 0, where the kernel's shared structures live. *)
let cluster_of t cpu =
  if (not (clustered t)) || cpu < 0 then 0 else cpu / t.topology.cluster_size
