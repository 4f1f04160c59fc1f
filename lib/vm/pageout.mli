(** The pageout daemon: reclaims memory by stealing inactive pages —
    removing every hardware mapping with pmap_page_protect (a shootdown
    per mapped page in use elsewhere), writing dirty pages to the pager,
    and freeing the frames.  Referenced pages get a second chance. *)

type stats = { mutable stolen : int; mutable second_chances : int }

val pageout_io_latency : float

val daemon : Vmstate.t -> Sim.Sched.thread -> unit
(** The daemon body: sleeps until kicked by low memory, then steals until
    the free target is met.  Exits when the scheduler shuts down. *)
