(** Blocking synchronization for simulated threads (cthreads-style
    mutexes and condition variables).  These release the CPU while
    waiting; kernel-side code uses {!Spinlock} instead. *)

type mutex
type condvar

val create_mutex : string -> mutex
val create_condvar : string -> condvar

val lock : Sched.t -> Sched.thread -> mutex -> unit
(** @raise Invalid_argument on recursive locking. *)

val unlock : Sched.t -> Sched.thread -> mutex -> unit
(** @raise Invalid_argument if the caller does not hold the mutex. *)

val wait : Sched.t -> Sched.thread -> condvar -> mutex -> unit
(** Atomically release the mutex and block; relocks before returning.
    Re-test the predicate in a loop. *)

val broadcast : Sched.t -> condvar -> unit
