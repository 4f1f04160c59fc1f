(* Blocking synchronization for simulated threads: mutexes and condition
   variables in the style of the cthreads library the paper's workloads
   were written against.  (Spinlocks, used by the kernel-side code, live in
   Spinlock; these primitives release the CPU while waiting.) *)

type mutex = {
  mname : string;
  mutable owner : Sched.thread option;
  mutable mu_waiters : Sched.thread list;
}

type condvar = { cname : string; mutable cv_waiters : Sched.thread list }

let create_mutex name = { mname = name; owner = None; mu_waiters = [] }
let create_condvar name = { cname = name; cv_waiters = [] }

let rec lock sched self m =
  match m.owner with
  | None -> m.owner <- Some self
  | Some owner when owner == self ->
      invalid_arg (Printf.sprintf "Sync.lock: %s recursive" m.mname)
  | Some _ ->
      m.mu_waiters <- m.mu_waiters @ [ self ];
      Sched.block sched self;
      lock sched self m

let unlock sched self m =
  (match m.owner with
  | Some owner when owner == self -> ()
  | _ -> invalid_arg (Printf.sprintf "Sync.unlock: %s not owned" m.mname));
  m.owner <- None;
  match m.mu_waiters with
  | [] -> ()
  | w :: rest ->
      m.mu_waiters <- rest;
      Sched.wakeup sched w

(* Condition-variable wait: atomically releases the mutex and blocks;
   relocks before returning.  As usual the caller re-tests its predicate in
   a loop because wakeups can race. *)
let wait sched self cv m =
  cv.cv_waiters <- cv.cv_waiters @ [ self ];
  unlock sched self m;
  Sched.block sched self;
  lock sched self m

let broadcast sched cv =
  let ws = cv.cv_waiters in
  cv.cv_waiters <- [];
  List.iter (Sched.wakeup sched) ws
