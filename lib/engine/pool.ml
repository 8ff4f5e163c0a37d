(* Work-stealing executor.

   One Chase–Lev deque per executor (the [size] worker domains plus
   one slot for the submitting domain), replacing the old single
   Mutex/Condition queue that serialised every dispatch.  An executor
   pops its own deque LIFO; when that is empty it steals FIFO from
   the other executors (rotating round-robin victim order — no
   ambient randomness, mklint R2); raw [submit] jobs travel through a
   small mutex-protected injector queue; only when deques and
   injector are all empty does a worker block on a condition
   variable.

   Invariant the waiting logic leans on: deque tasks are pushed only
   by the domain running [parallel_map] (workers never push — a
   nested map degrades to [List.map] on the worker), so once the
   submitter has finished pushing, the set of tasks is fixed and
   "every queue empty" means "all remaining work is in flight". *)

type task = unit -> unit

type t = {
  size : int;
  deques : task Deque.t array;
      (* [size + 1] deques: slot [i < size] is worker [i]'s, slot
         [size] belongs to the submitting domain during
         [parallel_map].  SPMC: one owner each, anyone steals. *)
  injected : task Queue.t;  (* raw [submit] jobs; guarded by [mutex] *)
  mutex : Mutex.t;
  nonempty : Condition.t;  (* workers sleep here when all queues drain *)
  progress : Condition.t;  (* parallel_map waits here; worker exit + final
                              task completion + poison broadcast it *)
  pending : int Atomic.t;
      (* queued-but-not-yet-dequeued tasks, all queues combined.  The
         publish half of the sleep/wake Dekker protocol: pushers do
         [push; incr pending; read sleepers], sleepers do
         [incr sleepers; read pending]; both sequences are seq-cst, so
         at least one side sees the other and no wakeup is lost. *)
  sleepers : int Atomic.t;  (* workers committed to [Condition.wait] *)
  submitter_busy : bool Atomic.t;
      (* claim on deque slot [size]; a second concurrent submitter
         falls back to the injector (slotless) path *)
  mutable active_helpers : int;  (* submitters inside parallel_map; guarded
                                    by [mutex], keeps a zero-worker pool's
                                    concurrent maps from declaring each
                                    other abandoned *)
  mutable poisoned : (exn * Printexc.raw_backtrace) option;
  mutable live_workers : int;
  mutable stopped : bool;
  mutable domains : unit Domain.t list;
  (* Self-profiling counters: slot [i] is written by executor [i]
     only, without fences — snapshots may lag a few jobs, which is
     fine for the scheduler reports and must never feed
     simulation output.  The slotless fallback path does not count. *)
  executed : int array;
  local_pops : int array;
  steals : int array;
  failed_steals : int array;
  injected_runs : int array;
  next_victim : int array;  (* per-executor steal rotation cursor *)
}

type stats = {
  executors : int;
  executed : int array;
  local_pops : int array;
  steals : int array;
  failed_steals : int array;
  injected_runs : int array;
}

(* Set inside worker bodies so a nested parallel_map (a sweep fanning
   out points that themselves fan out repetitions) runs sequentially
   on the worker instead of deadlocking on its own pool. *)
let in_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

(* Which executor slot (hence which deque and counter row) the
   current domain owns: worker [i] holds [Some i] for its lifetime,
   the submitting domain holds [Some size] for the duration of a
   [parallel_map]. *)
let executor_slot : int option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

(* ------------------------------------------------------------------ *)
(* Task discovery: own deque, then a steal round, then the injector.  *)

(* A raw submitted job that raises would silently kill its worker
   domain; with every worker dead, a later parallel_map would block
   forever.  Instead the first escaping exception poisons the pool:
   pending injector jobs are dropped, every waiter is woken, and the
   original exception is re-raised from parallel_map/submit.
   ([parallel_map]'s own tasks never poison: their exceptions are
   captured per result slot and re-raised in input order.) *)
let poison pool e bt =
  Mutex.lock pool.mutex;
  if pool.poisoned = None then pool.poisoned <- Some (e, bt);
  pool.stopped <- true;
  Queue.clear pool.injected;
  Condition.broadcast pool.nonempty;
  Condition.broadcast pool.progress;
  Mutex.unlock pool.mutex

let take_injected pool =
  Mutex.lock pool.mutex;
  let job = Queue.take_opt pool.injected in
  Mutex.unlock pool.mutex;
  job

(* Probe every other executor's deque once, starting after the last
   successful victim (deterministic rotation, not random).  [steal]
   returning [None] means that deque was observably empty — counted
   as a failed steal. *)
let steal_round pool me =
  let n = Array.length pool.deques in
  let start = pool.next_victim.(me) in
  (* [k] walks all [n] slots from the rotation start and skips [me],
     so every other executor is probed exactly once per round. *)
  let rec probe k =
    if k >= n then None
    else
      let v = (start + k) mod n in
      if v = me then probe (k + 1)
      else
        match Deque.steal pool.deques.(v) with
        | Some _ as job ->
            pool.next_victim.(me) <- v;
            pool.steals.(me) <- pool.steals.(me) + 1;
            job
        | None ->
            pool.failed_steals.(me) <- pool.failed_steals.(me) + 1;
            probe (k + 1)
  in
  probe 0

let find_task pool me =
  let found =
    match Deque.pop pool.deques.(me) with
    | Some _ as job ->
        pool.local_pops.(me) <- pool.local_pops.(me) + 1;
        job
    | None -> (
        match steal_round pool me with
        | Some _ as job -> job
        | None -> (
            match take_injected pool with
            | Some _ as job ->
                pool.injected_runs.(me) <- pool.injected_runs.(me) + 1;
                job
            | None -> None))
  in
  (match found with Some _ -> Atomic.decr pool.pending | None -> ());
  found

(* The slotless path: a second domain running [parallel_map]
   concurrently with the slot holder.  No own deque, no counter row —
   it steals from everyone and drains the injector. *)
let find_task_slotless pool =
  let n = Array.length pool.deques in
  let rec probe k =
    if k >= n then take_injected pool
    else
      match Deque.steal pool.deques.(k) with
      | Some _ as job -> job
      | None -> probe (k + 1)
  in
  match probe 0 with
  | Some _ as job ->
      Atomic.decr pool.pending;
      job
  | None -> None

let worker_loop pool idx () =
  Domain.DLS.set in_worker true;
  Domain.DLS.set executor_slot (Some idx);
  (try
     let rec loop () =
       if pool.poisoned <> None then ()
       else
         match find_task pool idx with
         | Some job ->
             pool.executed.(idx) <- pool.executed.(idx) + 1;
             job ();
             loop ()
         | None -> idle ()
     and idle () =
       (* Every queue looked empty.  Sleep unless work was published
          between the scan and here (the Dekker re-check), or the
          pool is winding down — a worker only exits with all queues
          drained, so [shutdown] keeps the old drain semantics. *)
       Mutex.lock pool.mutex;
       if pool.poisoned <> None || pool.stopped then Mutex.unlock pool.mutex
       else begin
         Atomic.incr pool.sleepers;
         if Atomic.get pool.pending > 0 then begin
           Atomic.decr pool.sleepers;
           Mutex.unlock pool.mutex;
           Domain.cpu_relax ();
           loop ()
         end
         else begin
           Condition.wait pool.nonempty pool.mutex;
           Atomic.decr pool.sleepers;
           Mutex.unlock pool.mutex;
           loop ()
         end
       end
     in
     loop ()
   with e -> poison pool e (Printexc.get_raw_backtrace ()));
  Mutex.lock pool.mutex;
  pool.live_workers <- pool.live_workers - 1;
  Condition.broadcast pool.progress;
  Mutex.unlock pool.mutex

let create ?(oversubscribe = false) ?num_domains ?deque_capacity () =
  let requested =
    match num_domains with
    | Some n when n < 1 -> invalid_arg "Pool.create: num_domains must be >= 1"
    | Some n -> n
    | None -> max 1 (Domain.recommended_domain_count () - 1)
  in
  (* A domain that cannot run on its own core does not add throughput;
     it adds a stop-the-world rendezvous partner and scheduler
     ping-pong, which is how -j used to *lose* to sequential on small
     machines.  [num_domains] is therefore a cap, not a demand: the
     submitting domain helps drain the deques during parallel_map, so
     workers are clamped to [recommended_domain_count - 1] to keep
     total executors at the machine's concurrency.  A clamped-to-zero
     pool is still useful — parallel_map then runs every task on the
     submitting domain.  [oversubscribe:true] disables the clamp, for
     tests that need real cross-domain traffic regardless of the
     machine they run on. *)
  let size =
    if oversubscribe then requested
    else min requested (max 0 (Domain.recommended_domain_count () - 1))
  in
  let executors = size + 1 in
  let pool =
    {
      size;
      deques =
        Array.init executors (fun _ -> Deque.create ?capacity:deque_capacity ());
      injected = Queue.create ();
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      progress = Condition.create ();
      pending = Atomic.make 0;
      sleepers = Atomic.make 0;
      submitter_busy = Atomic.make false;
      active_helpers = 0;
      poisoned = None;
      live_workers = size;
      stopped = false;
      domains = [];
      executed = Array.make executors 0;
      local_pops = Array.make executors 0;
      steals = Array.make executors 0;
      failed_steals = Array.make executors 0;
      injected_runs = Array.make executors 0;
      next_victim = Array.init executors (fun i -> (i + 1) mod executors);
    }
  in
  pool.domains <- List.init size (fun i -> Domain.spawn (worker_loop pool i));
  pool

let size pool = pool.size

let stats pool =
  {
    executors = pool.size + 1;
    executed = Array.copy pool.executed;
    local_pops = Array.copy pool.local_pops;
    steals = Array.copy pool.steals;
    failed_steals = Array.copy pool.failed_steals;
    injected_runs = Array.copy pool.injected_runs;
  }

let reset_stats (pool : t) =
  let zero a = Array.fill a 0 (Array.length a) 0 in
  zero pool.executed;
  zero pool.local_pops;
  zero pool.steals;
  zero pool.failed_steals;
  zero pool.injected_runs

let executed_jobs (pool : t) = Array.copy pool.executed
let reset_executed = reset_stats

let injector_depth (pool : t) =
  Mutex.lock pool.mutex;
  let n = Queue.length pool.injected in
  Mutex.unlock pool.mutex;
  n

let shutdown pool =
  Mutex.lock pool.mutex;
  let domains = pool.domains in
  pool.stopped <- true;
  pool.domains <- [];
  Condition.broadcast pool.nonempty;
  Mutex.unlock pool.mutex;
  (* Crashed workers have already returned (the poison handler is the
     last thing they run), so every join terminates. *)
  List.iter Domain.join domains

(* Wake sleeping workers after publishing work.  Pushers read
   [sleepers] after their [pending] increments (both seq-cst); the
   paired re-check in [idle] makes a missed broadcast impossible. *)
let wake_sleepers pool =
  if Atomic.get pool.sleepers > 0 then begin
    Mutex.lock pool.mutex;
    Condition.broadcast pool.nonempty;
    Mutex.unlock pool.mutex
  end

let submit pool job =
  Mutex.lock pool.mutex;
  match pool.poisoned with
  | Some (e, bt) ->
      Mutex.unlock pool.mutex;
      Printexc.raise_with_backtrace e bt
  | None ->
      if pool.stopped then begin
        Mutex.unlock pool.mutex;
        invalid_arg "Pool.submit: pool is shut down"
      end;
      Atomic.incr pool.pending;
      Queue.add job pool.injected;
      Condition.signal pool.nonempty;
      Mutex.unlock pool.mutex

(* ------------------------------------------------------------------ *)
(* Process-wide default, configured by the CLI's -j/--jobs flag.       *)

(* mklint: allow-file R4 — these three cells are the process-wide -j
   singleton itself: mutated only by the main domain (CLI setup and
   at_exit teardown), never from inside submitted jobs. *)
let default_jobs_setting = ref 1
let default_pool : t option ref = ref None
let at_exit_registered = ref false

let default_jobs () = !default_jobs_setting

let teardown_default () =
  match !default_pool with
  | Some p ->
      default_pool := None;
      shutdown p
  | None -> ()

let set_default_jobs n =
  let n = if n = 0 then Domain.recommended_domain_count () else max 1 n in
  teardown_default ();
  default_jobs_setting := n;
  if not !at_exit_registered then begin
    at_exit_registered := true;
    at_exit teardown_default
  end

let get_default () =
  if !default_jobs_setting <= 1 then None
  else
    match !default_pool with
    | Some _ as p -> p
    | None ->
        (* The submitting domain is one of the -j executors (it helps
           drain the deques in parallel_map), so -j N needs N-1 worker
           domains. *)
        let p = create ~num_domains:(!default_jobs_setting - 1) () in
        default_pool := Some p;
        Some p

(* ------------------------------------------------------------------ *)

(* One task per list element — the finest grain available.  With the
   old central queue, fine grain meant fine-grained lock traffic, so
   items were batched into per-executor chunks and an expensive cell
   hiding in a cheap chunk serialised its whole chunk.  Deques invert
   that: local push/pop is a few atomic ops and only actual steals
   touch shared state, so per-item tasks cost nothing extra and idle
   executors pull exactly the items the busy ones have not reached —
   uneven task costs load-balance themselves.

   Each task writes its own disjoint slot of [results]; the seq-cst
   decrements of [remaining] (and the final broadcast under the
   mutex) publish those writes to the submitting domain.

   The submitting domain does not sleep while workers run: it claims
   executor slot [size] (deque and counter row), pushes every task
   there, and executes alongside the workers — popping its own deque
   LIFO, stealing back when its deque is drained — with the
   [in_worker] flag set for the duration and cleared after.  It leaves
   the GC settings alone: on OCaml 5 each change of [minor_heap_size]
   is a stop-the-world minor collection of every domain.  A map over
   a pool of [w] workers therefore uses [w + 1] executing domains,
   and no more domains than executors.  If
   another domain's map already holds slot [size] (unusual but
   legal), this map routes its tasks through the injector instead and
   helps slotlessly. *)
let parallel_run_on pool f xs =
  Mutex.lock pool.mutex;
  (match pool.poisoned with
  | Some (e, bt) ->
      Mutex.unlock pool.mutex;
      Printexc.raise_with_backtrace e bt
  | None ->
      if pool.stopped then begin
        Mutex.unlock pool.mutex;
        invalid_arg "Pool.submit: pool is shut down"
      end;
      pool.active_helpers <- pool.active_helpers + 1;
      Mutex.unlock pool.mutex);
  let inputs = Array.of_list xs in
  let n = Array.length inputs in
  let results = Array.make n None in
  let remaining = Atomic.make n in
  let task i () =
    results.(i) <-
      Some
        (try Ok (f inputs.(i))
         with e -> Error (e, Printexc.get_raw_backtrace ()));
    if Atomic.fetch_and_add remaining (-1) = 1 then begin
      Mutex.lock pool.mutex;
      Condition.broadcast pool.progress;
      Mutex.unlock pool.mutex
    end
  in
  let slot_claimed = Atomic.compare_and_set pool.submitter_busy false true in
  if slot_claimed then begin
    let dq = pool.deques.(pool.size) in
    for i = 0 to n - 1 do
      Deque.push dq (task i);
      Atomic.incr pool.pending
    done
  end
  else begin
    Mutex.lock pool.mutex;
    for i = 0 to n - 1 do
      Queue.add (task i) pool.injected;
      Atomic.incr pool.pending
    done;
    Mutex.unlock pool.mutex
  end;
  wake_sleepers pool;
  let saved_slot = Domain.DLS.get executor_slot in
  Domain.DLS.set in_worker true;
  if slot_claimed then Domain.DLS.set executor_slot (Some pool.size);
  let outcome =
    Fun.protect
      ~finally:(fun () ->
        Domain.DLS.set in_worker false;
        Domain.DLS.set executor_slot saved_slot;
        if slot_claimed then Atomic.set pool.submitter_busy false;
        Mutex.lock pool.mutex;
        pool.active_helpers <- pool.active_helpers - 1;
        Condition.broadcast pool.progress;
        Mutex.unlock pool.mutex)
    @@ fun () ->
    let rec help () =
      if Atomic.get remaining = 0 then `Done
      else
        match pool.poisoned with
        | Some p -> `Poisoned p
        | None -> (
            let found =
              if slot_claimed then find_task pool pool.size
              else find_task_slotless pool
            in
            match found with
            | Some job ->
                if slot_claimed then
                  pool.executed.(pool.size) <- pool.executed.(pool.size) + 1;
                (* Injected raw jobs poison exactly as on a worker;
                   map tasks capture their exceptions per slot. *)
                (try job ()
                 with e -> poison pool e (Printexc.get_raw_backtrace ()));
                help ()
            | None ->
                (* Nothing runnable anywhere, so every unfinished task
                   is in flight on another executor (tasks are only
                   ever pushed by submitters, never by workers): wait
                   for completions, worker exits or poison. *)
                Mutex.lock pool.mutex;
                while
                  Atomic.get remaining > 0
                  && pool.poisoned = None
                  && pool.live_workers + pool.active_helpers - 1 > 0
                do
                  Condition.wait pool.progress pool.mutex
                done;
                let outcome =
                  if Atomic.get remaining = 0 then `Done
                  else
                    match pool.poisoned with
                    | Some p -> `Poisoned p
                    | None -> `Abandoned
                in
                Mutex.unlock pool.mutex;
                (match outcome with
                | `Done | `Poisoned _ -> outcome
                | `Abandoned ->
                    (* Workers all exited (concurrent shutdown); one
                       final scan before declaring the map lost. *)
                    if
                      (if slot_claimed then find_task pool pool.size
                       else find_task_slotless pool)
                      = None
                    then `Abandoned
                    else `Rescan))
    and continue = function `Rescan -> help () | o -> o
    in
    continue (help ())
  in
  match outcome with
  | `Poisoned (e, bt) -> Printexc.raise_with_backtrace e bt
  | `Abandoned | `Rescan ->
      (* Every worker exited (concurrent shutdown) with tasks pending. *)
      invalid_arg "Pool.parallel_map: pool was shut down"
  | `Done ->
      Array.to_list
        (Array.map
           (function Some r -> r | None -> assert false)
           results)

let parallel_map_on pool f xs =
  let rs = parallel_run_on pool f xs in
  (* First exception in input order wins, after all tasks finished. *)
  List.iter
    (function
      | Error (e, bt) -> Printexc.raise_with_backtrace e bt | Ok _ -> ())
    rs;
  List.map (function Ok v -> v | Error _ -> assert false) rs

let parallel_map ?pool f xs =
  if Domain.DLS.get in_worker then List.map f xs
  else
    let pool = match pool with Some _ as p -> p | None -> get_default () in
    match pool with
    | Some p when List.compare_length_with xs 2 >= 0 -> parallel_map_on p f xs
    | _ -> List.map f xs
