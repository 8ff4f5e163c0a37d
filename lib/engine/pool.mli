(** Work-stealing domain pool for embarrassingly parallel sweeps.

    The experiment layer runs many independent simulations — every
    {!Mk_cluster.Driver.run} owns its own event queue and PRNG, so a
    sweep is a pure [map] over (scenario × node count × repetition)
    cells.  This module fans such maps out across OCaml 5 domains
    while keeping the output {e bit-identical} to the sequential run.

    Scheduling is work stealing over per-executor {!Deque}s rather
    than a central locked queue: each executor (worker domain or the
    submitting domain) owns one Chase–Lev deque, pushes and pops it
    LIFO without contention, and steals the {e oldest} task from a
    sibling — deterministic round-robin victim order — only when its
    own deque is empty.  Blocking on a condition variable is the last
    resort, after a full steal round finds nothing.  Tasks are
    single list elements (one simulation run each), so uneven task
    costs load-balance themselves: idle executors pull exactly the
    runs the busy ones have not reached.

    Determinism is unaffected by any of this, by construction:

    - {!parallel_map} writes each result into a slot indexed by input
      position and reassembles in input order, so result assembly
      does not depend on completion order — which executor ran a task,
      or in what order, is invisible in the output;
    - workers share nothing: each task closes over its own immutable
      inputs and writes one private result slot;
    - a [parallel_map] issued from inside a worker (a nested sweep)
      degrades to a plain [List.map] on that worker, which both keeps
      the determinism argument trivial and makes pool deadlock
      impossible.

    The determinism contract this relies on is spelled out in
    [docs/PARALLELISM.md]. *)

type t
(** A pool of worker domains scheduled by work stealing. *)

val create :
  ?oversubscribe:bool -> ?num_domains:int -> ?deque_capacity:int -> unit -> t
(** [create ?num_domains ()] spawns up to [num_domains] worker domains
    (default [max 1 (Domain.recommended_domain_count () - 1)]).
    Raises [Invalid_argument] if [num_domains < 1].

    [num_domains] is a cap, not a demand.  The submitting domain helps
    execute tasks during {!parallel_map}, so the pool clamps its worker
    count to [recommended_domain_count - 1]: a domain without a core
    of its own adds no throughput, only stop-the-world GC rendezvous
    and scheduler ping-pong — the reason [-j] used to lose to
    sequential on small machines.  On a single-core machine the clamp
    yields zero workers and [parallel_map] runs every task on the
    submitting domain.  [oversubscribe:true] spawns the requested
    count regardless; tests use it to get real cross-domain traffic
    on any machine.

    [deque_capacity] is the initial ring size of each executor's
    {!Deque} (default 256; grows geometrically, so it is never a
    limit).  Tests pass tiny capacities to force ring growth under
    concurrent stealing. *)

val size : t -> int
(** Number of worker domains (after clamping). *)

(** {1 Scheduler statistics}

    Per-executor counters for the scheduler's self-profiling.
    Counter slot [i < size t] belongs to worker [i]; the last slot is
    the submitting domain helping during {!parallel_map}.  Each slot
    is written by its executor alone and read without
    synchronisation, so a snapshot taken while a map is in flight may
    lag by a task or two.  Which executor ran which task is a race
    between domains, so these numbers are {e nondeterministic} by
    nature: they are for scheduler reports ([simos profile --sched],
    perfbench's pool layer) and must never feed simulation output or
    run snapshots. *)

type stats = {
  executors : int;  (** [size t + 1]: workers plus the submitter slot *)
  executed : int array;  (** tasks run, per executor *)
  local_pops : int array;  (** tasks taken from the executor's own deque *)
  steals : int array;  (** tasks stolen from another executor's deque *)
  failed_steals : int array;  (** steal probes that found a deque empty *)
  injected_runs : int array;
      (** tasks taken from the [submit] injector queue *)
}

val stats : t -> stats
(** Snapshot of the counters since creation (or {!reset_stats}).
    For every executor [i],
    [executed.(i) = local_pops.(i) + steals.(i) + injected_runs.(i)]
    once the pool is quiescent. *)

val reset_stats : t -> unit
(** Zero all {!stats} counters.  Call between benchmark phases, not
    while a map is in flight. *)

val executed_jobs : t -> int array
(** [stats t |> fun s -> s.executed]: tasks run, per executor, since
    creation or {!reset_stats}. *)

val injector_depth : t -> int
(** Jobs currently waiting on the [submit] injector queue (taken
    under the pool mutex, so exact at the instant of the call).  Like
    {!stats} this is scheduler state — nondeterministic by nature,
    for the self-profiler's live view only, never for simulation
    output. *)

val reset_executed : t -> unit
(** Alias of {!reset_stats}. *)

val shutdown : t -> unit
(** Drain the queues, stop the workers and join them.  Idempotent, and
    safe on a poisoned pool (crashed workers have already returned).
    Submitting to a shut-down pool raises [Invalid_argument]. *)

val submit : t -> (unit -> unit) -> unit
(** Enqueue a raw job on the injector queue (raw jobs are not pushed
    on any deque — deque ownership belongs to [parallel_map]
    submitters).  Idle executors drain the injector after their steal
    round.  The job should not raise: an exception escaping a raw job
    {e poisons} the pool — the worker that ran it stops, pending jobs
    are discarded, and the original exception is re-raised by every
    subsequent [submit] or in-flight [parallel_map] instead of
    deadlocking them.  ([parallel_map]'s own tasks never poison:
    their exceptions are captured per-slot and re-raised in input
    order.) *)

val parallel_map : ?pool:t -> ('a -> 'b) -> 'a list -> 'b list
(** [parallel_map ?pool f xs] is [List.map f xs], evaluated across
    the pool's domains.  Results are returned in input order.  If any
    task raises, the first exception (in input order) is re-raised
    with its backtrace after all tasks have finished.  If the pool is
    poisoned while tasks are pending, the poisoning exception is
    re-raised immediately (fail fast, no deadlock).

    Every list element becomes its own task.  The submitting domain
    is an executor too: it pushes the tasks onto its own deque, then
    rather than sleeping on the pool it executes alongside the
    workers — popping its deque LIFO, stealing back once it drains.
    A map over a pool of [w] workers therefore uses [w + 1]
    executing domains.  Every domain runs the runtime's GC settings
    ([OCAMLRUNPARAM]); the pool never changes them.

    Runs sequentially — exactly [List.map f xs] — when [pool] is
    absent and no default pool is configured, when [xs] has fewer
    than two elements, or when called from inside a pool worker. *)

(** {1 Process-wide default}

    The CLI surfaces parallelism as a [-j]/[--jobs] flag; the flag
    configures this default so library code deep in the experiment
    layer need not thread a pool through every call site. *)

val set_default_jobs : int -> unit
(** [set_default_jobs n] makes [parallel_map] calls without an
    explicit [?pool] use a shared pool sized for [n] executors — the
    submitting domain plus up to [n - 1] workers (clamped as in
    {!create}).  [n <= 1] means sequential (the initial state); [0]
    means [Domain.recommended_domain_count ()].  Replacing the
    setting shuts the previous default pool down. *)

val default_jobs : unit -> int
(** The currently configured default ([1] initially). *)
