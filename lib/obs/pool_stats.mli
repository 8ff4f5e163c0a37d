(** Scheduler counters as metrics: the bridge from
    {!Mk_engine.Pool.stats} to the {!Metrics} vocabulary.

    The work-stealing pool counts, per executor, how many tasks it
    ran and where it got them (own deque, steal, injector).  Those
    numbers describe {e the host machine's race between domains}, not
    the simulated cluster: two identical runs produce different steal
    counts.  They therefore must never be absorbed into a run's
    {!Recorder} snapshot or any {!Collect} that feeds simulation
    output — the determinism gate (seq vs [-j N] byte-identity) would
    catch it if they were.  This module exists for the scheduler
    report only: [simos profile --sched] prints the pool's counters
    after its run, outside the deterministic document.

    Key shape: [kernel] is ["engine"] (no simulated kernel earned
    these samples), [node] is the executor index — worker [i] is node
    [i], the submitting domain is the last executor — and
    [subsystem] is ["sched"].  Sources become counters
    ([local_pops], [steals], [failed_steals], [injected_runs]); the
    per-executor task total is the [executed] gauge. *)

val kernel : string
(** ["engine"]. *)

val subsystem : string
(** ["sched"]. *)

val to_metrics : Mk_engine.Pool.stats -> Metrics.t
(** A fresh registry holding one [executed] gauge and four source
    counters per executor.  Once the pool is quiescent, for each
    executor the gauge equals the sum of its three task-source
    counters ([local_pops + steals + injected_runs]) — the invariant
    [test/test_obs.ml] pins down. *)

val to_json : Mk_engine.Pool.stats -> Mk_engine.Json.t
(** [Metrics.to_json (to_metrics s)]: keys sorted by {!Key.compare},
    byte-stable for identical stats. *)
