(** Experiment orchestration: repeated runs, medians, sweeps.

    The paper "ran most applications five times and show[s] the
    median … error bars indicating the maximum and minimum values"
    (Section III-C); [point] carries exactly that.

    Every repetition of every (scenario × node count) cell is an
    independent simulation — its own {!Driver} run, its own seed — so
    the orchestrators below flatten their cells into {e per-run}
    tasks and fan them out through one {!Mk_engine.Pool.parallel_map}
    call ({!points}): the work-stealing pool load-balances individual
    runs across uneven cell costs, with no barrier between cells,
    scenarios or apps.  Results are reassembled in input order, which
    makes parallel output bit-identical to sequential output (see
    [docs/PARALLELISM.md] for the contract, and the determinism test
    in [test/test_cluster.ml]).  With no [?pool] and no configured
    default pool everything runs sequentially, exactly as before. *)

type point = {
  nodes : int;
  median_fom : float;
  min_fom : float;
  max_fom : float;
  median_result : Driver.result;  (** the run realising the median *)
}

type series = { scenario_label : string; points : point list }

val default_runs : int
(** 5, as in the paper. *)

val point :
  ?pool:Mk_engine.Pool.t ->
  ?faults:Mk_fault.Plan.t ->
  ?obs:Mk_obs.Collect.t ->
  scenario:Scenario.t ->
  app:Mk_apps.App.t ->
  nodes:int ->
  ?runs:int ->
  ?seed:int ->
  unit ->
  point
(** One cell: [runs] repetitions (seeds [seed], [seed + 100], …)
    fanned out across the pool, reduced to median/min/max.  [faults]
    applies the same fault plan to every repetition, so the medians
    compare a fixed fault timeline across kernels and seeds.

    [obs] collects metrics (and, if it was created with [~trace:true],
    trace events) from every repetition.  Each run records into its
    own {!Mk_obs.Recorder}; snapshots are absorbed into the collector
    sequentially in run order after the fan-out returns, so observed
    output is bit-identical between sequential and [-j N] execution. *)

type cell = {
  scenario : Scenario.t;
  app : Mk_apps.App.t;
  nodes : int;
  faults : Mk_fault.Plan.t option;
  runs : int;
  seed : int;
}
(** One aggregation unit of {!points}: [runs] repetitions of the same
    configuration, reduced to a single {!point}. *)

val points :
  ?pool:Mk_engine.Pool.t ->
  ?obs:Mk_obs.Collect.t ->
  ?progress:(completed:int -> total:int -> unit) ->
  cell list ->
  point list
(** The experiment layer's one fan-out primitive: every repetition of
    every cell becomes its own pool task (cell-major,
    repetition-minor), so the work-stealing pool balances individual
    runs across cells of wildly different cost.  Returns one point
    per cell, in cell order.  {!point}, {!sweep},
    {!compare_scenarios}, {!suite} and {!Degradation} all reduce to a
    single call of this; use it directly for custom cell batches
    (mixed apps, per-cell fault plans) that should share one flat
    schedule.  [progress] fires after each completed repetition, on
    whichever domain ran it — it must be thread-safe, and it must not
    influence results (interactive heartbeats only; see
    [simos suite]).  Raises [Invalid_argument] if any cell has
    [runs <= 0]. *)

val sweep :
  ?pool:Mk_engine.Pool.t ->
  ?obs:Mk_obs.Collect.t ->
  ?progress:(completed:int -> total:int -> unit) ->
  scenario:Scenario.t ->
  app:Mk_apps.App.t ->
  ?node_counts:int list ->
  ?runs:int ->
  ?seed:int ->
  unit ->
  series
(** One curve: FOM against node count (defaults to the app's own
    sweep). *)

val compare_scenarios :
  ?pool:Mk_engine.Pool.t ->
  ?obs:Mk_obs.Collect.t ->
  ?progress:(completed:int -> total:int -> unit) ->
  scenarios:Scenario.t list ->
  app:Mk_apps.App.t ->
  ?node_counts:int list ->
  ?runs:int ->
  ?seed:int ->
  unit ->
  series list
(** The Figure-4 shape: one series per scenario.  Every repetition of
    every (scenario × node count) cell is submitted as one flat
    {!points} batch, so the pool stays busy across scenario
    boundaries. *)

val relative_to :
  baseline:series -> series -> (int * float) list
(** Per node count, this series' median FOM over the baseline's. *)

val median_improvement : (int * float) list list -> float
(** The paper's headline statistic: the median, across every
    (application × node count) pair, of the LWK-vs-Linux ratio. *)

val best_improvement : (int * float) list list -> float

val suite :
  ?pool:Mk_engine.Pool.t ->
  ?obs:Mk_obs.Collect.t ->
  ?progress:(completed:int -> total:int -> unit) ->
  ?apps:Mk_apps.App.t list ->
  ?node_counts:int list ->
  ?runs:int ->
  ?seed:int ->
  unit ->
  (Mk_apps.App.t * series list) list
(** The paper's full evaluation: every registered application (or
    [apps]) against {!Scenario.trio} at its own node counts (or
    [node_counts] for all of them — the bench perf smoke gate uses
    this to shrink the suite to a few cells).  The input to the
    {!Report} suite views and the [simos suite] command. *)

(** {1 Cell builders}

    The cell layouts behind {!sweep}, {!compare_scenarios} and
    {!suite}, exposed so a caller can run {e exactly} the cells an
    orchestrator call would compute through {!points}. *)

val sweep_cells :
  scenario:Scenario.t ->
  app:Mk_apps.App.t ->
  ?node_counts:int list ->
  ?runs:int ->
  ?seed:int ->
  unit ->
  cell list

val compare_cells :
  scenarios:Scenario.t list ->
  app:Mk_apps.App.t ->
  ?node_counts:int list ->
  ?runs:int ->
  ?seed:int ->
  unit ->
  cell list
(** Scenario-major, node-count-minor — the {!compare_scenarios} (and,
    per app, {!suite}) layout. *)

val suite_cells :
  ?apps:Mk_apps.App.t list ->
  ?node_counts:int list ->
  ?runs:int ->
  ?seed:int ->
  unit ->
  (Mk_apps.App.t * cell list) list

(** {1 JSON} *)

val point_to_json : point -> Mk_engine.Json.t
(** A point and its median run as one JSON object — every field,
    floats rendered by the deterministic {!Mk_engine.Json} printer. *)

(** {1 Sharded-DES validation}

    The [--des-shards] tier of [simos suite]: for each scenario, run
    the event-driven allreduce loop once on the single serial heap
    and once sharded ({!Cluster_des.sharded_allreduce_loop}), so the
    byte-identity invariant is checked against the exact OS noise
    profiles the suite just measured. *)

type des_check = {
  des_scenario : string;
  des_nodes : int;
  des_shards : int;
  serial : Cluster_des.result;
  sharded : Cluster_des.result;
  des_stats : Cluster_des.sharding;
}

val des_identical : des_check -> bool
(** Completion time {e and} message count agree exactly. *)

val des_checks :
  ?pool:Mk_engine.Pool.t ->
  ?scenarios:Scenario.t list ->
  nodes:int ->
  shards:int ->
  ?seed:int ->
  unit ->
  des_check list
(** One {!des_check} per scenario (default {!Scenario.trio}), at the
    DES cross-validation workload (64 ranks per node, 2 ms windows,
    10 iterations, 8-byte reductions).
    @raise Invalid_argument when [shards <= 0]. *)

val des_profiles :
  ?pool:Mk_engine.Pool.t ->
  ?scenarios:Scenario.t list ->
  ?bucket_ns:Mk_engine.Units.time ->
  nodes:int ->
  shards:int ->
  ?iterations:int ->
  ?seed:int ->
  unit ->
  (string * Mk_obs.Profile.t) list
(** The [simos profile] tier: the {!des_checks} workload run sharded
    with an {!Mk_obs.Profile} observing every conservative epoch — one
    labelled self-profile per scenario.  Profiles fold only
    protocol-determined {!Mk_engine.Shard.sample}s, so the result (and
    its JSON) is byte-identical for every pool size.
    @raise Invalid_argument when [shards <= 0] or [iterations <= 0]. *)
