(** Rendering experiment output the way the paper presents it. *)

val fom_table : app:Mk_apps.App.t -> Experiment.series list -> string
(** Node counts down the side, one FOM column (with min–max error
    range) per scenario. *)

val relative_table :
  app:Mk_apps.App.t ->
  baseline:Experiment.series ->
  Experiment.series list ->
  string
(** The Figure-4 view: each scenario's median relative to the
    baseline per node count. *)

val relative_chart :
  app:Mk_apps.App.t ->
  baseline:Experiment.series ->
  Experiment.series list ->
  string

val absolute_chart : app:Mk_apps.App.t -> Experiment.series list -> string

val csv : app:Mk_apps.App.t -> Experiment.series list -> string

val json : app:Mk_apps.App.t -> Experiment.series list -> Mk_engine.Json.t
(** Structured export: per scenario, per point — median/min/max FOM
    plus the median run's diagnostics (MCDRAM fraction, faults,
    offloads). *)

(** {1 Suite views}

    A {e suite} is the full evaluation: every application paired with
    its three-kernel comparison, as produced by {!Experiment.suite}.
    The baseline series is the one labelled ["Linux"]; apps missing a
    baseline or a comparison series are skipped, not errors. *)

val suite_table : (Mk_apps.App.t * Experiment.series list) list -> string
(** One row per application — median/best improvement over Linux for
    each LWK — followed by the paper's headline statistics. *)

val suite_headline :
  (Mk_apps.App.t * Experiment.series list) list ->
  (string * float * float) list
(** Per LWK label: (label, median improvement, best improvement)
    across every (application × node count) point of [suite], as
    ratios (1.0 = parity).  Over the full suite that is all eight
    applications, Lulesh included, so this is not the paper's
    statistic: the paper's median of 9 % (Section I) is taken over
    the Figure-4 points only, which [bench headline] computes. *)

val metrics_table : Mk_obs.Collect.t -> string
(** Every collected metric, one row per [(kernel, node, subsystem,
    name)] key in {!Mk_obs.Key.compare} order — the deterministic
    tie-break, not insertion order. *)

val mechanism_table : Mk_obs.Collect.t -> string
(** The mechanism counters (demand faults, 2M pages, MCDRAM spill,
    proxy round-trips vs. thread migrations, retries, preemptions)
    summed over nodes and pivoted per kernel. *)

val suite_json :
  runs:int ->
  seed:int ->
  ?obs:Mk_obs.Collect.t ->
  (Mk_apps.App.t * Experiment.series list) list ->
  Mk_engine.Json.t
(** The suite document ([simos suite --format json]): schema tag, run
    parameters, the merged [obs] metrics when given, headline
    statistics, and the per-app {!json} exports.  Deterministic field
    order, so byte-identical inputs render byte-identical files. *)

val des_table : Experiment.des_check list -> string
(** The [--des-shards] verdict: one row per scenario with the serial
    and sharded completion times side by side plus the conservative
    protocol's counters (events, cross-shard messages, nulls, epochs,
    fast-forwarded iterations).  The final column says whether the two
    runs were byte-identical. *)

val profile_timeline : label:string -> Mk_obs.Profile.t -> string
(** The engine self-profile of one sharded-DES run: a summary line
    (epochs, events/epoch, null and stall rates, horizon utilization)
    over the simulated-time bucket table.  Deterministic — built only
    from {!Mk_engine.Shard.sample}s. *)

val profile_hot :
  shards:int -> (string * Mk_obs.Profile.totals) list -> string
(** The top-k hot-scenario attribution table ({!Mk_obs.Profile.top}
    output): one row per labelled run, ranked by simulated events. *)

val profile_json :
  nodes:int ->
  shards:int ->
  seed:int ->
  (string * Mk_obs.Profile.t) list ->
  Mk_engine.Json.t
(** The [simos profile -o] document (schema
    ["multikernel-profile-report/1"]): run parameters, each scenario's
    {!Mk_obs.Profile.to_json}, and the hot-scenario attribution.
    Deterministic — byte-identical for every pool size. *)
