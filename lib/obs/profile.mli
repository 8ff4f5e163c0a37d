(** Engine self-profiler: deterministic timelines of sharded-DES
    internals (docs/OBSERVABILITY.md §2).

    One [t] accompanies one {!Mk_engine.Shard.run}: feed {!observe}
    as the run's [observer] and every epoch's protocol-determined
    {!Mk_engine.Shard.sample} (event/cross/null/stall deltas, mailbox
    backlog at the barrier, global bound and horizon) is folded into
    fixed-width simulated-time buckets plus run totals.  Because the
    samples are identical for sequential and [-j N] execution, so is
    {!to_json} — the profile obeys the same byte-identity contract as
    the simulation output (qcheck'd in [test/test_obs.ml]).

    The {e nondeterministic} scheduler view (live {!Mk_engine.Pool}
    steal counters, {!Mk_engine.Pool.injector_depth}) is deliberately
    not part of this document; {!Pool_stats} renders it and
    [simos profile --sched] prints it separately. *)

type bucket = {
  b_index : int;  (** [b_start / bucket_ns] *)
  b_start : Mk_engine.Units.time;  (** bucket start, simulated ns *)
  b_epochs : int;
  b_events : int;
  b_cross : int;
  b_nulls : int;
  b_stalls : int;
  b_max_backlog : int;  (** max in-flight packets at an epoch barrier *)
}

type totals = {
  t_epochs : int;
  t_events : int;
  t_cross : int;
  t_nulls : int;
  t_stalls : int;
  t_max_backlog : int;
  t_first_bound : Mk_engine.Units.time;
  t_last_bound : Mk_engine.Units.time;
  t_lookahead : Mk_engine.Units.time;  (** derived from the first sample *)
}

type t

val default_bucket_ns : Mk_engine.Units.time
(** 1 ms of simulated time per bucket. *)

val create : ?bucket_ns:Mk_engine.Units.time -> shards:int -> unit -> t
(** Raises [Invalid_argument] when [bucket_ns <= 0] or [shards <= 0]. *)

val shards : t -> int
val bucket_ns : t -> Mk_engine.Units.time

val observe : t -> Mk_engine.Shard.sample -> unit
(** Fold one epoch sample in.  Samples must arrive in epoch order
    (nondecreasing bounds) — exactly what {!Mk_engine.Shard.run}'s
    [observer] delivers. *)

val buckets : t -> bucket list
(** Timeline so far, oldest first. *)

val totals : t -> totals

(** {1 Derived rates} *)

val events_per_epoch : totals -> float
(** How much work each synchronisation round extracts. *)

val null_pct : totals -> float
(** Null promises as a percentage of all cross-shard packets. *)

val stall_pct : shards:int -> totals -> float
(** Percentage of (epoch × shard) slots that held pending events but
    fired none. *)

val horizon_utilization : totals -> float
(** Mean bound advance per epoch over the lookahead window; 1.0 means
    every barrier buys a full horizon of progress. *)

(** {1 Export} *)

val to_json : t -> Mk_engine.Json.t
(** Schema ["multikernel-profile/1"]: totals (with derived rates) and
    the bucket timeline.  Deterministic — byte-identical across pool
    sizes for the same run. *)

val top : k:int -> (string * totals) list -> (string * totals) list
(** Hot-scenario attribution: the [k] rows with the most simulated
    events, ties broken by label — a deterministic ranking. *)

val attribution_json : shards:int -> (string * totals) list -> Mk_engine.Json.t
(** The attribution table as a JSON list, one object per row with the
    label and the row's {!totals} fields. *)
