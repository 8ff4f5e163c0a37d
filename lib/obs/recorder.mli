(** One run's observability handle: a {!Metrics} registry, an
    optional {!Trace} buffer and a current-node attribution cursor.

    A recorder belongs to exactly one {!Mk_cluster.Driver} run and is
    only touched from the domain executing it (the experiment layer
    fans runs out one-per-job), so no locking is needed and
    parallel fan-out stays deterministic: each run's samples live in
    its own recorder, and {!snapshot}s are merged in input order by
    {!Collect}. *)

type t

type snapshot = {
  snap_label : string;  (** scenario/kernel label *)
  snap_nodes : int;
  snap_seed : int;
  snap_metrics : (Key.t * Metrics.value) list;
  snap_events : Trace.event list;
      (** in record order; [pid] is the run-local node index *)
}

val make : ?trace:bool -> label:string -> nodes:int -> seed:int -> unit -> t
(** [trace] (default [false]) allocates the event buffer; without it
    every span/instant call is a no-op. *)

val label : t -> string
val metrics : t -> Metrics.t

val tracing : t -> bool

val set_node : t -> int -> unit
(** Set the node charged by subsequent {!count}/{!observe}/{!gauge}
    calls.  {!Key.job_wide} initially. *)

val node : t -> int

val count : t -> subsystem:string -> name:string -> int -> unit
val count_node : t -> node:int -> subsystem:string -> name:string -> int -> unit
val observe : t -> subsystem:string -> name:string -> int -> unit
val gauge : t -> subsystem:string -> name:string -> int -> unit

val span :
  t ->
  ts:Mk_engine.Units.time ->
  dur:Mk_engine.Units.time ->
  node:int ->
  tid:int ->
  cat:string ->
  name:string ->
  ?args:(string * Mk_engine.Json.t) list ->
  unit ->
  unit
(** No-op unless tracing. *)

val instant :
  t ->
  ts:Mk_engine.Units.time ->
  node:int ->
  tid:int ->
  cat:string ->
  name:string ->
  ?args:(string * Mk_engine.Json.t) list ->
  unit ->
  unit

val snapshot : t -> snapshot
(** Immutable copy of everything recorded so far. *)
