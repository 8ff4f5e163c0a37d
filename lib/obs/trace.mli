(** The trace recorder: spans and instant events on the simulated DES
    clock, exported as Chrome trace-event JSON (Perfetto-loadable).

    Timestamps are the simulator's nanosecond {!Mk_engine.Units.time}
    values — never wall clock — and the export order is
    [(ts, seq)] where [seq] is a stable per-event sequence number
    assigned at record time.  Identical runs therefore serialize to
    identical bytes whatever machine, job count or replay produced
    them (the determinism contract in docs/OBSERVABILITY.md). *)

type event = {
  ts : Mk_engine.Units.time;  (** simulated time, ns *)
  dur : Mk_engine.Units.time option;
      (** [Some d]: a complete span (ph "X"); [None]: an instant (ph "i") *)
  pid : int;  (** Perfetto process = cluster node *)
  tid : int;  (** Perfetto thread = track within the node *)
  cat : string;
  name : string;
  args : (string * Mk_engine.Json.t) list;
  seq : int;  (** stable record order; the sort tie-break *)
}

type t

val create : unit -> t
(** An empty trace; it keeps every event recorded into it. *)

val span :
  t ->
  ts:Mk_engine.Units.time ->
  dur:Mk_engine.Units.time ->
  pid:int ->
  tid:int ->
  cat:string ->
  name:string ->
  ?args:(string * Mk_engine.Json.t) list ->
  unit ->
  unit

val instant :
  t ->
  ts:Mk_engine.Units.time ->
  pid:int ->
  tid:int ->
  cat:string ->
  name:string ->
  ?args:(string * Mk_engine.Json.t) list ->
  unit ->
  unit

val events : t -> event list
(** In record order. *)

val length : t -> int
(** Events recorded since {!create}. *)

val compare_event : event -> event -> int
(** [(ts, seq)] lexicographic — the only order traces are merged or
    serialized in. *)

val sort : event list -> event list

val to_json :
  processes:(int * string) list ->
  threads:(int * int * string) list ->
  event list ->
  Mk_engine.Json.t
(** The Chrome trace document: process/thread-name metadata events
    followed by the given events in {!compare_event} order, wrapped
    as [{"traceEvents": [...], "displayTimeUnit": "ns"}].  [ts] and
    [dur] are emitted in microseconds (floats), as the format
    specifies. *)
