(** Sharded, conservatively synchronised parallel DES.

    Partitions an event simulation into [shards] independent {!Sim}
    heaps that advance in parallel — one {!Pool} task per shard per
    epoch — while producing output {e byte-identical} to a single
    serial heap.  The synchronisation is conservative in the
    Chandy–Misra–Bryant sense: a model must declare a [lookahead]
    [L > 0] and promise that an event processed at time [t] only
    sends cross-shard messages stamped [t + L] or later ({!send}
    enforces this).  Each epoch then safely fires everything up to
    [g + L - 1], where [g] is the globally earliest pending
    timestamp; cross-shard messages ride per-ordered-pair SPSC
    {!Mailbox}es and are merged at the epoch boundary in source-shard
    order, with null-message promises covering silent pairs.  The
    protocol, the lookahead derivation for the cluster model, and the
    determinism argument are spelled out in [docs/SHARDING.md]. *)

type t
(** One shard, as seen by model code running inside it: a private
    clock and event heap plus mailboxes to its peers.  A message is an
    int payload, as a {!Sim} event is. *)

val id : t -> int
val shard_count : t -> int

val now : t -> Units.time
(** The shard's private clock; shards drift within an epoch and never
    observably disagree (any event they could exchange is ordered by
    the lookahead). *)

val lookahead : t -> Units.time

val send : t -> shard:int -> at:Units.time -> int -> unit
(** Deliver [payload] to [shard] at absolute time [at].  A send to the
    shard's own id is an ordinary local event on its heap, which is
    how a model schedules its own work.  Cross-shard sends must
    respect the lookahead contract.
    @raise Invalid_argument if [shard] is out of range, if a local
    send's [at] precedes the shard's clock, or if the send is
    cross-shard with [at < now + lookahead]. *)

type stats = {
  shards : int;
  epochs : int;  (** synchronisation rounds after the init round *)
  events : int array;  (** events fired, per shard *)
  cross_messages : int array;  (** real cross-shard messages sent, per shard *)
  null_messages : int array;  (** null promises sent, per shard *)
  horizon_stalls : int array;
      (** epochs a shard held pending events but could fire none *)
}
(** All deterministic: identical for every pool size, including none —
    safe to feed observability counters or snapshots. *)

type sample = {
  sample_epoch : int;  (** 1-based epoch index *)
  sample_bound : Units.time;  (** the epoch's global bound [g] *)
  sample_horizon : Units.time;  (** [g + lookahead - 1] *)
  sample_events : int;  (** events fired this epoch, all shards *)
  sample_cross : int;  (** real cross-shard messages sent this epoch *)
  sample_nulls : int;  (** null promises sent this epoch *)
  sample_stalls : int;  (** shards that held events but fired none *)
  sample_backlog : int;
      (** packets (real + null) in flight at the epoch barrier *)
}
(** One epoch of engine internals, as handed to {!run}'s [observer].
    Like {!stats}, every field is protocol-determined — identical for
    sequential and [-j N] runs — so {!Mk_obs.Profile} timelines built
    from samples keep the byte-identity contract. *)

val run :
  ?pool:Pool.t ->
  ?observer:(sample -> unit) ->
  shards:int ->
  lookahead:Units.time ->
  init:(t -> unit) ->
  receive:(t -> int -> unit) ->
  unit ->
  stats
(** Run a sharded simulation to completion.  [init] is called once
    per shard (in parallel) to populate its heap by sending to its own
    shard; [receive] handles each delivered cross- or same-shard
    {!send} — it fires at the message's timestamp, so [now t] inside
    it {e is} the [at] of the send.  Epochs repeat until every heap is empty and no message is
    in flight.  [observer] fires once per epoch, on the coordinating
    caller after the epoch barrier (never on a worker), with that
    epoch's {!sample}.  Uses the ambient default pool when [pool] is
    absent; degrades to a sequential loop inside a pool worker, with
    identical results.
    @raise Invalid_argument when [shards <= 0] or [lookahead <= 0]. *)
