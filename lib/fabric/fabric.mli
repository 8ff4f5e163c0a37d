(** End-to-end internode message cost.

    The wire part is the classic alpha–beta model with a per-hop
    term; the control part is a list of system calls that the
    *sending OS* must execute — local on Linux, offloaded on the
    LWKs.  The caller turns those into time with its kernel's
    syscall table, keeping this library OS-agnostic. *)

type t

val make : ?nic:Nic.t -> nodes:int -> unit -> t

val nic : t -> Nic.t
val topology : t -> Topology.t

val wire_time : t -> src:int -> dst:int -> bytes:int -> Mk_engine.Units.time
(** Latency + hops + serialisation for one message:
    [hop_time ~hops ~bytes] with [hops] from {!Topology.hops}, and 0
    when [src = dst]. *)

val hop_time : hops:int -> bytes:int -> Mk_engine.Units.time
(** Wire time of a message crossing [hops] switch hops: 1 within an
    edge switch, 3 through a spine.  A collective prices
    every edge of one call from these two values. *)

val message :
  t ->
  src:int ->
  dst:int ->
  bytes:int ->
  Mk_engine.Units.time * Mk_syscall.Sysno.t list
(** (wire time, control system calls charged to the sender). *)

val base_latency : Mk_engine.Units.time
val per_hop : Mk_engine.Units.time

val min_cross_region_time : t -> bytes:int -> Mk_engine.Units.time
(** Lower bound on {!wire_time} between nodes in different
    {!Topology.region}s, for messages of [bytes]: the 3-hop cost
    ([base_latency + 3*per_hop + injection + serialisation]).
    [max_int] when the topology has one region.  This is the
    lookahead a region-partitioned {!Mk_engine.Shard} simulation may
    claim. *)
