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
    [scale_link t ~src ~dst (hop_time ~hops ~bytes)] with [hops] from
    {!Topology.hops}, and 0 when [src = dst]. *)

val hop_time : hops:int -> bytes:int -> Mk_engine.Units.time
(** Healthy wire time of a message crossing [hops] switch hops: 1
    within an edge switch, 3 through a spine.  A collective prices
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
    {!Topology.region}s, for messages of [bytes]: the healthy 3-hop
    cost ([base_latency + 3*per_hop + injection + serialisation]).
    Degraded links only raise the true cost, so the bound survives
    fault injection.  [max_int] when the topology has one region.
    This is the lookahead a region-partitioned {!Mk_engine.Shard}
    simulation may claim. *)

(** {1 Link degradation} (fault injection)

    A degraded endpoint multiplies the wire time of every message it
    sends or receives (the worse endpoint wins).  With no factor set
    the cost arithmetic is exactly the healthy integer path — fault
    support is provably zero-cost when off. *)

val set_link_factor : t -> node:int -> factor:float -> unit
(** [factor >= 1.0]; out-of-range nodes are ignored.  Raises
    [Invalid_argument] when [factor < 1.0]. *)

val reset_link_factors : t -> unit

val degraded : t -> bool
(** Some link factor above 1 has been set since the last reset. *)

val scale_link : t -> src:int -> dst:int -> Mk_engine.Units.time -> Mk_engine.Units.time
(** Apply the worse endpoint's link factor to a healthy wire time,
    rounding as {!wire_time} does; the identity when not {!degraded}. *)
