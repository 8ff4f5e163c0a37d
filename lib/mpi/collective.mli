(** Collective operations over per-node clocks.

    The cluster tier tracks one virtual clock per node (the moment
    its slowest rank reaches the next synchronisation point).  A
    collective transforms the clock array in place: a binomial-tree
    reduce followed by a broadcast, each tree edge paying the fabric
    wire time plus whatever control system calls the sending OS
    needs (the [syscall_cost] callback prices them — local on Linux,
    offloaded on an LWK).

    This max-plus composition is where OS noise amplifies: a single
    straggler delays its whole subtree, so the expected completion
    grows with both scale and per-node jitter — the mechanism behind
    Figure 5(b). *)

type cost_env = {
  fabric : Mk_fabric.Fabric.t;
  syscall_cost : Mk_syscall.Sysno.t -> Mk_engine.Units.time;
  intra_ranks : int;  (** ranks per node taking part *)
}

val edge_cost : cost_env -> src:int -> dst:int -> bytes:int -> Mk_engine.Units.time
(** One tree edge: wire + control-syscall time.  {!allreduce} prices
    its edges to the same integers from two wire prices per call. *)

val regions : Mk_fabric.Fabric.t -> int -> int array
(** [regions fabric n]: the edge switch ({!Mk_fabric.Topology.region})
    of each of nodes [0 .. n - 1], in a domain-local scratch array that
    the next call overwrites. *)

val allreduce :
  cost_env -> clocks:Mk_engine.Units.time array -> bytes:int -> unit
(** In place: after return every clock holds the time at which that
    node leaves the allreduce (intra-node reduce, inter-node
    reduce+broadcast tree, intra-node broadcast). *)

val barrier : cost_env -> clocks:Mk_engine.Units.time array -> unit
(** An 8-byte allreduce. *)

val synchronise : clocks:Mk_engine.Units.time array -> unit
(** Ideal zero-cost synchronisation: every clock becomes the max.
    Used by tests as a baseline. *)
