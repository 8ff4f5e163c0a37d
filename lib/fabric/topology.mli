(** Cluster interconnect topology: a two-level fat tree of the kind
    Oakforest-PACS builds from 48-port Omni-Path edge switches and
    director spines. *)

type t

val make : ?ports_per_edge:int -> nodes:int -> unit -> t
(** Full-bisection two-level fat tree over [nodes] nodes; default
    48-port edges. *)

val nodes : t -> int

val hops : t -> src:int -> dst:int -> int
(** Switch hops between two nodes: 0 (same node), 1 (same edge
    switch) or 3 (via a spine). *)

val same_edge : t -> int -> int -> bool

val region : t -> int -> int
(** Edge-switch index of a node — the unit the sharded DES partitions
    by: traffic between distinct regions always crosses a spine
    (3 hops), which is what gives the scheme its lookahead. *)

val regions : t -> int
(** Number of edge switches ([region] values are [0 .. regions - 1]). *)

val fill_regions : t -> int array -> unit
(** [fill_regions t a] sets [a.(x)] to [region t x] for every index of
    [a], counting nodes through each edge switch rather than dividing:
    a collective compares the regions of every tree edge's ends. *)
