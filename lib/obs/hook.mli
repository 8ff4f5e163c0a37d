(** Ambient hook sites: how instrumented layers reach the active
    {!Recorder} without threading it through their APIs.

    The slot is domain-local ([Domain.DLS], the {!Mk_engine.Scratch}
    pattern — not a global [ref], which mklint R4 would rightly
    reject): under a {!Mk_engine.Pool} fan-out every worker domain
    has its own slot, so concurrent runs cannot observe each other's
    recorders.  {!Mk_cluster.Driver.run} installs its recorder with
    {!with_recorder} for the duration of the run.

    When no recorder is installed (the Null sink — the initial state)
    every helper is a DLS read and a [match]: zero allocation, which
    is what "zero-cost when disabled" means here.  test_obs's
    [disabled hooks allocate nothing] asserts it: 100,000 calls each
    of {!count}, {!count_node}, {!observe} and {!gauge} with no
    recorder allocate 0 minor words, and [recorder sink allocation
    budget] bounds each call at 7 words with a recorder installed. *)

val active : unit -> Recorder.t option

val with_recorder : Recorder.t -> (unit -> 'a) -> 'a
(** Install [r] for the call's duration; restores the previous slot
    value on the way out (exceptions included). *)

val count : subsystem:string -> name:string -> int -> unit
(** Bump a counter on the active recorder, charged to its current
    node; no-op when disabled. *)

val count_node : node:int -> subsystem:string -> name:string -> int -> unit
(** As {!count} with an explicit node (the DES shards know the node
    they charge regardless of the attribution cursor). *)

val observe : subsystem:string -> name:string -> int -> unit
val gauge : subsystem:string -> name:string -> int -> unit
