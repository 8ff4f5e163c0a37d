(** Discrete-event simulation core.

    A simulation owns a virtual clock, a priority queue of pending
    events and one handler that fires them.  An event is an int the
    caller chooses (a node id, a task index, a rank and a message
    kind packed together), so scheduling and firing one allocates
    nothing.  Ties on the clock fire in scheduling order, so runs are
    deterministic. *)

type t

val create : (t -> int -> unit) -> t
(** [create fire]: [fire t ev] runs each event [ev] at its time, with
    [now t] set to it; it may schedule further events. *)

val now : t -> Units.time
(** Current virtual time, ns. *)

val schedule : t -> at:Units.time -> int -> unit
(** Schedule event [ev] to fire at absolute time [at].
    @raise Invalid_argument if [at] is in the past. *)

val schedule_after : t -> delay:Units.time -> int -> unit
(** Schedule relative to [now]. *)

val pending : t -> int
(** Number of events in the queue. *)

val run : ?until:Units.time -> t -> unit
(** Fire events until the queue drains, or until the clock would pass
    [until] (events at exactly [until] still fire). *)

val next_time : t -> Units.time option
(** Timestamp of the earliest pending event, without firing it —
    {!Shard}'s lookahead peek. *)
