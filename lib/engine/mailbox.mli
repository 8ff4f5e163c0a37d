(** Single-producer single-consumer mailbox.

    The channel between two {!Shard}s: the shard that owns the sending
    side pushes, the shard that owns the receiving side pops, and no
    lock is ever taken.  "Single" is a role, not a domain identity —
    the epoch barrier in {!Shard.run} hands each role to at most one
    domain at a time and synchronises the hand-over, which is exactly
    the contract this queue needs.

    FIFO per mailbox; delivered values are scrubbed from the queue's
    nodes so no reference outlives its delivery. *)

type 'a t

val create : unit -> 'a t

val push : 'a t -> 'a -> unit
(** Producer side: append one value.  Never blocks; the queue is
    unbounded (one heap node per in-flight value). *)

val pop : 'a t -> 'a option
(** Consumer side: remove the oldest value, or [None] when the queue
    is empty at the moment of the call. *)

val is_empty : 'a t -> bool
(** Consumer side: no value was visible at the moment of the call. *)
