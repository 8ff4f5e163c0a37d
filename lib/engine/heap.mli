(** Array-backed binary min-heap of int payloads keyed by integer
    priority.

    Used as the backbone of the event queue.  Insertions with equal
    keys are dequeued in insertion order (the heap carries a sequence
    number), which keeps simulations deterministic.  Each slot is
    three ints (key, sequence number, payload) of one [int array], so
    {!top_key}, {!top} and {!take} allocate nothing, nor does {!push}
    unless the array must grow, and no store goes through the write
    barrier.  A caller whose entries are richer than an int keeps them
    in its own table and pushes their index. *)

type t

val create : ?capacity:int -> unit -> t
val length : t -> int
val is_empty : t -> bool

val push : t -> key:int -> int -> unit

val top_key : t -> int
(** Smallest key, without removing its entry.
    @raise Invalid_argument on an empty heap. *)

val top : t -> int
(** Payload of the smallest entry, without removing it.
    @raise Invalid_argument on an empty heap. *)

val take : t -> int
(** Remove the smallest entry and return its payload; read its key
    first with {!top_key}.
    @raise Invalid_argument on an empty heap. *)

val peek : t -> (int * int) option
(** Smallest (key, payload), without removing it. *)

val pop : t -> (int * int) option
(** Remove and return the smallest (key, payload), as {!take} does. *)

val pop_exn : t -> int * int
(** @raise Invalid_argument on an empty heap. *)

val to_sorted_list : t -> (int * int) list
(** Non-destructive: all elements in ascending key order. *)
