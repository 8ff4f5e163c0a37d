(** Array-backed binary min-heap keyed by integer priority.

    Used as the backbone of the event queue.  Insertions with equal
    keys are dequeued in insertion order (the heap carries a sequence
    number), which keeps simulations deterministic.  Keys, sequence
    numbers and values live in parallel arrays, so {!top_key}, {!top}
    and {!take} allocate nothing, nor does {!push} unless the arrays
    must grow. *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
(** [dummy] fills every vacated or unused slot, so the heap retains
    no reference to a popped value.  It is never returned. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> key:int -> 'a -> unit

val top_key : 'a t -> int
(** Smallest key, without removing its entry.
    @raise Invalid_argument on an empty heap. *)

val top : 'a t -> 'a
(** Value of the smallest entry, without removing it.
    @raise Invalid_argument on an empty heap. *)

val take : 'a t -> 'a
(** Remove the smallest entry and return its value; read its key
    first with {!top_key}.  The vacated slot is overwritten, so the
    heap retains no reference to the value.
    @raise Invalid_argument on an empty heap. *)

val peek : 'a t -> (int * 'a) option
(** Smallest (key, value), without removing it. *)

val pop : 'a t -> (int * 'a) option
(** Remove and return the smallest (key, value), as {!take} does. *)

val pop_exn : 'a t -> int * 'a
(** @raise Invalid_argument on an empty heap. *)

val to_sorted_list : 'a t -> (int * 'a) list
(** Non-destructive: all elements in ascending key order. *)
