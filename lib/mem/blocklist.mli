(** The physical blocks backing one VMA, in a deque whose reversal is
    O(1).

    [add] puts a block at the front and [pop] takes the front one, so
    without a [reverse] the order is newest first.  [reverse] flips the
    whole sequence in place: after it, [pop] returns the oldest block,
    and later [add]s still go to the (new) front.  Every operation is
    O(1) amortised, so a Linux [brk] shrink costs O(blocks freed), not
    O(blocks held).  The module keeps [Vma] free of a direct
    dependency cycle with [Phys]. *)

type t

val empty : unit -> t
val is_empty : t -> bool

val add : t -> Phys.block -> unit
(** Put a block at the front. *)

val pop : t -> Phys.block
(** Take the front block.  Raises [Invalid_argument] when empty. *)

val reverse : t -> unit
(** Reverse the order of the blocks held. *)

val release_all : t -> Phys.t -> unit
(** Free every block into the allocator, front first, and empty the
    deque. *)
