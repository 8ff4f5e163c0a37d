(** Virtual memory areas.

    A VMA records one contiguous virtual mapping, the physical blocks
    backing it, how many bytes are populated, where they live
    (MCDRAM vs DDR4) and at which page sizes they are mapped.  The
    page-size mix feeds the TLB overhead factor; the MCDRAM share
    feeds the bandwidth model. *)

type backing =
  | Anonymous  (** mmap(MAP_ANONYMOUS) *)
  | Heap  (** the brk-managed region *)
  | Stack
  | Shared of int  (** System-V / POSIX shared memory, keyed segment *)

type acct = {
  mutable backed : int;  (** bytes physically populated *)
  mutable mcdram : int;  (** of which in MCDRAM *)
  mutable small : int;  (** bytes mapped with 4K pages *)
  mutable large : int;  (** bytes mapped with 2M pages *)
  mutable huge : int;  (** bytes mapped with 1G pages *)
}

type t = {
  start : int;
  mutable len : int;
  backing : backing;
  policy : Policy.t;
  blocks : Blocklist.t;
  acct : acct;
  mutable mappings : (int * int * Page.size) list;
      (** (vaddr, bytes, page) of each populated extent, newest first *)
}

val make : start:int -> len:int -> backing:backing -> policy:Policy.t -> t
val end_ : t -> int
val contains : t -> int -> bool
val overlaps : t -> start:int -> len:int -> bool

val record :
  t -> bytes:int -> mcdram:int -> page:Page.size -> unit
(** Account [bytes] newly populated, [mcdram] of them in MCDRAM,
    mapped at page size [page]. *)

val unbacked : t -> int
(** Bytes of the VMA not yet physically populated. *)

val tlb_factor : acct -> float
(** Backed-byte-weighted average of {!Page.tlb_overhead}; 1.0 for an
    empty accounting. *)

val merge_acct : acct list -> acct

val backing_to_string : backing -> string
