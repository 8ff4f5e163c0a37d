(** Per-process virtual address space: mmap, brk, demand faults.

    This module is where the memory-management behaviours that
    distinguish Linux, McKernel and mOS actually execute.  A kernel
    expresses its behaviour as a {!strategy}:

    - Linux: demand paging, 4K pages with opportunistic THP, heap
      grown/shrunk exactly as requested, pages returned on shrink.
    - McKernel: prefault at map time, up to 1G pages, 2M-aligned heap
      grown in 2M increments with shrink ignored and only the first
      4K of each fresh 2M page zeroed, MCDRAM-first with transparent
      DDR4 spill, and fallback to demand paging when contiguous
      physical memory is unavailable.
    - mOS: as McKernel, minus the demand-paging fallback (rigid:
      only physically available memory can be allocated) and with an
      optional per-process MCDRAM quota modelling its upfront
      division of LWK memory between ranks.

    Every operation returns the simulated time it consumed; the
    kernel layer adds syscall-entry costs on top. *)

type strategy = {
  prefault : bool;  (** populate physical memory at map time *)
  heap_prefault : bool;  (** populate the heap at brk time *)
  max_page : Page.size;  (** largest page size the kernel will map *)
  thp : bool;  (** Linux-style opportunistic 2M for aligned anon interiors *)
  heap_align : int;  (** alignment of the heap base and growth *)
  heap_increment : int;  (** granularity of physical heap growth *)
  heap_ignore_shrink : bool;  (** keep memory mapped on negative brk *)
  heap_zero_first_4k_only : bool;
      (** zero 4K per fresh heap page instead of the whole page *)
  demand_fallback : bool;
      (** fall back to demand paging when contiguous allocation fails *)
  strict_physical : bool;  (** fail with ENOMEM instead of demand paging *)
  mcdram_quota : int option;  (** cap on MCDRAM bytes for this space *)
}

val linux_strategy : strategy
val mckernel_strategy : strategy
val mos_strategy : strategy
(** mOS with regular heap management; toggle fields for Table I. *)

type stats = {
  mutable faults : int;
  mutable fault_time : Mk_engine.Units.time;
  mutable brk_queries : int;
  mutable brk_grows : int;
  mutable brk_shrinks : int;
  mutable brk_time : Mk_engine.Units.time;
  mutable mmap_calls : int;
  mutable mmap_time : Mk_engine.Units.time;
  mutable demand_fallbacks : int;
  mutable zeroed_bytes : int;
  mutable cumulative_heap_growth : int;
  mutable heap_peak : int;
}

type t

val create :
  phys:Phys.t ->
  strategy:strategy ->
  ?costs:Fault.costs ->
  default_policy:Policy.t ->
  unit ->
  t

val strategy : t -> strategy
val stats : t -> stats

val set_mcdram_quota : t -> int option -> unit
(** Adjust the MCDRAM budget before populating the space.  The
    cluster driver uses this to express how the kernels share scarce
    MCDRAM between ranks: demand paging (Linux first-touch,
    McKernel's fallback) shares it in proportion to footprint, while
    mOS divides it upfront into equal shares (Section IV). *)

(** {1 Operations} *)

val mmap :
  t ->
  bytes:int ->
  backing:Vma.backing ->
  ?policy:Policy.t ->
  unit ->
  (int * Mk_engine.Units.time, [ `Enomem ]) result
(** Map a new region; returns (address, cost).  Under a prefault
    strategy the cost includes population and zeroing; [`Enomem] is
    only possible under [strict_physical] or a strict policy. *)

val munmap : t -> addr:int -> Mk_engine.Units.time
(** Unmap the VMA starting at [addr], releasing physical backing.
    @raise Invalid_argument if no VMA starts there. *)

val brk : t -> delta:int -> (int * Mk_engine.Units.time, [ `Enomem ]) result
(** Grow ([delta > 0]), shrink ([delta < 0]) or query ([delta = 0])
    the heap.  Returns the new program break and the cost. *)

val sbrk_query : t -> int
(** Current program break (no cost, no stats — for assertions). *)

val touch :
  t -> addr:int -> bytes:int -> concurrency:int -> Mk_engine.Units.time
(** First-touch the byte range: demand-fault any unpopulated pages
    covering it.  Prefaulted regions cost nothing.  [concurrency] is
    the number of threads faulting simultaneously (page-fault handler
    contention). *)

val premap : t -> addr:int -> bytes:int -> Mk_engine.Units.time
(** Populate a range upfront without taking page faults: bulk
    mapping and zeroing at prefault cost (MAP_POPULATE semantics,
    McKernel's [--mpol-shm-premap]). *)

val touch_heap : t -> concurrency:int -> Mk_engine.Units.time
(** First-touch the heap up to the current break. *)

val touch_all : t -> concurrency:int -> Mk_engine.Units.time
(** Touch every VMA completely (plus the heap up to the break). *)

(** {1 Placement queries} *)

val backed_bytes : t -> int
val mcdram_bytes : t -> int

val mcdram_fraction : t -> float
(** Share of populated bytes living in MCDRAM (1.0 if nothing is
    populated — an empty space has no DDR4 penalty). *)

val tlb_factor : t -> float
(** Weighted TLB/page-walk overhead multiplier for this space. *)

val heap_mapped_bytes : t -> int
(** Physically mapped extent of the heap (can exceed the break when
    shrink is ignored). *)

val find_vma : t -> int -> Vma.t option

val page_table : t -> Page_table.t
(** The process's paging structures: the LWKs' huge mappings keep
    this radically smaller than Linux's 4K/2M trees.  Built per call
    from the live extents of the heap and every VMA, in O(extents);
    the space itself keeps no table. *)
