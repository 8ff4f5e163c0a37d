(** A bootable operating-system model for one node.

    The three kernels of the paper are values of this one type,
    differing in their noise profile, scheduler, system-call
    disposition/offload transport, memory-management strategy and
    physical-memory boot state.  Constructors live in
    {!Linux_os}, {!Mckernel} and {!Mos}. *)

type kind = Linux | Mckernel_kind | Mos_kind

type sched_kind =
  | Cfs_sched
  | Lwk_cooperative
  | Lwk_time_sharing of Mk_engine.Units.time

type options = {
  mpol_shm_premap : bool;
      (** McKernel [--mpol-shm-premap]: pre-populate MPI shared-memory
          windows to dodge page-fault contention (Section IV). *)
  disable_sched_yield : bool;
      (** McKernel [--disable-sched-yield]: hijack glibc's
          sched_yield and make it a no-op (Section IV). *)
  heap_management : bool;
      (** The HPC brk optimisation; toggleable in mOS at job launch
          (Table I), a separate kernel image in McKernel. *)
}

val default_options : options

type t = {
  kind : kind;
  name : string;
  topo : Mk_hw.Topology.t;
  phys : Mk_mem.Phys.t;
  os_cores : Mk_hw.Topology.core list;
  app_cores : Mk_hw.Topology.core list;
  app_noise : Mk_noise.Profile.t;  (** interference on application cores *)
  disposition : Mk_syscall.Disposition.table;
  offload : Mk_ikc.Offload.t option;  (** [None] when everything is local *)
  sched_kind : sched_kind;
  strategy : ranks:int -> Mk_mem.Address_space.strategy;
      (** per-process memory strategy for a job with [ranks] ranks
          per node (mOS derives its MCDRAM quota from this) *)
  default_policy : home:Mk_hw.Numa.id -> Mk_mem.Policy.t;
  options : options;
  syscall_entry : Mk_engine.Units.time;  (** user→kernel transition *)
  local_service_factor : float;
      (** scaling of {!Mk_syscall.Cost.native} for locally-implemented
          calls: an LWK's lean paths beat Linux's general ones *)
  fault_costs : Mk_mem.Fault.costs;
      (** page-fault cost parameters; an LWK's fault path is leaner *)
}

val kind_to_string : kind -> string

val syscall_time :
  t ->
  ?payload:int ->
  core:Mk_hw.Topology.core ->
  Mk_syscall.Sysno.t ->
  (Mk_engine.Units.time, [ `Enosys ]) result
(** Latency of one system call issued from [core], honouring the
    kernel's disposition table, offload transport and the
    [disable_sched_yield] option.  [payload] is the argument/data
    volume an offloaded call must ship across the IKC channel
    (read/write buffers).  Memory-management work is *not* included —
    the address-space model charges it. *)

val address_space :
  t -> ranks:int -> home:Mk_hw.Numa.id -> Mk_mem.Address_space.t
(** Fresh address space for one rank of a [ranks]-per-node job whose
    first CPU sits in NUMA domain [home]. *)

val is_lwk : t -> bool

val largest_free_block :
  t -> kind:Mk_hw.Memory_kind.t -> Mk_engine.Units.size
(** Largest contiguous physical block of the given memory kind — the
    1G-page-availability probe for the boot-time-grab ablation. *)
