(** Multikernel — lightweight multi-kernel operating systems,
    simulated.

    An OCaml reproduction of {e Performance and Scalability of
    Lightweight Multi-Kernel based Operating Systems} (IPDPS 2018):
    executable models of Linux, IHK/McKernel and mOS over shared
    hardware, memory, scheduling, noise, system-call and interconnect
    substrates, plus the paper's eight applications and its full
    experiment suite.

    {1 Quick start}

    {[
      (* Boot the three kernels, run HPCG on 64 nodes, compare. *)
      let app = Option.get (Multikernel.find_app "hpcg") in
      List.iter
        (fun scenario ->
          let r = Multikernel.run ~scenario ~app ~nodes:64 () in
          Format.printf "%-10s %.4g %s@."
            scenario.Multikernel.Cluster.Scenario.label
            r.Multikernel.Cluster.Driver.fom app.Multikernel.Apps.App.fom_unit)
        Multikernel.scenarios
    ]}

    {1 Layers}

    - {!Engine}: deterministic simulation core (PRNG, events, stats).
    - {!Hw}: KNL node model — cores, SNC-4 NUMA, MCDRAM/DDR4.
    - {!Mem}: buddy allocator, address spaces, page faults, policies.
    - {!Proc}, {!Sched}, {!Noise}, {!Syscall}, {!Ikc}: the kernel
      substrates.
    - {!Kernel}: the three OS models and the node workload DES.
    - {!Fabric}, {!Mpi}: Omni-Path-like interconnect and MPI runtime.
    - {!Apps}: the eight application models.
    - {!Cluster}: the 2,048-node experiment driver.
    - {!Compat}: the LTP-like compatibility corpus.
    - {!Analysis}: determinism helpers shared with the mklint static
      checker (docs/STATIC_ANALYSIS.md), e.g. sorted hash-table views.
    - {!Obs}: deterministic metrics and tracing with Perfetto export
      (docs/OBSERVABILITY.md). *)

module Engine = Mk_engine
module Hw = Mk_hw
module Mem = Mk_mem
module Proc = Mk_proc
module Sched = Mk_sched
module Noise = Mk_noise
module Syscall = Mk_syscall
module Ikc = Mk_ikc
module Kernel = Mk_kernel
module Fabric = Mk_fabric
module Mpi = Mk_mpi
module Apps = Mk_apps
module Cluster = Mk_cluster
module Compat = Mk_compat
module Analysis = Mk_analysis
module Obs = Mk_obs

val version : string

(** {1 Convenience} *)

val scenarios : Cluster.Scenario.t list
(** McKernel, mOS, Linux. *)

val find_app : string -> Apps.App.t option
val app_names : string list

val run :
  scenario:Cluster.Scenario.t ->
  app:Apps.App.t ->
  nodes:int ->
  ?seed:int ->
  unit ->
  Cluster.Driver.result
(** One run with the default seed. *)

val compare_at :
  app:Apps.App.t -> nodes:int -> ?seed:int -> unit ->
  (string * Cluster.Driver.result) list
(** All three kernels at one node count. *)
