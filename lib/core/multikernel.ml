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

let version = "1.0.0"

let scenarios = Mk_cluster.Scenario.trio

let find_app = Mk_apps.Registry.find
let app_names = Mk_apps.Registry.names

let run ~scenario ~app ~nodes ?(seed = 42) () =
  Mk_cluster.Driver.run ~scenario ~app ~nodes ~seed ()

let compare_at ~app ~nodes ?(seed = 42) () =
  List.map
    (fun scenario ->
      (scenario.Mk_cluster.Scenario.label, run ~scenario ~app ~nodes ~seed ()))
    scenarios
