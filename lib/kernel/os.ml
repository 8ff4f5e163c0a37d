type kind = Linux | Mckernel_kind | Mos_kind

type sched_kind =
  | Cfs_sched
  | Lwk_cooperative
  | Lwk_time_sharing of Mk_engine.Units.time

type options = {
  mpol_shm_premap : bool;
  disable_sched_yield : bool;
  heap_management : bool;
}

let default_options =
  { mpol_shm_premap = false; disable_sched_yield = false; heap_management = true }

type t = {
  kind : kind;
  name : string;
  topo : Mk_hw.Topology.t;
  phys : Mk_mem.Phys.t;
  os_cores : Mk_hw.Topology.core list;
  app_cores : Mk_hw.Topology.core list;
  app_noise : Mk_noise.Profile.t;
  disposition : Mk_syscall.Disposition.table;
  offload : Mk_ikc.Offload.t option;
  sched_kind : sched_kind;
  strategy : ranks:int -> Mk_mem.Address_space.strategy;
  default_policy : home:Mk_hw.Numa.id -> Mk_mem.Policy.t;
  options : options;
  syscall_entry : Mk_engine.Units.time;
  local_service_factor : float;
  fault_costs : Mk_mem.Fault.costs;
}

let kind_to_string = function
  | Linux -> "Linux"
  | Mckernel_kind -> "McKernel"
  | Mos_kind -> "mOS"

let hijacked_yield_cost = 30
(* A no-op shared-library call: stays entirely in user space. *)

let syscall_time t ?(payload = 128) ~core sysno =
  if t.options.disable_sched_yield && sysno = Mk_syscall.Sysno.Sched_yield then
    Ok hijacked_yield_cost
  else
    match t.disposition sysno with
    | Mk_syscall.Disposition.Unsupported -> Error `Enosys
    | Mk_syscall.Disposition.Local | Mk_syscall.Disposition.Partial _ ->
        let service =
          int_of_float
            (t.local_service_factor
            *. float_of_int (Mk_syscall.Cost.native sysno))
        in
        Ok (t.syscall_entry + service)
    | Mk_syscall.Disposition.Offload -> (
        match t.offload with
        | None ->
            (* A kernel without transport treats offloads as local. *)
            Ok (t.syscall_entry + Mk_syscall.Cost.native sysno)
        | Some off -> Ok (Mk_ikc.Offload.cost off ~lwk_core:core ~sysno ~payload ()))

let address_space t ~ranks ~home =
  Mk_mem.Address_space.create ~phys:t.phys ~strategy:(t.strategy ~ranks)
    ~costs:t.fault_costs ~default_policy:(t.default_policy ~home) ()

let is_lwk t = match t.kind with Linux -> false | Mckernel_kind | Mos_kind -> true

let largest_free_block t ~kind =
  let numa = Mk_mem.Phys.numa t.phys in
  List.fold_left
    (fun acc (d : Mk_hw.Numa.domain) ->
      if Mk_hw.Memory_kind.equal d.Mk_hw.Numa.kind kind then
        max acc (Mk_mem.Phys.largest_free t.phys ~domain:d.Mk_hw.Numa.id)
      else acc)
    0 (Mk_hw.Numa.domains numa)
