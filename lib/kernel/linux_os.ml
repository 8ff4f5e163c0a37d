let create ?(mode = Mk_hw.Knl.Snc4_flat) ?(os_cores = 4) ?(nohz_full = true)
    ?(linux_memory = Mk_engine.Units.of_gib 4) () =
  let topo = Mk_hw.Knl.topology mode in
  let phys = Ihk.partition ~topo { Ihk.linux_memory; max_contiguous = None } in
  let os, app = Mk_sched.Binding.partition_cores ~topo ~os_cores in
  {
    Os.kind = Os.Linux;
    name = (if nohz_full then "linux-nohz_full" else "linux");
    topo;
    phys;
    os_cores = os;
    app_cores = app;
    app_noise =
      (if nohz_full then Mk_noise.Profile.linux_nohz_full
       else Mk_noise.Profile.linux_default);
    disposition = Mk_syscall.Disposition.linux;
    offload = None;
    sched_kind = Os.Cfs_sched;
    strategy = (fun ~ranks:_ -> Mk_mem.Address_space.linux_strategy);
    default_policy =
      (fun ~home ->
        (* Applications are launched with numactl preferring the
           quadrant-local MCDRAM domain: the best Linux can do in
           SNC-4 mode, where only one preferred domain can be given
           (Section II-D3). *)
        match Mk_hw.Numa.nearest (Mk_hw.Topology.numa topo) ~from:home
                ~kind:Mk_hw.Memory_kind.Mcdram
        with
        | Some d -> Mk_mem.Policy.Preferred { domain = d }
        | None -> Mk_mem.Policy.Default { home });
    options = Os.default_options;
    syscall_entry = Mk_syscall.Cost.entry;
    local_service_factor = 1.0;
    fault_costs = Mk_mem.Fault.default;
  }
