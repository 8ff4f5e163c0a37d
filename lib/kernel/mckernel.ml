let create ?(mode = Mk_hw.Knl.Snc4_flat) ?(os_cores = 4)
    ?(ihk_spec = Ihk.default_late) ?(options = Os.default_options)
    ?(time_sharing = None) () =
  let topo = Mk_hw.Knl.topology mode in
  let phys = Ihk.partition ~topo ihk_spec in
  let os, app = Mk_sched.Binding.partition_cores ~topo ~os_cores in
  let router = Mk_ikc.Router.make ~topo ~linux_cores:os in
  let offload = Mk_ikc.Offload.make Mk_ikc.Offload.default_proxy ~router in
  let base = Mk_mem.Address_space.mckernel_strategy in
  let strategy =
    if options.Os.heap_management then base
    else
      (* The separate non-optimised kernel image: Linux-like heap
         handling, everything else unchanged (Section IV). *)
      {
        base with
        Mk_mem.Address_space.heap_align = Mk_mem.Page.bytes Mk_mem.Page.Small;
        heap_increment = Mk_mem.Page.bytes Mk_mem.Page.Small;
        heap_ignore_shrink = false;
        heap_zero_first_4k_only = false;
        heap_prefault = false;
      }
  in
  {
    Os.kind = Os.Mckernel_kind;
    name = "mckernel";
    topo;
    phys;
    os_cores = os;
    app_cores = app;
    app_noise = Mk_noise.Profile.silent;
    disposition = Mk_syscall.Disposition.mckernel;
    offload = Some offload;
    sched_kind =
      (match time_sharing with
      | None -> Os.Lwk_cooperative
      | Some quantum -> Os.Lwk_time_sharing quantum);
    strategy = (fun ~ranks:_ -> strategy);
    default_policy = (fun ~home -> Mk_mem.Policy.Mcdram_first { home });
    options;
    syscall_entry = 120;
    local_service_factor = 0.7;
    fault_costs = { Mk_mem.Fault.default with Mk_mem.Fault.trap = 500 };
  }
