let create ?(mode = Mk_hw.Knl.Snc4_flat) ?(os_cores = 4)
    ?(linux_memory = Mk_engine.Units.of_gib 4) ?(options = Os.default_options) () =
  let topo = Mk_hw.Knl.topology mode in
  (* Boot-time grab: pristine, unfragmented partition. *)
  let phys = Ihk.partition ~topo { Ihk.linux_memory; max_contiguous = None } in
  let os, app = Mk_sched.Binding.partition_cores ~topo ~os_cores in
  let router = Mk_ikc.Router.make ~topo ~linux_cores:os in
  let offload = Mk_ikc.Offload.make Mk_ikc.Offload.default_migration ~router in
  let mcdram_total =
    Mk_mem.Phys.free_bytes_of_kind phys Mk_hw.Memory_kind.Mcdram
  in
  let base = Mk_mem.Address_space.mos_strategy in
  let with_heap_toggle =
    if options.Os.heap_management then base
    else
      {
        base with
        Mk_mem.Address_space.heap_align = Mk_mem.Page.bytes Mk_mem.Page.Small;
        heap_increment = Mk_mem.Page.bytes Mk_mem.Page.Small;
        heap_ignore_shrink = false;
        heap_zero_first_4k_only = false;
        heap_prefault = false;
      }
  in
  let strategy ~ranks =
    (* "Dividing memory resources upfront, which is what mOS does by
       default" (Section IV): each rank may take at most an equal
       share of MCDRAM. *)
    {
      with_heap_toggle with
      Mk_mem.Address_space.mcdram_quota = Some (mcdram_total / max 1 ranks);
    }
  in
  {
    Os.kind = Os.Mos_kind;
    name = "mos";
    topo;
    phys;
    os_cores = os;
    app_cores = app;
    app_noise = Mk_noise.Profile.mos_lwk;
    disposition = Mk_syscall.Disposition.mos;
    offload = Some offload;
    sched_kind = Os.Lwk_cooperative;
    strategy;
    default_policy = (fun ~home -> Mk_mem.Policy.Mcdram_first { home });
    options;
    syscall_entry = 130;
    local_service_factor = 0.75;
    fault_costs = { Mk_mem.Fault.default with Mk_mem.Fault.trap = 500 };
  }
