(* Tests for the OS models: boot/partitioning, syscall dispatch,
   kernel-specific memory behaviour and the node workload interpreter. *)

open Mk_kernel

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let gib = 1024 * 1024 * 1024
let mib = 1024 * 1024

(* ------------------------------------------------------------------ *)
(* IHK partitioning *)

let topo = Mk_hw.Knl.topology Mk_hw.Knl.Snc4_flat

let test_ihk_reserves_linux_memory () =
  let phys = Ihk.partition ~topo Ihk.default_boot in
  (* 96 GiB DDR minus 4 GiB for Linux. *)
  check_int "ddr after reservation" (92 * gib)
    (Mk_mem.Phys.free_bytes_of_kind phys Mk_hw.Memory_kind.Ddr4);
  check_int "mcdram untouched" (16 * gib)
    (Mk_mem.Phys.free_bytes_of_kind phys Mk_hw.Memory_kind.Mcdram)

let test_ihk_late_fragments () =
  let late = Ihk.partition ~topo Ihk.default_late in
  let boot = Ihk.partition ~topo Ihk.default_boot in
  check_bool "late grab caps contiguity" true
    (Mk_mem.Phys.largest_free late ~domain:4 < Mk_mem.Phys.largest_free boot ~domain:4)

(* ------------------------------------------------------------------ *)
(* OS construction *)

let test_kernels_partition_cores () =
  List.iter
    (fun os ->
      check_int "4 os cores" 4 (List.length os.Os.os_cores);
      check_int "64 app cores" 64 (List.length os.Os.app_cores))
    [ Linux_os.create (); Mckernel.create (); Mos.create () ]

let test_noise_isolation_ordering () =
  let o os = Mk_noise.Profile.total_overhead os.Os.app_noise in
  let linux = Linux_os.create () in
  let mck = Mckernel.create () in
  let mos = Mos.create () in
  check_bool "mckernel silent" true (o mck = 0.0);
  check_bool "mos nearly silent" true (o mos > 0.0 && o mos < o linux)

let test_mos_better_contiguity_than_mckernel () =
  (* Boot-time grab vs late IHK reservation (Section II-D5). *)
  let mck = Mckernel.create () in
  let mos = Mos.create () in
  check_bool "mos wins on 1G availability" true
    (Os.largest_free_block mos ~kind:Mk_hw.Memory_kind.Mcdram
    > Os.largest_free_block mck ~kind:Mk_hw.Memory_kind.Mcdram)

let test_syscall_dispatch_linux_local () =
  let os = Linux_os.create () in
  match Os.syscall_time os ~core:10 Mk_syscall.Sysno.Open with
  | Ok t -> check_int "linux local cost" (Mk_syscall.Cost.local Mk_syscall.Sysno.Open) t
  | Error `Enosys -> Alcotest.fail "linux must serve open"

let test_syscall_dispatch_offload_dearer () =
  let linux = Linux_os.create () in
  let mck = Mckernel.create () in
  let t_linux =
    match Os.syscall_time linux ~core:10 Mk_syscall.Sysno.Open with
    | Ok t -> t
    | Error `Enosys -> Alcotest.fail "open"
  in
  let t_mck =
    match Os.syscall_time mck ~core:10 Mk_syscall.Sysno.Open with
    | Ok t -> t
    | Error `Enosys -> Alcotest.fail "open"
  in
  check_bool "offloaded open dearer than native" true (t_mck > t_linux)

let test_syscall_local_lwk_leaner () =
  (* A locally-served call is cheaper on the LWK (lean code paths). *)
  let linux = Linux_os.create () in
  let mck = Mckernel.create () in
  let t sys os =
    match Os.syscall_time os ~core:10 sys with
    | Ok t -> t
    | Error `Enosys -> Alcotest.fail "syscall"
  in
  check_bool "futex leaner on lwk" true
    (t Mk_syscall.Sysno.Futex mck < t Mk_syscall.Sysno.Futex linux)

let test_disable_sched_yield () =
  let os =
    Mckernel.create
      ~options:{ Os.default_options with Os.disable_sched_yield = true }
      ()
  in
  match Os.syscall_time os ~core:10 Mk_syscall.Sysno.Sched_yield with
  | Ok t -> check_bool "hijacked yield stays in user space" true (t < 100)
  | Error `Enosys -> Alcotest.fail "yield"

(* ------------------------------------------------------------------ *)
(* Node: boot and interpreter *)

let boot_node os = Node.boot ~os ~ranks:8 ~threads_per_rank:2 ~seed:11

let test_node_boot_processes () =
  let node = boot_node (Mckernel.create ()) in
  check_int "eight ranks" 8 (Node.ranks node);
  (* McKernel pairs every process with a proxy. *)
  for rank = 0 to 7 do
    let st = Node.rank_state node rank in
    check_bool "proxy attached" true (st.Node.process.Mk_proc.Process.proxy <> None)
  done

let test_node_boot_no_proxy_elsewhere () =
  List.iter
    (fun os ->
      let node = boot_node os in
      let st = Node.rank_state node 0 in
      check_bool "no proxy" true (st.Node.process.Mk_proc.Process.proxy = None))
    [ Linux_os.create (); Mos.create () ]

let test_run_compute () =
  let node = boot_node (Mckernel.create ()) in
  let t = Node.run_ops node ~rank:0 [ Workload.Compute 1_000_000 ] in
  (* McKernel is noise-free: exactly the requested time. *)
  check_int "exact on silent kernel" 1_000_000 t

let test_run_compute_linux_inflated () =
  let node = boot_node (Linux_os.create ~nohz_full:false ()) in
  let dur = 100 * Mk_engine.Units.ms in
  let t = Node.run_ops node ~rank:0 [ Workload.Compute dur ] in
  check_bool "noise inflates" true (t > dur)

let test_run_brk_and_touch () =
  let node = boot_node (Mckernel.create ()) in
  let t =
    Node.run_ops node ~rank:0
      [ Workload.Brk (8 * mib); Workload.Touch_heap; Workload.Brk 0 ]
  in
  check_bool "time charged" true (t > 0);
  let st = Mk_mem.Address_space.stats (Node.address_space node ~rank:0) in
  check_int "grow recorded" 1 st.Mk_mem.Address_space.brk_grows;
  check_int "query recorded" 1 st.Mk_mem.Address_space.brk_queries

let test_run_yield_hijack () =
  let plain = boot_node (Mckernel.create ()) in
  let hijacked =
    boot_node
      (Mckernel.create
         ~options:{ Os.default_options with Os.disable_sched_yield = true }
         ())
  in
  let ops = List.init 100 (fun _ -> Workload.Yield) in
  check_bool "hijacked yields much cheaper" true
    (Node.run_ops hijacked ~rank:0 ops * 3 < Node.run_ops plain ~rank:0 ops)

let test_offload_accounting () =
  let node = boot_node (Mckernel.create ()) in
  ignore (Node.run_ops node ~rank:0 [ Workload.Syscall Mk_syscall.Sysno.Open ]);
  let st = Node.rank_state node 0 in
  check_int "offload counted" 1 st.Node.task.Mk_proc.Task.acct.Mk_proc.Task.syscalls_offloaded;
  match st.Node.process.Mk_proc.Process.proxy with
  | Some proxy -> check_int "proxy served it" 1 proxy.Mk_proc.Process.offloads_served
  | None -> Alcotest.fail "proxy missing"

let test_shm_window_premap () =
  let premapped =
    Node.boot
      ~os:
        (Mckernel.create
           ~options:{ Os.default_options with Os.mpol_shm_premap = true }
           ())
      ~ranks:8 ~threads_per_rank:1 ~seed:3
  in
  let lazy_node = Node.boot ~os:(Mckernel.create ()) ~ranks:8 ~threads_per_rank:1 ~seed:3 in
  let pre = Node.shm_window premapped ~bytes_per_rank:(8 * mib) in
  let laz = Node.shm_window lazy_node ~bytes_per_rank:(8 * mib) in
  check_bool "premap pays at creation" true (pre.(0) > laz.(0));
  (* ...but the lazy node pays with contention at first touch. *)
  let asp = Node.address_space lazy_node ~rank:0 in
  let fault = Mk_mem.Address_space.touch_all asp ~concurrency:8 in
  check_bool "lazy faults later" true (fault > 0);
  let asp_pre = Node.address_space premapped ~rank:0 in
  check_int "premapped faults nothing" 0
    (Mk_mem.Address_space.touch_all asp_pre ~concurrency:8)

let test_shared_core_lwk_vs_cfs () =
  (* Oversubscription: the cooperative LWK queue finishes the batch
     with less scheduling overhead than preemptive CFS. *)
  let run os =
    let node = Node.boot ~os ~ranks:1 ~threads_per_rank:1 ~seed:5 in
    Node.run_shared_core node ~tasks:4
      ~ops_per_task:[ Workload.Compute (50 * Mk_engine.Units.ms) ]
  in
  let lwk = run (Mckernel.create ()) in
  let cfs = run (Linux_os.create ()) in
  check_bool "both at least the work" true
    (lwk >= 200 * Mk_engine.Units.ms && cfs >= 200 * Mk_engine.Units.ms);
  check_bool "lwk cheaper" true (lwk < cfs)

(* Exact makespans of four 50 ms tasks' worth of time sharing, recorded
   from the closure-per-event engine: CFS preempts at its
   latency-divided slice, the cooperative LWK queue runs each task to
   completion, and McKernel's time sharing rotates at 20 ms. *)
let test_shared_core_pinned () =
  let ms = Mk_engine.Units.ms in
  List.iter
    (fun (name, make, makespans) ->
      List.iter2
        (fun tasks expected ->
          let node = Node.boot ~os:(make ()) ~ranks:1 ~threads_per_rank:1 ~seed:5 in
          check_int
            (Printf.sprintf "%s, %d tasks" name tasks)
            expected
            (Node.run_shared_core node ~tasks
               ~ops_per_task:[ Workload.Compute (50 * ms) ]))
        [ 2; 4; 8 ] makespans)
    [
      ("linux (cfs)", (fun () -> Linux_os.create ()),
       [ 100_319_598; 200_695_196; 401_390_392 ]);
      ("mos (cooperative)", (fun () -> Mos.create ()),
       [ 100_001_200; 200_002_400; 400_004_800 ]);
      ("mckernel (time sharing)",
       (fun () -> Mckernel.create ~time_sharing:(Some (20 * ms)) ()),
       [ 100_003_600; 200_007_200; 400_014_400 ]);
    ]

let test_mos_heap_toggle () =
  let on = Mos.create () in
  let off =
    Mos.create ~options:{ Os.default_options with Os.heap_management = false } ()
  in
  let strategy_on = on.Os.strategy ~ranks:1 in
  let strategy_off = off.Os.strategy ~ranks:1 in
  check_bool "2M increments when on" true
    (strategy_on.Mk_mem.Address_space.heap_increment = 2 * mib);
  check_bool "4K increments when off" true
    (strategy_off.Mk_mem.Address_space.heap_increment = 4096);
  check_bool "shrink honoured when off" true
    (not strategy_off.Mk_mem.Address_space.heap_ignore_shrink)


(* ------------------------------------------------------------------ *)
(* Procfs and tools support (Section II-D4) *)

let test_procfs_linux_all_native () =
  List.iter
    (fun e ->
      check_bool (Procfs.entry_path e) true
        (Procfs.serve Procfs.Linux e = Procfs.Native))
    Procfs.entries

let test_procfs_mos_mostly_reuses () =
  (* "mOS mostly reuses the Linux implementation". *)
  let reused =
    List.length
      (List.filter (fun e -> Procfs.serve Procfs.Mos e = Procfs.Reused) Procfs.entries)
  in
  check_bool "majority reused" true (2 * reused > List.length Procfs.entries)

let test_procfs_mckernel_reimplements () =
  (* "McKernel needs to implement various /sys and /proc files to
     reflect the resource partition". *)
  let reimpl =
    List.length
      (List.filter
         (fun e -> Procfs.serve Procfs.Mckernel e = Procfs.Reimplemented)
         Procfs.entries)
  in
  check_bool "several reimplemented" true (reimpl >= 6);
  check_bool "nothing reused in the proxy model" true
    (List.for_all (fun e -> Procfs.serve Procfs.Mckernel e <> Procfs.Reused)
       Procfs.entries)

let test_procfs_partition_visibility () =
  check_bool "forwarded files are stale" false
    (Procfs.reflects_partition Procfs.Forwarded);
  check_bool "missing files are stale" false (Procfs.reflects_partition Procfs.Missing);
  check_bool "reused files are fresh" true (Procfs.reflects_partition Procfs.Reused)

let test_tools_support_ordering () =
  (* Linux full > mOS > McKernel, per Section II-D4. *)
  let linux = Procfs.support_score Procfs.Linux in
  let mos = Procfs.support_score Procfs.Mos in
  let mck = Procfs.support_score Procfs.Mckernel in
  check_int "linux supports everything" (List.length Procfs.tools) linux;
  check_bool "mos above mckernel" true (mos > mck)

let test_tools_run_location () =
  (* "in McKernel most tools must run on an LWK core, while mOS can
     leave them on the Linux side". *)
  List.iter
    (fun t ->
      check_bool "mos tools linux-side" true
        (Procfs.tool_runs_on Procfs.Mos t = `Linux_core))
    Procfs.tools;
  let lwk_bound =
    List.length
      (List.filter
         (fun t -> Procfs.tool_runs_on Procfs.Mckernel t = `Lwk_core)
         Procfs.tools)
  in
  check_bool "most mckernel tools lwk-bound" true (2 * lwk_bound > List.length Procfs.tools)

let test_tools_debuggers_degraded_on_lwks () =
  List.iter
    (fun k ->
      match Procfs.tool_support k Procfs.Gdb with
      | Procfs.Degraded _ -> ()
      | v -> Alcotest.failf "gdb should be degraded, got %s" (Procfs.verdict_to_string v))
    [ Procfs.Mckernel; Procfs.Mos ]


let test_file_ops_via_proxy () =
  (* open/read/write/close: on McKernel the descriptor state lives in
     the Linux-side proxy's table. *)
  let node = boot_node (Mckernel.create ()) in
  let cost =
    Node.run_ops node ~rank:0
      [
        Workload.Open_file "/data/input";
        Workload.Read_bytes (1024 * 1024);
        Workload.Write_bytes 4096;
        Workload.Close_file;
      ]
  in
  check_bool "time charged" true (cost > 0);
  let st = Node.rank_state node 0 in
  let proc = st.Node.process in
  check_bool "proxy holds the descriptor table" true (Mk_proc.Process.has_proxy proc);
  let fds = Mk_proc.Process.fds proc in
  (* The file was closed again; only std streams remain. *)
  check_int "back to std streams" 3 (Mk_proc.Fd_table.open_count fds);
  check_int "four offloaded calls" 4
    st.Node.task.Mk_proc.Task.acct.Mk_proc.Task.syscalls_offloaded

let test_file_ops_local_on_linux () =
  let node = boot_node (Linux_os.create ()) in
  ignore
    (Node.run_ops node ~rank:0 [ Workload.Open_file "/x"; Workload.Read_bytes 4096 ]);
  let st = Node.rank_state node 0 in
  check_bool "no proxy" false (Mk_proc.Process.has_proxy st.Node.process);
  let fds = Mk_proc.Process.fds st.Node.process in
  check_int "descriptor open in own table" 4 (Mk_proc.Fd_table.open_count fds);
  (* The read advanced the file position. *)
  match st.Node.last_fd with
  | Some fd -> (
      match Mk_proc.Fd_table.lookup fds fd with
      | Some d -> check_int "position advanced" 4096 d.Mk_proc.Fd_table.position
      | None -> Alcotest.fail "descriptor missing")
  | None -> Alcotest.fail "no last fd"

let test_file_read_dearer_on_mckernel () =
  (* A large offloaded read ships its buffer through the IKC channel. *)
  let run os =
    let node = boot_node os in
    Node.run_ops node ~rank:0
      [ Workload.Open_file "/x"; Workload.Read_bytes (4 * mib) ]
  in
  check_bool "mckernel read dearer" true
    (run (Mckernel.create ()) > run (Linux_os.create ()))

let test_file_op_without_open_fails () =
  let node = boot_node (Linux_os.create ()) in
  ignore (Node.run_ops node ~rank:0 [ Workload.Read_bytes 4096 ]);
  check_int "failure recorded" 1 (Node.failures node)


let workload_fuzz =
  (* The interpreter must absorb any op sequence: no exceptions,
     non-negative time, bounded failure count. *)
  let gen_op =
    QCheck.Gen.(
      frequency
        [
          (3, map (fun ms -> Workload.Compute (ms * Mk_engine.Units.us)) (int_range 1 500));
          (2, map (fun kb -> Workload.Stream (kb * 1024)) (int_range 1 4096));
          (1, return (Workload.Syscall Mk_syscall.Sysno.Getpid));
          (1, return (Workload.Syscall Mk_syscall.Sysno.Open));
          (2, map (fun mb -> Workload.Brk (mb * mib)) (int_range (-8) 8));
          (1, return Workload.Touch_heap);
          (1, return Workload.Yield);
          (1, map (fun i -> Workload.Open_file (Printf.sprintf "/f%d" i)) (int_range 0 9));
          (1, map (fun kb -> Workload.Read_bytes (kb * 1024)) (int_range 1 128));
          (1, map (fun kb -> Workload.Write_bytes (kb * 1024)) (int_range 1 128));
          (1, return Workload.Close_file);
          (1, map (fun mb -> Workload.Mmap { bytes = mb * mib; touch = true }) (int_range 1 32));
        ])
  in
  QCheck.Test.make ~name:"node interpreter absorbs arbitrary programs" ~count:60
    QCheck.(make Gen.(pair (int_range 0 2) (list_size (int_range 0 40) gen_op)))
    (fun (os_i, ops) ->
      let os =
        match os_i with
        | 0 -> Linux_os.create ()
        | 1 -> Mckernel.create ()
        | _ -> Mos.create ()
      in
      let node = Node.boot ~os ~ranks:2 ~threads_per_rank:1 ~seed:17 in
      let t = Node.run_ops node ~rank:0 ops in
      t >= 0 && Node.failures node <= List.length ops)

let node_deterministic =
  QCheck.Test.make ~name:"node runs are deterministic per seed" ~count:20
    QCheck.(int_range 1 1000)
    (fun seed ->
      let run () =
        let node = Node.boot ~os:(Linux_os.create ()) ~ranks:4 ~threads_per_rank:1 ~seed in
        Node.run_ops node ~rank:0
          [ Workload.Compute (5 * Mk_engine.Units.ms); Workload.Brk 4096 ]
      in
      run () = run ())

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "mk_kernel"
    [
      ( "ihk",
        [
          Alcotest.test_case "linux reservation" `Quick test_ihk_reserves_linux_memory;
          Alcotest.test_case "late grab fragments" `Quick test_ihk_late_fragments;
        ] );
      ( "os",
        [
          Alcotest.test_case "core partition" `Quick test_kernels_partition_cores;
          Alcotest.test_case "noise ordering" `Quick test_noise_isolation_ordering;
          Alcotest.test_case "contiguity" `Quick test_mos_better_contiguity_than_mckernel;
          Alcotest.test_case "linux local dispatch" `Quick
            test_syscall_dispatch_linux_local;
          Alcotest.test_case "offload dearer" `Quick test_syscall_dispatch_offload_dearer;
          Alcotest.test_case "lwk local leaner" `Quick test_syscall_local_lwk_leaner;
          Alcotest.test_case "disable_sched_yield" `Quick test_disable_sched_yield;
          Alcotest.test_case "mos heap toggle" `Quick test_mos_heap_toggle;
        ] );
      ( "procfs",
        [
          Alcotest.test_case "linux native" `Quick test_procfs_linux_all_native;
          Alcotest.test_case "mos reuses" `Quick test_procfs_mos_mostly_reuses;
          Alcotest.test_case "mckernel reimplements" `Quick
            test_procfs_mckernel_reimplements;
          Alcotest.test_case "partition visibility" `Quick
            test_procfs_partition_visibility;
          Alcotest.test_case "support ordering" `Quick test_tools_support_ordering;
          Alcotest.test_case "run location" `Quick test_tools_run_location;
          Alcotest.test_case "debuggers degraded" `Quick
            test_tools_debuggers_degraded_on_lwks;
        ] );
      ( "node",
        Alcotest.test_case "boot processes" `Quick test_node_boot_processes
        :: Alcotest.test_case "proxy only on mckernel" `Quick
             test_node_boot_no_proxy_elsewhere
        :: Alcotest.test_case "run compute" `Quick test_run_compute
        :: Alcotest.test_case "linux compute inflated" `Quick
             test_run_compute_linux_inflated
        :: Alcotest.test_case "brk and touch" `Quick test_run_brk_and_touch
        :: Alcotest.test_case "yield hijack" `Quick test_run_yield_hijack
        :: Alcotest.test_case "offload accounting" `Quick test_offload_accounting
        :: Alcotest.test_case "shm premap" `Quick test_shm_window_premap
        :: Alcotest.test_case "file ops via proxy" `Quick test_file_ops_via_proxy
        :: Alcotest.test_case "file ops local on linux" `Quick
             test_file_ops_local_on_linux
        :: Alcotest.test_case "offloaded read dearer" `Quick
             test_file_read_dearer_on_mckernel
        :: Alcotest.test_case "read without open fails" `Quick
             test_file_op_without_open_fails
        :: Alcotest.test_case "shared core" `Quick test_shared_core_lwk_vs_cfs
        :: qsuite [ node_deterministic; workload_fuzz ]
        @ [
            Alcotest.test_case "shared core pinned makespans" `Quick
              test_shared_core_pinned;
          ] );
    ]
