(* The benchmark harness: one target per table and figure of the
   paper, plus microbenchmarks of the simulator substrates.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe fig4       -- one artifact
     (targets: fig4 fig5a fig5b fig6a fig6b table1 brk ltp opts
               headline micro tools isolation modes csv json
               sensitivity faults)

   The `results` target is the machine-readable pipeline: it runs the
   full suite sequentially and in parallel, checks the two agree byte
   for byte, and writes bench/results/latest.json (plus a tagged file
   when a tag is given):

     dune exec bench/main.exe -- results             -- latest.json only
     dune exec bench/main.exe -- results 20260805    -- + 20260805.json
     dune exec bench/main.exe -- results 20260805 8  -- with 8 jobs

   The `perf` target is the wall-clock record: hot-path
   microbenchmarks (DES events/sec, page-table pages/sec) plus the
   suite timed sequentially and under -j 2/-j 4, written to
   bench/results/latest-perf.json (and perf-<tag>.json).  `perf
   --smoke` is the small CI gate variant: it fails the build when
   -j 2 stops beating sequential.

   Simulated time never reads the wall clock, so result files carry
   no embedded timestamps — the tag (date, commit, …) is the caller's
   to choose, which keeps reruns reproducible.  Wall-clock is only
   used to time the harness itself for the speedup record.

   Absolute numbers are simulated; the claims under test are the
   *shapes*: who wins, by what factor, where the crossovers sit. *)

open Multikernel

let line = String.make 72 '='

let section title = Printf.printf "\n%s\n%s\n%s\n" line title line

let runs = Cluster.Experiment.default_runs

let app_exn name = Option.get (find_app name)

(* ------------------------------------------------------------------ *)
(* FIG4: seven applications, relative median performance vs Linux      *)

let fig4_data : (string, Cluster.Experiment.series list) Hashtbl.t = Hashtbl.create 8

let fig4_series app =
  match Hashtbl.find_opt fig4_data app with
  | Some s -> s
  | None ->
      let a = app_exn app in
      let s =
        Cluster.Experiment.compare_scenarios ~scenarios:Cluster.Scenario.trio ~app:a
          ~runs ()
      in
      Hashtbl.replace fig4_data app s;
      s

let fig4_apps = [ "amg"; "ccs-qcd"; "geofem"; "hpcg"; "lammps"; "milc"; "minife" ]

let baseline_of series =
  List.find
    (fun (s : Cluster.Experiment.series) -> s.Cluster.Experiment.scenario_label = "Linux")
    series

let fig4 () =
  section "FIGURE 4 — mOS and McKernel against the Linux baseline";
  List.iter
    (fun name ->
      let a = app_exn name in
      let series = fig4_series name in
      let baseline = baseline_of series in
      print_string (Cluster.Report.relative_table ~app:a ~baseline series);
      print_newline ())
    fig4_apps

(* ------------------------------------------------------------------ *)
(* FIG5a: CCS-QCD as % of the Linux median                             *)

let fig5a () =
  section "FIGURE 5(a) — CCS-QCD, % of Linux median (Linux runs in DDR4)";
  let a = app_exn "ccs-qcd" in
  let series = fig4_series "ccs-qcd" in
  let baseline = baseline_of series in
  let header = [ "nodes"; "McKernel"; "mOS" ] in
  let counts =
    List.map
      (fun (p : Cluster.Experiment.point) -> p.Cluster.Experiment.nodes)
      baseline.Cluster.Experiment.points
  in
  let rel label =
    let s =
      List.find
        (fun (s : Cluster.Experiment.series) ->
          s.Cluster.Experiment.scenario_label = label)
        series
    in
    Cluster.Experiment.relative_to ~baseline s
  in
  let mck = rel "McKernel" and mos = rel "mOS" in
  let rows =
    List.map
      (fun n ->
        let pct l =
          match List.assoc_opt n l with
          | Some r -> Printf.sprintf "%.1f%%" (100.0 *. r)
          | None -> "-"
        in
        [ string_of_int n; pct mck; pct mos ])
      counts
  in
  print_string (Engine.Table.render ~header rows);
  print_string (Cluster.Report.relative_chart ~app:a ~baseline series);
  Printf.printf
    "Paper: up to 139%% (McKernel) / 128%% (mOS); gains from transparent\n\
     MCDRAM spill that SNC-4 Linux cannot express (Sections III-C, IV).\n"

(* ------------------------------------------------------------------ *)
(* FIG5b: MiniFE absolute Mflops                                       *)

let fig5b () =
  section "FIGURE 5(b) — MiniFE 660x660x660 strong scaling (Mflops)";
  let a = app_exn "minife" in
  let series = fig4_series "minife" in
  print_string (Cluster.Report.fom_table ~app:a series);
  print_string (Cluster.Report.absolute_chart ~app:a series);
  Printf.printf
    "Paper: Linux performance 'dropping precariously' past 512 nodes while\n\
     the LWKs keep scaling — allreduce noise amplification (Section III-C).\n"

(* ------------------------------------------------------------------ *)
(* FIG6a: Lulesh zones/s on cubic node counts                          *)

let fig6a () =
  section "FIGURE 6(a) — Lulesh 2.0 -s 50 (zones/s), cubic node counts";
  let a = app_exn "lulesh" in
  let series =
    Cluster.Experiment.compare_scenarios ~scenarios:Cluster.Scenario.trio ~app:a ~runs ()
  in
  print_string (Cluster.Report.fom_table ~app:a series);
  print_string (Cluster.Report.absolute_chart ~app:a series);
  let baseline = baseline_of series in
  print_string (Cluster.Report.relative_table ~app:a ~baseline series);
  Printf.printf
    "Paper: LWKs lead throughout; the gain 'comes from the overhead of the\n\
     brk() system call' (Section IV).\n"

(* ------------------------------------------------------------------ *)
(* FIG6b: LAMMPS timesteps/s                                           *)

let fig6b () =
  section "FIGURE 6(b) — LAMMPS lj.weak (timesteps/s)";
  let a = app_exn "lammps" in
  let series = fig4_series "lammps" in
  print_string (Cluster.Report.fom_table ~app:a series);
  print_string (Cluster.Report.absolute_chart ~app:a series);
  Printf.printf
    "Paper: 'neither mOS nor McKernel performed better than Linux at scale'\n\
     because Omni-Path control operations are system calls that the LWKs\n\
     offload to the few Linux cores (Section IV).\n"

(* ------------------------------------------------------------------ *)
(* TABLE I: Lulesh in DDR4 with and without brk() optimisations        *)

let table1 () =
  section "TABLE I — Lulesh in DDR4 RAM, heap-management ablation";
  let lulesh = app_exn "lulesh" in
  let ddr_app = { lulesh with Apps.App.name = "Lulesh2.0-ddr" } in
  let scenarios =
    [
      Cluster.Scenario.linux;
      Cluster.Scenario.mos_with
        { Kernel.Os.default_options with Kernel.Os.heap_management = false }
        ~label:"mOS, heap management disabled";
      Cluster.Scenario.mos;
    ]
  in
  (* Force every kernel into DDR4 like the paper: LWKs via a Ddr_only
     default policy, Linux via the app's ddr-only flag. *)
  let ddr_scenario (s : Cluster.Scenario.t) =
    {
      s with
      Cluster.Scenario.make =
        (fun () ->
          let os = s.Cluster.Scenario.make () in
          {
            os with
            Kernel.Os.default_policy = (fun ~home -> Mem.Policy.Ddr_only { home });
          });
    }
  in
  let results =
    List.map
      (fun (s : Cluster.Scenario.t) ->
        let app =
          if s.Cluster.Scenario.label = "Linux" then
            { ddr_app with Apps.App.linux_ddr_only = true }
          else ddr_app
        in
        let r =
          Cluster.Experiment.point ~scenario:(ddr_scenario s) ~app ~nodes:1 ~runs ()
        in
        (s.Cluster.Scenario.label, r.Cluster.Experiment.median_fom))
      scenarios
  in
  let linux_fom = List.assoc "Linux" results in
  let rows =
    List.map
      (fun (label, fom) ->
        [
          label;
          Printf.sprintf "%.0f zones/s" fom;
          Printf.sprintf "%.1f%%" (100.0 *. fom /. linux_fom);
        ])
      results
  in
  print_string (Engine.Table.render ~header:[ "kernel"; "throughput"; "relative" ] rows);
  Printf.printf
    "Paper: Linux 8,959 zones/s = 100.0%%; mOS heap-off 106.6%%;\n\
     mOS regular 121.0%% (Table I).\n"

(* ------------------------------------------------------------------ *)
(* BRK: the Lulesh allocation-trace statistics                         *)

let brk () =
  section "SECTION IV — Lulesh -s 30 brk() trace, replayed through each kernel";
  let trace = Apps.Lulesh_trace.full_trace ~scale:1.0 in
  let q, g, s = Apps.Lulesh_trace.count_stats trace in
  Printf.printf "trace: %d queries, %d grows, %d shrinks (paper: %d / %d / %d)\n\n" q g
    s Apps.Lulesh_trace.expected_queries Apps.Lulesh_trace.expected_grows
    Apps.Lulesh_trace.expected_shrinks;
  let rows =
    List.map
      (fun (scn : Cluster.Scenario.t) ->
        let os = scn.Cluster.Scenario.make () in
        let node = Kernel.Node.boot ~os ~ranks:1 ~threads_per_rank:2 ~seed:1 in
        let elapsed = Kernel.Node.run_ops node ~rank:0 trace in
        let asp = Kernel.Node.address_space node ~rank:0 in
        let st = Mem.Address_space.stats asp in
        [
          scn.Cluster.Scenario.label;
          string_of_int st.Mem.Address_space.brk_queries;
          string_of_int st.Mem.Address_space.brk_grows;
          string_of_int st.Mem.Address_space.brk_shrinks;
          Engine.Units.size_to_string st.Mem.Address_space.heap_peak;
          Engine.Units.size_to_string st.Mem.Address_space.cumulative_heap_growth;
          string_of_int st.Mem.Address_space.faults;
          Engine.Units.time_to_string elapsed;
        ])
      Cluster.Scenario.trio
  in
  print_string
    (Engine.Table.render
       ~header:
         [
           "kernel"; "queries"; "grows"; "shrinks"; "heap peak"; "cumulative";
           "faults"; "trace time";
         ]
       rows);
  Printf.printf
    "Paper: heap peak 87 MB, cumulative growth 22 GB; 'Under Linux this\n\
     results in a lot of page faults' while the LWKs take the fast path.\n"

(* ------------------------------------------------------------------ *)
(* LTP: compatibility counts                                           *)

let ltp () =
  section "SECTION III-D — LTP-like compatibility corpus";
  Printf.printf "corpus: %d tests\n\n" (List.length Compat.Ltp.corpus);
  List.iter
    (fun k ->
      let s = Compat.Ltp.run_all k in
      Printf.printf "%-9s %4d failed / %d  (paper: %s)\n"
        (Compat.Ltp.kernel_to_string k)
        s.Compat.Ltp.failed s.Compat.Ltp.total
        (match k with
        | Compat.Ltp.Linux_k -> "0"
        | Compat.Ltp.Mckernel_k -> "32"
        | Compat.Ltp.Mos_k -> "111");
      List.iter
        (fun (cause, n) -> Printf.printf "    %-24s %d\n" cause n)
        (Compat.Ltp.failures_by_cause s))
    [ Compat.Ltp.Linux_k; Compat.Ltp.Mckernel_k; Compat.Ltp.Mos_k ]

(* ------------------------------------------------------------------ *)
(* OPTS: --mpol-shm-premap and --disable-sched-yield at 16 nodes       *)

let opts () =
  section "SECTION IV — McKernel job-launch options at 16 nodes";
  let optioned =
    Cluster.Scenario.mckernel_with
      {
        Kernel.Os.default_options with
        Kernel.Os.mpol_shm_premap = true;
        disable_sched_yield = true;
      }
      ~label:"McKernel+premap+yield"
  in
  List.iter
    (fun (name, paper) ->
      let a = app_exn name in
      let base =
        Cluster.Experiment.point ~scenario:Cluster.Scenario.mckernel ~app:a ~nodes:16
          ~runs ()
      in
      let opt = Cluster.Experiment.point ~scenario:optioned ~app:a ~nodes:16 ~runs () in
      Printf.printf "%-8s base %.4g -> optioned %.4g : %+.1f%%  (paper: %s)\n"
        a.Apps.App.name base.Cluster.Experiment.median_fom
        opt.Cluster.Experiment.median_fom
        (100.0
        *. ((opt.Cluster.Experiment.median_fom /. base.Cluster.Experiment.median_fom)
           -. 1.0))
        paper)
    [ ("amg", "+9%"); ("minife", "+2%") ]

(* ------------------------------------------------------------------ *)
(* HEADLINE: median and best improvement across Figure 4               *)

let headline () =
  section "HEADLINE — improvement statistics over all Figure-4 points";
  let ratios label =
    List.map
      (fun name ->
        let series = fig4_series name in
        let baseline = baseline_of series in
        let s =
          List.find
            (fun (s : Cluster.Experiment.series) ->
              s.Cluster.Experiment.scenario_label = label)
            series
        in
        Cluster.Experiment.relative_to ~baseline s)
      fig4_apps
  in
  List.iter
    (fun label ->
      let r = ratios label in
      Printf.printf "%-9s median improvement %+.1f%%, best %+.0f%%\n" label
        (100.0 *. (Cluster.Experiment.median_improvement r -. 1.0))
        (100.0 *. (Cluster.Experiment.best_improvement r -. 1.0)))
    [ "McKernel"; "mOS" ];
  Printf.printf
    "Paper: 'a median performance improvement of 9%% with some applications\n\
     as high as 280%%' (Section I).\n"

(* ------------------------------------------------------------------ *)
(* MICRO: substrate microbenchmarks and design-choice ablations        *)

let simulated_micro () =
  Printf.printf "\n-- simulated latencies (model output, ns) --\n";
  (* Ablation 1: proxy vs migration offload. *)
  let topo = Hw.Knl.topology Hw.Knl.Snc4_flat in
  let router = Ikc.Router.make ~topo ~linux_cores:[ 0; 1; 2; 3 ] in
  let proxy = Ikc.Offload.make Ikc.Offload.default_proxy ~router in
  let migration = Ikc.Offload.make Ikc.Offload.default_migration ~router in
  List.iter
    (fun sysno ->
      let local = Syscall.Cost.local sysno in
      let p = Ikc.Offload.cost proxy ~lwk_core:10 ~sysno () in
      let m = Ikc.Offload.cost migration ~lwk_core:10 ~sysno () in
      Printf.printf "  %-12s local %6dns  proxy %6dns  migration %6dns\n"
        (Syscall.Sysno.to_string sysno)
        local p m)
    [ Syscall.Sysno.Getppid; Syscall.Sysno.Open; Syscall.Sysno.Ioctl;
      Syscall.Sysno.Read ];
  (* FTQ: the standard OS-noise instrument, run over each profile. *)
  Printf.printf "\n-- FTQ (1 ms quanta x 2000) per noise profile --\n";
  List.iter
    (fun (p : Noise.Profile.t) ->
      let s =
        Noise.Ftq.run ~profile:p ~quantum:Engine.Units.ms ~quanta:2000 ~seed:5
      in
      Format.printf "  %-20s %a@." p.Noise.Profile.name Noise.Ftq.pp_summary s)
    [
      Noise.Profile.silent; Noise.Profile.mos_lwk; Noise.Profile.linux_nohz_full;
      Noise.Profile.linux_default;
    ];
  (* Ablation 4: noise profiles. *)
  Printf.printf "\n-- noise profiles: mean CPU overhead --\n";
  List.iter
    (fun (p : Noise.Profile.t) ->
      Printf.printf "  %-20s %.4f%%\n" p.Noise.Profile.name
        (100.0 *. Noise.Profile.total_overhead p))
    [
      Noise.Profile.silent; Noise.Profile.mos_lwk; Noise.Profile.linux_nohz_full;
      Noise.Profile.linux_default; Noise.Profile.linux_service_core;
    ];
  (* Ablation 5: boot-time vs late physical-memory grab. *)
  Printf.printf "\n-- largest contiguous block (1G-page availability) --\n";
  List.iter
    (fun (label, os) ->
      Printf.printf "  %-10s MCDRAM %-10s DDR4 %s\n" label
        (Engine.Units.size_to_string
           (Kernel.Os.largest_free_block os ~kind:Hw.Memory_kind.Mcdram))
        (Engine.Units.size_to_string
           (Kernel.Os.largest_free_block os ~kind:Hw.Memory_kind.Ddr4)))
    [
      ("mOS", Kernel.Mos.create ());
      ("McKernel", Kernel.Mckernel.create ());
      ("Linux", Kernel.Linux_os.create ());
    ];
  (* osu_allreduce-style intra-node sweep (event-driven). *)
  Printf.printf "\n-- intra-node allreduce latency, 64 ranks (DES) --\n";
  Printf.printf "  %10s %12s %12s\n" "bytes" "spin" "futex-wake";
  List.iter
    (fun bytes ->
      let spin =
        (Mpi.Intranode.allreduce ~ranks:64 ~bytes ~wait:Mpi.Intranode.Spin ())
          .Mpi.Intranode.completion
      in
      let futex =
        (Mpi.Intranode.allreduce ~ranks:64 ~bytes
           ~wait:(Mpi.Intranode.Futex_wake 4_000) ())
          .Mpi.Intranode.completion
      in
      Printf.printf "  %10d %12s %12s\n" bytes
        (Engine.Units.time_to_string spin)
        (Engine.Units.time_to_string futex))
    [ 8; 256; 4096; 65536; 1048576 ];
  (* Scheduler comparison under oversubscription (DES-driven).
     McKernel's optional time-sharing rotates tasks at a quantum; the
     default cooperative queue runs each to completion. *)
  Printf.printf "\n-- 8 tasks time-sharing one core (DES makespan) --\n";
  let ts =
    {
      Cluster.Scenario.label = "McKernel+ts";
      make =
        (fun () ->
          Kernel.Mckernel.create ~time_sharing:(Some (20 * Engine.Units.ms)) ());
    }
  in
  List.iter
    (fun (scn : Cluster.Scenario.t) ->
      let os = scn.Cluster.Scenario.make () in
      let node = Kernel.Node.boot ~os ~ranks:1 ~threads_per_rank:1 ~seed:7 in
      let makespan =
        Kernel.Node.run_shared_core node ~tasks:8
          ~ops_per_task:[ Kernel.Workload.Compute (10 * Engine.Units.ms) ]
      in
      Printf.printf "  %-12s %s\n" scn.Cluster.Scenario.label
        (Engine.Units.time_to_string makespan))
    (Cluster.Scenario.trio @ [ ts ])

let bechamel_micro () =
  Printf.printf "\n-- wall-clock microbenchmarks of simulator substrates --\n";
  let open Bechamel in
  let tests =
    [
      Test.make ~name:"rng-bits64"
        (let rng = Engine.Rng.create 1 in
         Staged.stage (fun () -> ignore (Engine.Rng.bits64 rng)));
      Test.make ~name:"heap-push-pop"
        (let h = Engine.Heap.create () in
         let i = ref 0 in
         Staged.stage (fun () ->
             incr i;
             Engine.Heap.push h ~key:(!i mod 97) !i;
             ignore (Engine.Heap.pop h)));
      Test.make ~name:"buddy-alloc-free"
        (let b = Mem.Buddy.create ~base:0 ~bytes:(256 * 1024 * 1024) in
         Staged.stage (fun () ->
             match Mem.Buddy.alloc b ~bytes:(2 * 1024 * 1024) with
             | Some addr -> Mem.Buddy.free b ~addr ~bytes:(2 * 1024 * 1024)
             | None -> ()));
      Test.make ~name:"noise-max-delay-64"
        (let rng = Engine.Rng.create 2 in
         Staged.stage (fun () ->
             ignore
               (Noise.Injector.max_delay Noise.Profile.linux_nohz_full rng
                  ~dur:Engine.Units.ms ~ranks:64)));
      Test.make ~name:"allreduce-1024-nodes"
        (let clocks = Array.make 1024 0 in
         let env =
           {
             Mpi.Collective.fabric = Fabric.Fabric.make ~nodes:1024 ();
             syscall_cost = (fun _ -> 0);
             intra_ranks = 64;
           }
         in
         Staged.stage (fun () ->
             Array.fill clocks 0 1024 0;
             Mpi.Collective.allreduce env ~clocks ~bytes:8));
    ]
  in
  let benchmark test =
    let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 100) () in
    let raw = Benchmark.all cfg instances test in
    let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
    (* Sorted: bechamel hands results back in a Hashtbl, and printing
       it in bucket order would let the hash layout pick the line
       order of the report (mklint R3). *)
    List.iter
      (fun (name, ols) ->
        match Analyze.OLS.estimates ols with
        | Some (t :: _) -> Printf.printf "  %-28s %10.1f ns/op\n" name t
        | Some [] | None -> Printf.printf "  %-28s (no estimate)\n" name)
      (Analysis.Sorted.bindings results)
  in
  List.iter
    (fun t -> benchmark (Test.make_grouped ~name:"micro" ~fmt:"%s %s" [ t ]))
    tests

let micro () =
  section "MICROBENCHMARKS & ABLATIONS";
  Printf.printf "\n-- calibration audit: every cost constant in play --\n\n";
  print_string (Cluster.Calibration.table ());
  simulated_micro ();
  bechamel_micro ()

(* ------------------------------------------------------------------ *)
(* TOOLS: /proc, /sys and tools support (Section II-D4)                *)

let tools () =
  section "SECTION II-D4 — pseudo-filesystems and tools support";
  Printf.printf "Pseudo-file serving:\n\n";
  let kernels = [ Kernel.Procfs.Linux; Kernel.Procfs.Mckernel; Kernel.Procfs.Mos ] in
  let kname = function
    | Kernel.Procfs.Linux -> "Linux"
    | Kernel.Procfs.Mckernel -> "McKernel"
    | Kernel.Procfs.Mos -> "mOS"
  in
  let sname = function
    | Kernel.Procfs.Native -> "native"
    | Kernel.Procfs.Reimplemented -> "reimplemented"
    | Kernel.Procfs.Reused -> "reused-from-linux"
    | Kernel.Procfs.Forwarded -> "forwarded(stale)"
    | Kernel.Procfs.Missing -> "missing"
  in
  let rows =
    List.map
      (fun e ->
        Kernel.Procfs.entry_path e
        :: List.map (fun k -> sname (Kernel.Procfs.serve k e)) kernels)
      Kernel.Procfs.entries
  in
  print_string
    (Engine.Table.render ~header:("pseudo-file" :: List.map kname kernels) rows);
  Printf.printf "\nTool support (and where the tool must run):\n\n";
  let rows =
    List.map
      (fun t ->
        Kernel.Procfs.tool_name t
        :: List.map
             (fun k ->
               let where =
                 match Kernel.Procfs.tool_runs_on k t with
                 | `Lwk_core -> " [on LWK core]"
                 | `Linux_core -> ""
               in
               Kernel.Procfs.verdict_to_string (Kernel.Procfs.tool_support k t)
               ^ where)
             kernels)
      Kernel.Procfs.tools
  in
  print_string (Engine.Table.render ~header:("tool" :: List.map kname kernels) rows);
  Printf.printf
    "\nPaper: 'mOS mostly reuses the Linux implementation … in McKernel most\n\
     tools must run on an LWK core, while mOS can leave them on the Linux\n\
     side' (Section II-D4).  Fully-supported tools: Linux %d/%d, mOS %d/%d,\n\
     McKernel %d/%d.\n"
    (Kernel.Procfs.support_score Kernel.Procfs.Linux)
    (List.length Kernel.Procfs.tools)
    (Kernel.Procfs.support_score Kernel.Procfs.Mos)
    (List.length Kernel.Procfs.tools)
    (Kernel.Procfs.support_score Kernel.Procfs.Mckernel)
    (List.length Kernel.Procfs.tools)

(* ------------------------------------------------------------------ *)
(* ISOLATION: co-tenant interference (Section V)                       *)

let isolation () =
  section "ABLATION — performance isolation under a co-located tenant";
  let with_cotenant (s : Cluster.Scenario.t) =
    {
      Cluster.Scenario.label = s.Cluster.Scenario.label ^ "+cotenant";
      make =
        (fun () ->
          let os = s.Cluster.Scenario.make () in
          if Kernel.Os.is_lwk os then os
            (* strong partitioning: the tenant cannot reach LWK cores *)
          else { os with Kernel.Os.app_noise = Noise.Profile.linux_cotenant });
    }
  in
  let a = app_exn "hpcg" in
  let nodes = 64 in
  Printf.printf "HPCG at %d nodes, alone vs sharing the node with a busy tenant:\n\n"
    nodes;
  Printf.printf "%-10s %14s %14s %10s\n" "kernel" "alone" "with tenant" "slowdown";
  List.iter
    (fun s ->
      let alone = Cluster.Experiment.point ~scenario:s ~app:a ~nodes ~runs () in
      let shared =
        Cluster.Experiment.point ~scenario:(with_cotenant s) ~app:a ~nodes ~runs ()
      in
      Printf.printf "%-10s %14.4g %14.4g %9.1f%%\n" s.Cluster.Scenario.label
        alone.Cluster.Experiment.median_fom shared.Cluster.Experiment.median_fom
        (100.0
        *. (1.0
           -. (shared.Cluster.Experiment.median_fom
              /. alone.Cluster.Experiment.median_fom))))
    Cluster.Scenario.trio;
  Printf.printf
    "\nThe LWKs' strong core/memory partitioning keeps the tenant's threads\n\
     off application cores entirely — the isolation property Section V\n\
     highlights from the co-kernel literature.\n"

(* ------------------------------------------------------------------ *)
(* MODES: SNC-4 vs quadrant flat mode (Sections II-D3, III-A/B)        *)

let modes () =
  section "ABLATION — why SNC-4 hurts Linux: CCS-QCD across cluster modes";
  let a = app_exn "ccs-qcd" in
  let nodes = 16 in
  let quadrant_linux =
    {
      Cluster.Scenario.label = "Linux-quadrant";
      make = (fun () -> Kernel.Linux_os.create ~mode:Hw.Knl.Quadrant_flat ());
    }
  in
  let rows =
    List.map
      (fun ((s : Cluster.Scenario.t), app) ->
        let r = Cluster.Experiment.point ~scenario:s ~app ~nodes ~runs () in
        [
          s.Cluster.Scenario.label;
          Printf.sprintf "%.1f%%"
            (100.0 *. r.Cluster.Experiment.median_result.Cluster.Driver.mcdram_fraction);
          Printf.sprintf "%.4g" r.Cluster.Experiment.median_fom;
        ])
      [
        (Cluster.Scenario.mckernel, a);
        (Cluster.Scenario.mos, a);
        (Cluster.Scenario.linux, a);
        (* In quadrant mode a single numactl -p domain covers all of
           MCDRAM, so Linux can spill like the LWKs do. *)
        (quadrant_linux, { a with Apps.App.linux_ddr_only = false });
      ]
  in
  print_string
    (Engine.Table.render ~header:[ "configuration"; "MCDRAM share"; "FOM" ] rows);
  Printf.printf
    "\nIn quadrant mode 'the numactl -p option can be used' and Linux spills\n\
     like the LWKs; 'in SNC-4 mode, four such domains exist, but the current\n\
     Linux implementation allows only one to be listed' (Section III-C) —\n\
     which is why the paper ran SNC-4 Linux CCS-QCD from DDR4.\n"

(* ------------------------------------------------------------------ *)
(* CSV: machine-readable Figure-4 dataset                              *)

let csv () =
  List.iter
    (fun name ->
      let a = app_exn name in
      print_string (Cluster.Report.csv ~app:a (fig4_series name)))
    fig4_apps

let json () =
  let docs =
    List.map
      (fun name ->
        let a = app_exn name in
        Cluster.Report.json ~app:a (fig4_series name))
      fig4_apps
  in
  print_endline (Engine.Json.to_string_pretty (Engine.Json.List docs))

(* ------------------------------------------------------------------ *)
(* SENSITIVITY: how the headline mechanisms respond to their knobs    *)

let sensitivity () =
  section "ABLATION — parameter sensitivity of the two headline mechanisms";
  (* (a) The MiniFE collapse against the heavy-tail noise source. *)
  Printf.printf
    "MiniFE at 1,024 nodes: LWK/Linux ratio vs the daemon-spill source\n\
     (duration of the rare detour that reaches Linux application cores):\n\n";
  let minife = app_exn "minife" in
  let with_spill duration =
    {
      Cluster.Scenario.label = "Linux";
      make =
        (fun () ->
          let os = Kernel.Linux_os.create () in
          let sources =
            Noise.Profile.linux_nohz_full.Noise.Profile.sources
            |> List.filter (fun (s : Noise.Source.t) ->
                   s.Noise.Source.name <> "daemon-spill")
          in
          let sources =
            if duration = 0 then sources
            else
              sources
              @ [
                  Noise.Source.make ~name:"daemon-spill"
                    ~period:(3 * Engine.Units.sec) ~duration ~duration_sigma:0.8 ();
                ]
          in
          {
            os with
            Kernel.Os.app_noise = Noise.Profile.make ~name:"linux-var" sources;
          });
    }
  in
  Printf.printf "  %14s %10s\n" "spill duration" "ratio";
  List.iter
    (fun duration ->
      let linux =
        Cluster.Driver.run ~scenario:(with_spill duration) ~app:minife ~nodes:1024
          ~seed:42 ()
      in
      let mck =
        Cluster.Driver.run ~scenario:Cluster.Scenario.mckernel ~app:minife
          ~nodes:1024 ~seed:42 ()
      in
      Printf.printf "  %14s %9.2fx\n"
        (Engine.Units.time_to_string duration)
        (mck.Cluster.Driver.fom /. linux.Cluster.Driver.fom))
    [ 0; 75 * Engine.Units.us; 150 * Engine.Units.us; 300 * Engine.Units.us ];
  (* (b) The LAMMPS gap against the NIC eager threshold. *)
  Printf.printf
    "\nLAMMPS at 256 nodes: LWK/Linux ratio vs the NIC eager threshold\n\
     (messages above it need control syscalls -> offloaded on LWKs):\n\n";
  let lammps = app_exn "lammps" in
  Printf.printf "  %14s %10s\n" "threshold" "ratio";
  List.iter
    (fun eager_threshold ->
      let f scenario =
        (Cluster.Driver.run ~eager_threshold ~scenario ~app:lammps ~nodes:256
           ~seed:42 ())
          .Cluster.Driver.fom
      in
      Printf.printf "  %14s %9.2fx\n"
        (Engine.Units.size_to_string eager_threshold)
        (f Cluster.Scenario.mckernel /. f Cluster.Scenario.linux))
    [ 4 * 1024; 16 * 1024; 64 * 1024; 1024 * 1024 ];
  Printf.printf
    "\nWith no heavy-tail noise the MiniFE 'collapse' disappears; with an\n\
     eager threshold above the message size the LAMMPS penalty disappears —\n\
     each headline result is carried by exactly the mechanism the paper\n\
     names, and by nothing else.\n"

(* ------------------------------------------------------------------ *)
(* RESULTS: the bench/JSON pipeline — suite trajectory on disk        *)

let results_dir = Filename.concat "bench" "results"

(* Crash-safe: a killed bench run can leave a stale .tmp behind but
   never a torn latest.json. *)
let write_file path contents = Engine.Atomic_file.write path contents

(* ------------------------------------------------------------------ *)
(* HISTORY: tagged perf trajectory + regression diff                  *)

(* Every perf/scale run — smoke included — appends to a tagged
   history under bench/results/: [<target>-<tag>.json] is the
   immutable snapshot, [<target>-latest.json] the moving head, and
   [<target>-prev.json] the head it displaced, so
   [diff --against latest] always has the run before this one to
   compare with.  Wall clock is fine here: tags are provenance, never
   simulation input (the determinism contract lives in lib/). *)
let history_targets = [ "perf"; "perf-smoke"; "scale"; "scale-smoke" ]

(* Tags that can never name a snapshot: "latest"/"prev" are the moving
   heads above, "smoke" would collide with the legacy
   [perf-smoke.json]/[scale-smoke.json] gate files. *)
let reserved_tags = [ "latest"; "prev"; "smoke" ]

let default_tag () =
  let t = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d%02d%02d-%02d%02d%02d" (t.Unix.tm_year + 1900)
    (t.Unix.tm_mon + 1) t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min
    t.Unix.tm_sec

let record_history ~target ~tag doc =
  if List.mem tag reserved_tags || String.contains tag '/' then begin
    Printf.eprintf "history: %S is a reserved tag (reserved: %s)\n" tag
      (String.concat " " reserved_tags);
    exit 1
  end;
  if not (Sys.file_exists results_dir) then Sys.mkdir results_dir 0o755;
  let path name = Filename.concat results_dir (target ^ "-" ^ name ^ ".json") in
  let latest = path "latest" in
  (* Preserve the displaced head first: a crash between the two writes
     still leaves a consistent (prev, latest) pair on disk. *)
  if Sys.file_exists latest then
    write_file (path "prev") (Engine.Atomic_file.read latest);
  List.iter
    (fun p ->
      write_file p doc;
      Printf.printf "wrote %s\n" p)
    [ path tag; latest ]

(* A file belongs to the longest matching target prefix, so listing
   the [perf] history never swallows [perf-smoke-*] snapshots. *)
let history_owner file =
  List.fold_left
    (fun acc t ->
      if
        String.starts_with ~prefix:(t ^ "-") file
        && match acc with None -> true | Some a -> String.length t > String.length a
      then Some t
      else acc)
    None history_targets

let history_entries target =
  if not (Sys.file_exists results_dir) then []
  else
    Sys.readdir results_dir |> Array.to_list
    |> List.filter_map (fun f ->
           if
             Filename.check_suffix f ".json" && history_owner f = Some target
           then
             let prefix_len = String.length target + 1 in
             let tag =
               String.sub f prefix_len (String.length f - prefix_len - 5)
             in
             if List.mem tag reserved_tags then None else Some tag
           else None)
    |> List.sort compare

(* Flatten a document to dotted-path numeric leaves; list elements get
   positional [i] indices so matching paths compare one-to-one. *)
let rec num_leaves prefix j acc =
  match j with
  | Engine.Json.Int i -> (prefix, float_of_int i) :: acc
  | Engine.Json.Float f -> (prefix, f) :: acc
  | Engine.Json.Bool _ | Engine.Json.String _ | Engine.Json.Null -> acc
  | Engine.Json.Obj fs ->
      List.fold_left
        (fun acc (k, v) ->
          num_leaves (if prefix = "" then k else prefix ^ "." ^ k) v acc)
        acc fs
  | Engine.Json.List xs ->
      snd
        (List.fold_left
           (fun (i, acc) v ->
             (i + 1, num_leaves (Printf.sprintf "%s[%d]" prefix i) v acc))
           (0, acc) xs)

let flatten_doc j = List.rev (num_leaves "" j [])

(* Which way is worse?  Classified from the leaf name: throughputs,
   speedups and utilizations must not fall; overheads and percentage
   costs must not climb.  Raw wall-clock [_seconds]/[_ns] figures are
   report-only — they move with machine load, and gating on them makes
   CI flake on a busy box.  So is the [speedup] inside a [des] object:
   it is the ratio of two single-shot timings of a few milliseconds,
   which swings by 2x between identical runs, and a timing ratio gates
   only against a baseline interleaved in the same run.  The DES
   protocol counts beside it are pinned by test_cluster instead.  So
   is the DES core's [events_per_sec]: it times one run of 200,000
   events, and two runs of one build read 1.00 and 1.57 M events/s.
   test_engine pins what it stood for, the fire path's minor words per
   event, at exactly zero.
   Counts, seeds and simulated figures (events, completion times,
   FOMs) are model output, legitimately changed by model PRs, so they
   are never gated either. *)
type direction = Higher_better | Lower_better | Report_only

let contains_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let leaf_name path =
  let last =
    match String.rindex_opt path '.' with
    | Some i -> String.sub path (i + 1) (String.length path - i - 1)
    | None -> path
  in
  match String.index_opt last '[' with
  | Some i -> String.sub last 0 i
  | None -> last

(* The object a leaf sits in: ["des"] for ["points[0].des.speedup"]. *)
let parent_name path =
  match String.rindex_opt path '.' with
  | Some i -> leaf_name (String.sub path 0 i)
  | None -> ""

let diff_direction path =
  let n = leaf_name path in
  if (n = "speedup" && parent_name path = "des") || n = "events_per_sec" then
    Report_only
  else if
    contains_sub ~sub:"speedup" n
    || contains_sub ~sub:"improvement" n
    || Filename.check_suffix n "_per_sec"
    || n = "horizon_utilization"
  then Higher_better
  else if Filename.check_suffix n "_pct" || contains_sub ~sub:"overhead" n then
    Lower_better
  else Report_only

type delta = {
  d_path : string;
  d_old : float;
  d_new : float;
  d_rel : float option;  (** percent change; [None] when old is ~0 *)
  d_dir : direction;
  d_regression : bool;
}

(* Pair up numeric leaves by path and flag gated metrics whose change
   crosses [threshold] percent in the bad direction.  Metrics present
   in only one document are structure changes, not regressions — the
   caller reports their count. *)
let compare_docs ~threshold a b =
  let la = flatten_doc a and lb = flatten_doc b in
  let deltas =
    List.filter_map
      (fun (path, nv) ->
        match List.assoc_opt path la with
        | None -> None
        | Some ov ->
            let rel =
              if Float.abs ov > 1e-9 then
                Some ((nv -. ov) /. Float.abs ov *. 100.)
              else None
            in
            let dir =
              match diff_direction path with
              | (Higher_better | Lower_better)
                when Filename.check_suffix (leaf_name path) "_pct"
                     && Float.abs ov < 1.0 ->
                  (* A percentage metric with a sub-point baseline sits
                     at the measurement's noise floor (e.g. a disabled
                     overhead hovering around 0 +/- 1): its *relative*
                     delta explodes on harmless jitter.  The absolute
                     bars (perf --smoke's <= 2% gate) own that regime;
                     the trend diff only gates once the baseline is at
                     least one point. *)
                  Report_only
              | d -> d
            in
            let regression =
              match (rel, dir) with
              | Some r, Higher_better -> r < -.threshold
              | Some r, Lower_better -> r > threshold
              | _ -> false
            in
            Some
              {
                d_path = path;
                d_old = ov;
                d_new = nv;
                d_rel = rel;
                d_dir = dir;
                d_regression = regression;
              })
      lb
  in
  let known l = List.filter (fun (p, _) -> List.mem_assoc p l) in
  let missing = List.length la - List.length (known lb la) in
  let added = List.length lb - List.length (known la lb) in
  (deltas, missing, added)

let print_diff ~threshold ~label_a ~label_b (deltas, missing, added) =
  Printf.printf "bench diff: %s -> %s (threshold %g%%)\n" label_a label_b
    threshold;
  let changed = List.filter (fun d -> d.d_old <> d.d_new) deltas in
  let show d =
    let rel =
      match d.d_rel with
      | Some r -> Printf.sprintf "%+.1f%%" r
      | None -> "(from ~0)"
    in
    let mark =
      if d.d_regression then "  REGRESSION"
      else
        match d.d_dir with
        | Higher_better | Lower_better -> ""
        | Report_only -> "  (report-only)"
    in
    Printf.printf "  %-44s %14.6g -> %-14.6g %10s%s\n" d.d_path d.d_old
      d.d_new rel mark
  in
  List.iter show changed;
  let regressions = List.filter (fun d -> d.d_regression) deltas in
  Printf.printf
    "%d metric(s) compared, %d changed, %d regression(s)%s%s\n"
    (List.length deltas) (List.length changed) (List.length regressions)
    (if missing > 0 then Printf.sprintf ", %d dropped" missing else "")
    (if added > 0 then Printf.sprintf ", %d new" added else "");
  List.length regressions

(* A diff operand resolves in order: literal path, a file under
   bench/results/, a bare snapshot name, or a history target whose
   [-latest] head is meant. *)
let resolve_snapshot r =
  let candidates =
    [
      r;
      Filename.concat results_dir r;
      Filename.concat results_dir (r ^ ".json");
      Filename.concat results_dir (r ^ "-latest.json");
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None ->
      Printf.eprintf "diff: cannot resolve %S (tried: %s)\n" r
        (String.concat ", " candidates);
      exit 1

let read_snapshot path =
  match Engine.Atomic_file.read_json path with
  | j -> j
  | exception Engine.Atomic_file.Corrupt { path; reason } ->
      Printf.eprintf "diff: %s is corrupt: %s\n" path reason;
      exit 1

let diff_files ~threshold pa pb =
  print_diff ~threshold ~label_a:pa ~label_b:pb
    (compare_docs ~threshold (read_snapshot pa) (read_snapshot pb))

let diff_against_latest ~smoke ~threshold =
  let targets =
    if smoke then [ "perf-smoke"; "scale-smoke" ] else [ "perf"; "scale" ]
  in
  let regressions =
    List.fold_left
      (fun acc t ->
        let prev = Filename.concat results_dir (t ^ "-prev.json") in
        let latest = Filename.concat results_dir (t ^ "-latest.json") in
        if Sys.file_exists prev && Sys.file_exists latest then
          acc + diff_files ~threshold prev latest
        else begin
          (* Fresh checkout or first run: one snapshot is no trajectory
             yet, and a gate that fails on it would block every clean
             clone — skip loudly instead. *)
          Printf.printf "%s: no history to diff yet (need two runs)\n" t;
          acc
        end)
      0 targets
  in
  if regressions > 0 then exit 1

let history ?target () =
  let show t =
    match history_entries t with
    | [] -> Printf.printf "%-12s (no tagged snapshots)\n" t
    | entries ->
        List.iter
          (fun tag ->
            let path = Filename.concat results_dir (t ^ "-" ^ tag ^ ".json") in
            let summary =
              match Engine.Atomic_file.read_json path with
              | exception Engine.Atomic_file.Corrupt { reason; _ } ->
                  "corrupt: " ^ reason
              | j ->
                  let leaves = flatten_doc j in
                  let prefer =
                    [ "events_per_sec"; "speedup_j2"; "null_overhead_pct";
                      "suite_seconds"; "speedup" ]
                  in
                  let picks =
                    List.filter_map
                      (fun n ->
                        List.find_opt (fun (p, _) -> leaf_name p = n) leaves
                        |> Option.map (fun (_, v) ->
                               Printf.sprintf "%s=%.4g" n v))
                      prefer
                  in
                  Printf.sprintf "%d metrics%s" (List.length leaves)
                    (match picks with
                    | [] -> ""
                    | _ -> "  " ^ String.concat " " picks)
            in
            Printf.printf "%-12s %-18s %s\n" t tag summary)
          entries
  in
  match target with
  | Some t when not (List.mem t history_targets) ->
      Printf.eprintf "history: unknown target %s (targets: %s)\n" t
        (String.concat " " history_targets);
      exit 1
  | Some t -> show t
  | None -> List.iter show history_targets

(* The regression detector tested against itself: a synthetic baseline
   vs (a) the identical document — zero regressions, exit 0 semantics —
   and (b) a deliberately degraded copy, where exactly the gated
   metrics must fire and the report-only ones must not.  This is the
   CI evidence that [diff --against latest] can actually catch a
   regression, independent of whether the real trajectory has one. *)
let diff_selftest () =
  section "DIFF-SELFTEST — regression detector vs synthetic snapshots";
  let doc ?(des_speedup = 0.76) ~eps ~j2 ~null ~secs ~events ~fom () =
    Engine.Json.Obj
      [
        ("schema", Engine.Json.String "multikernel-perf/1");
        ("events_per_sec", Engine.Json.Float eps);
        ( "suite",
          Engine.Json.Obj
            [
              ("speedup_j2", Engine.Json.Float j2);
              ("suite_seconds", Engine.Json.Float secs);
            ] );
        ("obs", Engine.Json.Obj [ ("null_overhead_pct", Engine.Json.Float null) ]);
        ( "des",
          Engine.Json.Obj
            [
              ("events", Engine.Json.Int events);
              ("fom", Engine.Json.Float fom);
              ("speedup", Engine.Json.Float des_speedup);
            ] );
      ]
  in
  let base =
    doc ~eps:2.0e6 ~j2:1.5 ~null:1.0 ~secs:2.0 ~events:123_456 ~fom:5.0 ()
  in
  (* Degraded in every dimension; only the gated ones may fire.  The
     DES speedup drops 58 %, as single-shot readings of identical runs
     do (0.76 -> 0.32), and the DES core's throughput 55 %; the suite
     speedup in the same document still gates. *)
  let bad =
    doc ~des_speedup:0.32 ~eps:0.9e6 ~j2:1.0 ~null:3.0 ~secs:9.0
      ~events:654_321 ~fom:1.0 ()
  in
  let expect name cond =
    if cond then Printf.printf "  ok: %s\n" name
    else begin
      Printf.eprintf "  FAIL: %s\n" name;
      exit 1
    end
  in
  let regressions docs_a docs_b threshold =
    let deltas, _, _ = compare_docs ~threshold docs_a docs_b in
    List.filter (fun d -> d.d_regression) deltas
    |> List.map (fun d -> d.d_path)
    |> List.sort compare
  in
  expect "identical documents show zero regressions"
    (regressions base base 25.0 = []);
  expect "seeded regressions fire on exactly the gated metrics"
    (regressions base bad 25.0 = [ "obs.null_overhead_pct"; "suite.speedup_j2" ]);
  expect "wall-clock and model-output leaves never gate"
    (List.for_all
       (fun p ->
         not
           (List.mem p
              [ "suite.suite_seconds"; "des.events"; "des.fom" ]))
       (regressions base bad 0.0));
  expect "single-shot DES timings never gate; the suite speedup does"
    (let r = regressions base bad 0.0 in
     (not (List.mem "des.speedup" r))
     && (not (List.mem "events_per_sec" r))
     && List.mem "suite.speedup_j2" r);
  expect "threshold is honoured"
    (regressions base bad 1000.0 = []);
  (* A percentage metric whose baseline sits below one point is at the
     measurement's noise floor: a -0.1 -> 0.9 wobble is a +1000%
     relative change but means nothing — it must never gate.  (The
     absolute bars in perf --smoke own that regime.) *)
  let noisy_base =
    doc ~eps:2.0e6 ~j2:1.5 ~null:(-0.1) ~secs:2.0 ~events:123_456 ~fom:5.0 ()
  in
  let noisy_now =
    doc ~eps:2.0e6 ~j2:1.5 ~null:0.9 ~secs:2.0 ~events:123_456 ~fom:5.0 ()
  in
  expect "sub-point pct baselines never gate (noise floor)"
    (regressions noisy_base noisy_now 25.0 = []);
  ignore
    (print_diff ~threshold:25.0 ~label_a:"synthetic-base"
       ~label_b:"synthetic-degraded"
       (compare_docs ~threshold:25.0 base bad));
  Printf.printf "diff-selftest: all expectations hold\n"

let results ?tag ?jobs () =
  section "RESULTS — suite trajectory to bench/results/";
  let jobs =
    match jobs with Some j -> j | None -> Domain.recommended_domain_count ()
  in
  let seed = 42 in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  in
  Printf.printf "sequential suite (%d apps x 3 kernels, %d runs each)...\n%!"
    (List.length Apps.Registry.all) runs;
  let seq, seq_s = timed (fun () -> Cluster.Experiment.suite ~runs ~seed ()) in
  Printf.printf "parallel suite (%d jobs)...\n%!" jobs;
  let pool = Engine.Pool.create ~num_domains:jobs () in
  let par, par_s = timed (fun () -> Cluster.Experiment.suite ~pool ~runs ~seed ()) in
  Engine.Pool.shutdown pool;
  let render suite =
    Engine.Json.to_string_pretty (Cluster.Report.suite_json ~runs ~seed suite)
  in
  (* The determinism contract, enforced on every results run: the
     parallel fan-out must not change a single byte of the output. *)
  if render seq <> render par then
    failwith "results: parallel suite diverged from sequential suite";
  Printf.printf "sequential %.1fs, parallel %.1fs (%.2fx), outputs identical\n"
    seq_s par_s (seq_s /. par_s);
  let meta =
    (match tag with Some t -> [ ("tag", Engine.Json.String t) ] | None -> [])
    @ [
        ("jobs", Engine.Json.Int jobs);
        ("sequential_seconds", Engine.Json.Float seq_s);
        ("parallel_seconds", Engine.Json.Float par_s);
        ("speedup", Engine.Json.Float (seq_s /. par_s));
      ]
  in
  let doc =
    Engine.Json.to_string_pretty (Cluster.Report.suite_json ~runs ~seed ~meta par)
    ^ "\n"
  in
  if not (Sys.file_exists results_dir) then Sys.mkdir results_dir 0o755;
  let latest = Filename.concat results_dir "latest.json" in
  write_file latest doc;
  Printf.printf "wrote %s\n" latest;
  match tag with
  | None -> ()
  | Some t ->
      let tagged = Filename.concat results_dir (t ^ ".json") in
      write_file tagged doc;
      Printf.printf "wrote %s\n" tagged

(* ------------------------------------------------------------------ *)
(* FAULTS: degradation tables + isolation demo, through the pipeline  *)

let faults () =
  section "FAULTS — degradation under escalating fault rates";
  let pool =
    Engine.Pool.create ~num_domains:(Domain.recommended_domain_count ()) ()
  in
  Fun.protect ~finally:(fun () -> Engine.Pool.shutdown pool) @@ fun () ->
  let tables =
    [
      Cluster.Degradation.run ~pool ~app:(app_exn "hpcg") ~nodes:64
        ~preset:"mixed" ~runs ();
      Cluster.Degradation.run ~pool ~app:(app_exn "minife") ~nodes:256
        ~preset:"mixed" ~runs ();
    ]
  in
  List.iter
    (fun t ->
      print_string (Cluster.Degradation.render t);
      print_newline ())
    tables;
  let demo = Cluster.Degradation.isolation_demo ~pool ~runs () in
  print_string (Cluster.Degradation.render_demo demo);
  let doc =
    Engine.Json.to_string_pretty
      (Engine.Json.Obj
         [
           ("schema", Engine.Json.String "multikernel-faults-report/1");
           ( "tables",
             Engine.Json.List (List.map Cluster.Degradation.to_json tables) );
           ("isolation_demo", Cluster.Degradation.demo_to_json demo);
         ])
    ^ "\n"
  in
  if not (Sys.file_exists results_dir) then Sys.mkdir results_dir 0o755;
  let path = Filename.concat results_dir "faults.json" in
  write_file path doc;
  Printf.printf "wrote %s\n" path

(* ------------------------------------------------------------------ *)
(* PERF: hot-path microbenchmarks and the parallel-speedup record     *)

(* Three measurements, written to bench/results/ as
   "multikernel-perf/1" JSON:

     - events/sec through the DES core (Sim + Heap, with live
       cancellations exercising the tombstone-free cancel path);
     - pages/sec through the page-table accounting (a 4 GiB 4 KiB-page
       map/unmap, which the closed-form span arithmetic makes O(leaf
       tables) instead of O(pages) — op_count is reported so the bound
       is visible in the record);
     - suite wall-clock, sequential vs -j 2 (vs -j 4 in full mode),
       measured in-process back to back after a warm-up pass, because
       process start-up and first-touch effects are larger than the
       seq/par gap itself;
     - observability overhead: one fixed experiment timed with no
       recorder installed (sink=Null — the ambient hook takes its
       disabled branch), with an in-memory metrics collector
       (sink=Memory) and with a full trace written through
       Atomic_file (sink=File), so the zero-cost-when-disabled claim
       of docs/OBSERVABILITY.md is a measured number in the record,
       not an assertion.

   The record also self-profiles the harness: wall-clock per perf
   phase and the full per-domain scheduler statistics of each -j mode
   (Engine.Pool.stats — executed, local pops, steals, failed steals,
   injector runs, rendered through Obs.Pool_stats) land in the JSON.

   Modes are interleaved and each keeps its best time, the standard
   defence against timer noise on a shared machine.  The smoke variant
   is the CI gate: tiny configuration, and a non-zero exit if the
   suite speedups regress — -j 2 must beat sequential on machines
   with at least two cores, and -j 4 must clear the 1.25x bar the
   work-stealing pool is held to on machines with at least four.
   Each gate is conditional on the cores that could make it passable:
   on a 1-core container -j N cannot beat sequential by any
   scheduling (the same instructions run with extra coordination), so
   there the speedups are recorded but not gated. *)

let perf ?tag ~smoke () =
  section
    (if smoke then "PERF (smoke) — hot-path gate"
     else "PERF — hot-path microbenchmarks and parallel speedup");
  let tag = match tag with Some t -> t | None -> default_tag () in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  in
  (* -- events/sec through the DES core ------------------------------ *)
  let target_events = if smoke then 200_000 else 2_000_000 in
  let chains = 64 in
  let fired = ref 0 in
  (* A chain's event is its period: each firing schedules the next one
     that far ahead. *)
  let sim =
    Engine.Sim.create (fun t delay ->
        incr fired;
        if !fired + chains <= target_events then
          Engine.Sim.schedule_after t ~delay delay)
  in
  for c = 1 to chains do
    Engine.Sim.schedule_after sim ~delay:c c
  done;
  let (), sim_s = timed (fun () -> Engine.Sim.run sim) in
  let events_per_sec = float_of_int !fired /. sim_s in
  Printf.printf "DES core:   %d events in %.3fs = %.2fM events/s\n%!" !fired
    sim_s (events_per_sec /. 1e6);
  (* -- pages/sec through the page-table accounting ------------------ *)
  let gib = 1024 * 1024 * 1024 in
  let pt_iters = if smoke then 4 else 32 in
  let pt = Mem.Page_table.create () in
  let (), pt_s =
    timed (fun () ->
        for _ = 1 to pt_iters do
          Mem.Page_table.map pt ~vaddr:0 ~bytes:(4 * gib) ~page:Mem.Page.Small;
          Mem.Page_table.unmap pt ~vaddr:0 ~bytes:(4 * gib) ~page:Mem.Page.Small
        done)
  in
  let pages_touched = pt_iters * 2 * (4 * gib / 4096) in
  let pages_per_sec = float_of_int pages_touched /. pt_s in
  let pt_ops = Mem.Page_table.op_count pt in
  Printf.printf
    "page table: %d x (map+unmap 4 GiB of 4K) in %.3fs = %.0fM pages/s (%d inner ops)\n%!"
    pt_iters pt_s (pages_per_sec /. 1e6) pt_ops;
  (* -- suite wall-clock: sequential vs parallel --------------------- *)
  let apps = if smoke then [ app_exn "hpcg" ] else Apps.Registry.all in
  let node_counts = if smoke then Some [ 512; 1024; 2048 ] else None in
  let perf_runs = 2 in
  let seed = 42 in
  let run_suite ?pool () =
    Cluster.Experiment.suite ?pool ~apps ?node_counts ~runs:perf_runs ~seed ()
  in
  let render s =
    Engine.Json.to_string_pretty
      (Cluster.Report.suite_json ~runs:perf_runs ~seed s)
  in
  (* Scheduler statistics of the most recent run at each -j, for the
     utilisation section of the record (racy snapshot by design, see
     Pool.stats — taken after the map has drained). *)
  let utilization : (int * Engine.Pool.stats) list ref = ref [] in
  let time_mode jobs =
    if jobs <= 1 then timed (fun () -> run_suite ())
    else begin
      let pool = Engine.Pool.create ~num_domains:(jobs - 1) () in
      Fun.protect
        ~finally:(fun () -> Engine.Pool.shutdown pool)
        (fun () ->
          let r = timed (fun () -> run_suite ~pool ()) in
          utilization :=
            (jobs, Engine.Pool.stats pool)
            :: List.remove_assoc jobs !utilization;
          r)
    end
  in
  (* Smoke includes the -j 4 gate mode only where four executors can
     actually run; the full record always measures it. *)
  let modes =
    if smoke && Domain.recommended_domain_count () < 4 then [ 1; 2 ]
    else [ 1; 2; 4 ]
  in
  let best : (int, string * float) Hashtbl.t = Hashtbl.create 4 in
  let measure_round () =
    List.iter
      (fun jobs ->
        let suite, s = time_mode jobs in
        let doc = render suite in
        Printf.printf "  -j %d  %.2fs\n%!" jobs s;
        match Hashtbl.find_opt best jobs with
        | Some (_, s0) when s0 <= s -> ()
        | _ -> Hashtbl.replace best jobs (doc, s))
      modes
  in
  let (), suite_phase_s =
    timed (fun () ->
        Printf.printf "suite warm-up...\n%!";
        ignore
          (Cluster.Experiment.suite ~apps:[ app_exn "hpcg" ]
             ~node_counts:[ 64; 128 ] ~runs:1 ~seed ());
        let rounds = if smoke then 1 else 2 in
        for _ = 1 to rounds do
          measure_round ()
        done;
        (* One retry before the smoke gate rules: a single scheduling
           hiccup on a loaded CI machine must not fail the build. *)
        let cores = Domain.recommended_domain_count () in
        let gates_failing () =
          let seq = snd (Hashtbl.find best 1) in
          (cores >= 2 && snd (Hashtbl.find best 2) > seq)
          || (cores >= 4
             &&
             match Hashtbl.find_opt best 4 with
             | Some (_, j4_s) -> seq /. j4_s < 1.25
             | None -> false)
        in
        if smoke && gates_failing () then measure_round ())
  in
  let seq_doc, seq_s = Hashtbl.find best 1 in
  (* The determinism contract, enforced here too: every parallel
     rendering must equal the sequential one byte for byte. *)
  List.iter
    (fun (jobs, (doc, _)) ->
      if doc <> seq_doc then
        failwith
          (Printf.sprintf "perf: -j %d suite diverged from sequential" jobs))
    (Analysis.Sorted.bindings best);
  let _, j2_s = Hashtbl.find best 2 in
  Printf.printf "suite: sequential %.2fs, -j 2 %.2fs (%.2fx)%s, outputs identical\n"
    seq_s j2_s (seq_s /. j2_s)
    (match Hashtbl.find_opt best 4 with
    | Some (_, j4_s) -> Printf.sprintf ", -j 4 %.2fs (%.2fx)" j4_s (seq_s /. j4_s)
    | None -> "");
  (* -- observability overhead: sink=Null vs Memory vs File ----------- *)
  if not (Sys.file_exists results_dir) then Sys.mkdir results_dir 0o755;
  let obs_app = app_exn "hpcg" in
  let obs_nodes = 64 in
  let obs_runs = 2 in
  (* One point at this size is ~1 ms — far below timer resolution — so
     each sink measurement repeats it, with a fresh collector (and a
     fresh trace write) per repetition: the per-experiment cost is what
     a user of --trace actually pays, and the sample grows to tens of
     milliseconds where the 2% gate is meaningful. *)
  let obs_reps = if smoke then 64 else 96 in
  let obs_trace_path = Filename.concat results_dir "obs-overhead-trace.json" in
  let obs_events = ref 0 in
  let obs_bytes = ref 0 in
  let obs_point ?obs () =
    ignore
      (Cluster.Experiment.point ?obs ~scenario:Cluster.Scenario.mckernel
         ~app:obs_app ~nodes:obs_nodes ~runs:obs_runs ~seed ())
  in
  (* [`Baseline] and [`Null] run identical code — the ambient hook's
     disabled branch IS the baseline path, there is no hook-free build
     to compare against — so their timing difference is the noise
     floor of this measurement, which is exactly what the ≤ 2% gate on
     null_overhead_pct asserts: the disabled sink costs nothing that
     rises above timer noise. *)
  let time_sink sink =
    snd
      (timed (fun () ->
           for _ = 1 to obs_reps do
             match sink with
             | `Baseline | `Null -> obs_point ()
             | `Memory ->
                 let c = Obs.Collect.create () in
                 obs_point ~obs:c ()
             | `File ->
                 let c = Obs.Collect.create ~trace:true () in
                 obs_point ~obs:c ();
                 let doc =
                   Engine.Json.to_string (Obs.Collect.trace_json c) ^ "\n"
                 in
                 obs_events := List.length (Obs.Collect.events c);
                 obs_bytes := String.length doc;
                 write_file obs_trace_path doc
           done))
  in
  let sink_name = function
    | `Baseline -> "baseline"
    | `Null -> "null"
    | `Memory -> "memory"
    | `File -> "file"
  in
  let sinks = [ `Baseline; `Null; `Memory; `File ] in
  let obs_best : (string, float) Hashtbl.t = Hashtbl.create 4 in
  let obs_round () =
    List.iter
      (fun sink ->
        let s = time_sink sink in
        let name = sink_name sink in
        match Hashtbl.find_opt obs_best name with
        | Some s0 when s0 <= s -> ()
        | _ -> Hashtbl.replace obs_best name s)
      sinks
  in
  let obs_stats () =
    let get name = Hashtbl.find obs_best name in
    let base = get "baseline" and null = get "null" in
    let mem = get "memory" and file = get "file" in
    let pct a b = 100.0 *. ((a /. b) -. 1.0) in
    (base, null, mem, file, pct null base, pct mem null, pct file null)
  in
  let (), obs_phase_s =
    timed (fun () ->
        Printf.printf "obs sinks (%s x %d nodes x %d runs x %d reps)...\n%!"
          obs_app.Apps.App.name obs_nodes obs_runs obs_reps;
        let rounds = if smoke then 2 else 3 in
        for _ = 1 to rounds do
          obs_round ()
        done;
        (* Retry policy, slightly stronger than the -j 2 gate's: since
           [`Baseline] and [`Null] run identical code, best-of-N for
           both converges on the same true time as N grows — extra
           rounds only ever tighten the measurement.  On a loaded
           single-core box the sample-to-sample spread can exceed the
           2% bar, so allow up to three extra rounds, stopping as soon
           as the gate is satisfied. *)
        let retries = ref 0 in
        let failing () =
          let _, _, _, _, null_pct, _, _ = obs_stats () in
          null_pct > 2.0
        in
        while smoke && failing () && !retries < 3 do
          incr retries;
          obs_round ()
        done)
  in
  let obs_base, obs_null, obs_mem, obs_file, null_pct, mem_pct, file_pct =
    obs_stats ()
  in
  Printf.printf
    "obs sinks:  null %.3fs (%+.2f%% vs baseline), memory %.3fs (%+.2f%%), \
     file %.3fs (%+.2f%%, %d events)\n"
    obs_null null_pct obs_mem mem_pct obs_file file_pct !obs_events;
  (* The per-hook cost itself, both branches of the ambient sink. *)
  let hook_iters = 1_000_000 in
  let per_op f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to hook_iters do
      f ()
    done;
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int hook_iters
  in
  let bump () = Obs.Hook.count ~subsystem:"bench" ~name:"noop" 1 in
  let disabled_hook_ns = per_op bump in
  let enabled_count_ns =
    let r = Obs.Recorder.make ~label:"bench" ~nodes:1 ~seed:0 () in
    Obs.Hook.with_recorder r (fun () -> per_op bump)
  in
  Printf.printf "hook cost:  disabled %.1f ns/op, counting %.1f ns/op\n"
    disabled_hook_ns enabled_count_ns;
  let doc =
    Engine.Json.to_string_pretty
      (Engine.Json.Obj
         ([
            ("schema", Engine.Json.String "multikernel-perf/1");
            ("tag", Engine.Json.String tag);
          ]
         @ [
             ("smoke", Engine.Json.Bool smoke);
             ("sim_events", Engine.Json.Int !fired);
             ("events_per_sec", Engine.Json.Float events_per_sec);
             ("pages_per_sec", Engine.Json.Float pages_per_sec);
             ("page_table_ops", Engine.Json.Int pt_ops);
             ( "suite",
               Engine.Json.Obj
                 ([
                    ("apps", Engine.Json.Int (List.length apps));
                    ("runs", Engine.Json.Int perf_runs);
                    ("sequential_seconds", Engine.Json.Float seq_s);
                    ("j2_seconds", Engine.Json.Float j2_s);
                    ("speedup_j2", Engine.Json.Float (seq_s /. j2_s));
                  ]
                 @
                 match Hashtbl.find_opt best 4 with
                 | Some (_, j4_s) ->
                     [
                       ("j4_seconds", Engine.Json.Float j4_s);
                       ("speedup_j4", Engine.Json.Float (seq_s /. j4_s));
                     ]
                 | None -> []) );
             ( "obs",
               Engine.Json.Obj
                 [
                   ( "workload",
                     Engine.Json.Obj
                       [
                         ("app", Engine.Json.String obs_app.Apps.App.name);
                         ("nodes", Engine.Json.Int obs_nodes);
                         ("runs", Engine.Json.Int obs_runs);
                         ("reps", Engine.Json.Int obs_reps);
                       ] );
                   ("baseline_seconds", Engine.Json.Float obs_base);
                   ("null_seconds", Engine.Json.Float obs_null);
                   ("memory_seconds", Engine.Json.Float obs_mem);
                   ("file_seconds", Engine.Json.Float obs_file);
                   ("null_overhead_pct", Engine.Json.Float null_pct);
                   ("memory_overhead_pct", Engine.Json.Float mem_pct);
                   ("file_overhead_pct", Engine.Json.Float file_pct);
                   ("trace_events", Engine.Json.Int !obs_events);
                   ("trace_bytes", Engine.Json.Int !obs_bytes);
                   ("disabled_hook_ns", Engine.Json.Float disabled_hook_ns);
                   ("enabled_count_ns", Engine.Json.Float enabled_count_ns);
                 ] );
             ( "pool_utilization",
               Engine.Json.List
                 (List.map
                    (fun ((jobs : int), (st : Engine.Pool.stats)) ->
                      let ints a =
                        Engine.Json.List
                          (Array.to_list
                             (Array.map (fun n -> Engine.Json.Int n) a))
                      in
                      Engine.Json.Obj
                        [
                          ("jobs", Engine.Json.Int jobs);
                          ("executed_per_domain", ints st.Engine.Pool.executed);
                          ("local_pops", ints st.Engine.Pool.local_pops);
                          ("steals", ints st.Engine.Pool.steals);
                          ("failed_steals", ints st.Engine.Pool.failed_steals);
                          ("injected_runs", ints st.Engine.Pool.injected_runs);
                          (* The same numbers in the metrics key
                             vocabulary, via the obs bridge — scheduler
                             self-profiling only, never merged into run
                             snapshots (the counts are host-machine
                             races, not simulation output). *)
                          ("sched_metrics", Obs.Pool_stats.to_json st);
                        ])
                    (List.sort (fun (a, _) (b, _) -> compare (a : int) b)
                       !utilization)) );
             ( "phase_seconds",
               Engine.Json.Obj
                 [
                   ("des", Engine.Json.Float sim_s);
                   ("page_table", Engine.Json.Float pt_s);
                   ("suite", Engine.Json.Float suite_phase_s);
                   ("obs", Engine.Json.Float obs_phase_s);
                 ] );
             ("outputs_identical", Engine.Json.Bool true);
           ]))
    ^ "\n"
  in
  if not (Sys.file_exists results_dir) then Sys.mkdir results_dir 0o755;
  let paths =
    if smoke then [ Filename.concat results_dir "perf-smoke.json" ]
    else [ Filename.concat results_dir "latest-perf.json" ]
  in
  List.iter
    (fun path ->
      write_file path doc;
      (* Round-trip through the parser so a schema-level mistake fails
         here, not in a later consumer. *)
      (match Engine.Json.of_string (Engine.Atomic_file.read path) with
      | Ok _ -> ()
      | Error e ->
          Printf.eprintf "%s does not parse back: %s\n" path e;
          exit 1);
      Printf.printf "wrote %s\n" path)
    paths;
  (* Tagged history before the gates: a run that fails its own bar
     still lands in the trajectory, which is exactly when the record
     is most interesting. *)
  record_history ~target:(if smoke then "perf-smoke" else "perf") ~tag doc;
  if smoke && Domain.recommended_domain_count () >= 2 && j2_s > seq_s then begin
    Printf.eprintf
      "perf --smoke: -j 2 (%.2fs) slower than sequential (%.2fs) — the\n\
       parallel engine is regressing; see docs/PERFORMANCE.md\n"
      j2_s seq_s;
    exit 1
  end;
  let cores = Domain.recommended_domain_count () in
  (match (smoke && cores >= 4, Hashtbl.find_opt best 4) with
  | true, Some (_, j4_s) when seq_s /. j4_s < 1.25 ->
      Printf.eprintf
        "perf --smoke: -j 4 speedup %.2fx below the 1.25x bar (sequential\n\
         %.2fs, -j 4 %.2fs) — work stealing is regressing; see\n\
         docs/PARALLELISM.md\n"
        (seq_s /. j4_s) seq_s j4_s;
      exit 1
  | _ -> ());
  if smoke && null_pct > 2.0 then begin
    Printf.eprintf
      "perf --smoke: Null-sink overhead %.2f%% exceeds 2%% — the disabled\n\
       observability hooks are no longer free; see docs/OBSERVABILITY.md\n"
      null_pct;
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* SCALE: the weak-scaling record past the paper's 2,048 nodes        *)

(* The ROADMAP's north star made measurable: at each node count the
   suite subset (weak-scaling apps, one run) is timed end to end, the
   event-driven tier is run once through the serial heap and once
   sharded (Cluster_des.sharded_allreduce_loop), and the two results
   are compared byte for byte.  The DES measurement uses the noisy
   mOS profile so fast-forward never engages and the event count is
   the honest serial event count — the sharded/serial wall-clock
   ratio is then a pure parallel-protocol number.  Everything lands
   in bench/results/latest-scale.json plus the repo-root
   BENCH_scale.json so the trajectory is tracked across PRs.

   The smoke variant is the CI gate: small node counts, byte-identity
   at several shard counts, and — on machines with at least four
   cores — a fast-forward speedup gate on the silent profile (many
   iterations, so the closed-form skip dominates; same one-retry
   policy as the perf gates). *)

let scale_window = 2 * Engine.Units.ms

let scale_des ?pool ?fast_forward ~shards ~nodes ~iterations ~profile () =
  let fabric = Fabric.Fabric.make ~nodes () in
  Cluster.Cluster_des.sharded_allreduce_loop ?pool ?fast_forward ~shards ~nodes
    ~ranks_per_node:64 ~threads_per_rank:1 ~window:scale_window ~iterations
    ~bytes:8 ~profile ~fabric ~seed:42 ()

let scale_serial ~nodes ~iterations ~profile =
  let fabric = Fabric.Fabric.make ~nodes () in
  Cluster.Cluster_des.allreduce_loop ~nodes ~ranks_per_node:64
    ~threads_per_rank:1 ~window:scale_window ~iterations ~bytes:8 ~profile
    ~fabric ~seed:42

let scale ?tag ~smoke () =
  section
    (if smoke then "SCALE (smoke) — sharded-DES gate"
     else "SCALE — weak scaling to 131,072 nodes");
  let tag = match tag with Some t -> t | None -> default_tag () in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  in
  let cores = Domain.recommended_domain_count () in
  let shards = max 2 (min 8 cores) in
  let pool = Engine.Pool.create ~num_domains:shards () in
  Fun.protect ~finally:(fun () -> Engine.Pool.shutdown pool) @@ fun () ->
  let node_counts =
    if smoke then [ 256; 1024 ] else [ 2048; 8192; 32768; 131072 ]
  in
  let iterations = 10 in
  let identical = ref true in
  let points =
    List.map
      (fun nodes ->
        (* Suite subset at this scale: the paper-reproduction figures
           the 2,048-node point must keep matching. *)
        let apps = [ app_exn "hpcg"; app_exn "minife" ] in
        let suite, suite_s =
          timed (fun () ->
              Cluster.Experiment.suite ~pool ~apps ~node_counts:[ nodes ]
                ~runs:1 ~seed:42 ())
        in
        let headline =
          Engine.Json.Obj
            (List.map
               (fun (label, median, best) ->
                 ( label,
                   Engine.Json.Obj
                     [
                       ("median_improvement", Engine.Json.Float median);
                       ("best_improvement", Engine.Json.Float best);
                     ] ))
               (Cluster.Report.suite_headline suite))
        in
        (* DES serial vs sharded, noisy profile: no fast-forward, so
           the shard event total is the serial event count too. *)
        let profile = Noise.Profile.mos_lwk in
        let serial, serial_s =
          timed (fun () -> scale_serial ~nodes ~iterations ~profile)
        in
        let (sharded, stats), sharded_s =
          timed (fun () ->
              scale_des ~pool ~shards ~nodes ~iterations ~profile ())
        in
        let ok = serial = sharded in
        if not ok then identical := false;
        let events = stats.Cluster.Cluster_des.shard_events in
        Printf.printf
          "%7d nodes: suite %6.2fs; DES %d events, serial %6.2fs (%.2fM ev/s), \
           %d shards %6.2fs (%.2fM ev/s), %s\n%!"
          nodes suite_s events serial_s
          (float_of_int events /. serial_s /. 1e6)
          shards sharded_s
          (float_of_int events /. sharded_s /. 1e6)
          (if ok then "identical" else "DIVERGED");
        Engine.Json.Obj
          [
            ("nodes", Engine.Json.Int nodes);
            ("suite_seconds", Engine.Json.Float suite_s);
            ("headline", headline);
            ( "des",
              Engine.Json.Obj
                [
                  ("profile", Engine.Json.String profile.Noise.Profile.name);
                  ("iterations", Engine.Json.Int iterations);
                  ("events", Engine.Json.Int events);
                  ("serial_seconds", Engine.Json.Float serial_s);
                  ("sharded_seconds", Engine.Json.Float sharded_s);
                  ( "speedup",
                    Engine.Json.Float
                      (if sharded_s > 0.0 then serial_s /. sharded_s else 0.0)
                  );
                  ( "cross_messages",
                    Engine.Json.Int stats.Cluster.Cluster_des.cross_messages );
                  ( "null_messages",
                    Engine.Json.Int stats.Cluster.Cluster_des.null_messages );
                  ("epochs", Engine.Json.Int stats.Cluster.Cluster_des.epochs);
                  ("identical", Engine.Json.Bool ok);
                ] );
          ])
      node_counts
  in
  (* Byte-identity across shard counts on the smallest configuration:
     the qcheck invariant, re-asserted against the installed binary. *)
  let id_nodes = List.hd node_counts in
  List.iter
    (fun sh ->
      let serial =
        scale_serial ~nodes:id_nodes ~iterations ~profile:Noise.Profile.mos_lwk
      in
      let sharded, _ =
        scale_des ~pool ~shards:sh ~nodes:id_nodes ~iterations
          ~profile:Noise.Profile.mos_lwk ()
      in
      if serial <> sharded then begin
        Printf.eprintf
          "scale: %d-shard DES diverged from the serial heap at %d nodes\n"
          sh id_nodes;
        identical := false
      end)
    [ 1; 2; 4; 8 ];
  (* Fast-forward speedup gate (smoke, >= 4 cores): on a silent
     profile with many iterations the closed-form skip must dominate
     the serial replay.  One retry, like the perf gates. *)
  let ff_gate () =
    let ff_nodes = 2048 and ff_iters = 200 in
    let _, serial_s =
      timed (fun () ->
          scale_serial ~nodes:ff_nodes ~iterations:ff_iters
            ~profile:Noise.Profile.silent)
    in
    let (_, stats), ff_s =
      timed (fun () ->
          scale_des ~pool ~shards ~nodes:ff_nodes ~iterations:ff_iters
            ~profile:Noise.Profile.silent ())
    in
    (serial_s, ff_s, stats.Cluster.Cluster_des.fast_forwarded)
  in
  let ff_json =
    if not (smoke && cores >= 4) then []
    else begin
      let serial_s, ff_s, skipped =
        let (s1, f1, sk) = ff_gate () in
        if s1 /. f1 >= 1.25 then (s1, f1, sk) else ff_gate ()
      in
      Printf.printf
        "fast-forward: serial %.2fs vs sharded+ff %.2fs (%.1fx, %d iterations \
         skipped)\n%!"
        serial_s ff_s (serial_s /. ff_s) skipped;
      if serial_s /. ff_s < 1.25 then begin
        Printf.eprintf
          "scale --smoke: fast-forward speedup %.2fx below the 1.25x bar \
           (serial %.2fs, sharded+ff %.2fs) — see docs/SHARDING.md\n"
          (serial_s /. ff_s) serial_s ff_s;
        exit 1
      end;
      [
        ( "fast_forward",
          Engine.Json.Obj
            [
              ("serial_seconds", Engine.Json.Float serial_s);
              ("sharded_seconds", Engine.Json.Float ff_s);
              ("speedup", Engine.Json.Float (serial_s /. ff_s));
              ("iterations_skipped", Engine.Json.Int skipped);
            ] );
      ]
    end
  in
  let doc =
    Engine.Json.to_string_pretty
      (Engine.Json.Obj
         ([
            ("schema", Engine.Json.String "multikernel-scale/1");
            ("tag", Engine.Json.String tag);
          ]
         @ [
             ("smoke", Engine.Json.Bool smoke);
             ("shards", Engine.Json.Int shards);
             ("points", Engine.Json.List points);
             ("identical", Engine.Json.Bool !identical);
           ]
         @ ff_json))
    ^ "\n"
  in
  if not (Sys.file_exists results_dir) then Sys.mkdir results_dir 0o755;
  let paths =
    (* BENCH_scale.json — the repo-root trajectory headline — is
       refreshed by every run, smoke included, so a CI pass always
       leaves a non-empty bench record behind (the "smoke" field in
       the document says which kind of run produced it). *)
    if smoke then
      [ Filename.concat results_dir "scale-smoke.json"; "BENCH_scale.json" ]
    else [ Filename.concat results_dir "latest-scale.json"; "BENCH_scale.json" ]
  in
  List.iter
    (fun path ->
      write_file path doc;
      Printf.printf "wrote %s\n" path)
    paths;
  record_history ~target:(if smoke then "scale-smoke" else "scale") ~tag doc;
  if not !identical then begin
    Printf.eprintf
      "scale: sharded DES diverged from the serial heap — the conservative \
       protocol is broken; see docs/SHARDING.md\n";
    exit 1
  end

(* The CI parse gate: a results file on disk must always be complete,
   valid JSON — the atomic writer makes a torn file impossible, this
   catches manual edits and schema-level corruption.  Every snapshot
   under bench/results/ is checked, dated ones included; the directory
   listing is sorted so the report order never depends on readdir. *)
let check_results () =
  let check path =
    match Engine.Atomic_file.read_json path with
    | _ -> Printf.printf "%s parses\n" path
    | exception Engine.Atomic_file.Corrupt { path; reason } ->
        (* [reason] carries the parser's byte offset. *)
        Printf.eprintf "%s is corrupt: %s\n" path reason;
        exit 1
  in
  if not (Sys.file_exists results_dir) then
    Printf.printf "%s absent (run the results/faults target first)\n"
      results_dir
  else
    let files =
      Sys.readdir results_dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".json")
      |> List.sort compare
    in
    if files = [] then
      Printf.printf "%s has no JSON snapshots (run the results target first)\n"
        results_dir
    else List.iter (fun f -> check (Filename.concat results_dir f)) files

(* check-json PATH: the same parse gate pointed at one explicit file —
   ci.sh runs it over the trace-smoke exports, and it works on any
   JSON artifact (a simos --trace output, a tagged results file). *)
let check_json path =
  match Engine.Atomic_file.read_json path with
  | _ -> Printf.printf "%s parses\n" path
  | exception Engine.Atomic_file.Corrupt { path; reason } ->
      Printf.eprintf "%s is corrupt: %s\n" path reason;
      exit 1

let targets =
  [
    ("fig4", fig4); ("fig5a", fig5a); ("fig5b", fig5b); ("fig6a", fig6a);
    ("fig6b", fig6b); ("table1", table1); ("brk", brk); ("ltp", ltp);
    ("opts", opts); ("headline", headline); ("micro", micro);
    ("tools", tools); ("isolation", isolation); ("modes", modes); ("csv", csv);
    ("json", json); ("sensitivity", sensitivity); ("faults", faults);
  ]

let () =
  match Array.to_list Sys.argv with
  | [ _ ] -> List.iter (fun (_, f) -> f ()) targets
  | _ :: "results" :: rest -> (
      match rest with
      | [] -> results ()
      | [ tag ] -> results ~tag ()
      | [ tag; jobs ] -> (
          match int_of_string_opt jobs with
          | Some j -> results ~tag ~jobs:j ()
          | None ->
              Printf.eprintf
                "results: jobs must be an integer, got %s\n\
                 usage: main.exe results [tag] [jobs]\n"
                jobs;
              exit 1)
      | _ ->
          Printf.eprintf "usage: main.exe results [tag] [jobs]\n";
          exit 1)
  | _ :: "perf" :: rest -> (
      match rest with
      | [] -> perf ~smoke:false ()
      | [ "--smoke" ] -> perf ~smoke:true ()
      | [ tag ] -> perf ~tag ~smoke:false ()
      | _ ->
          Printf.eprintf "usage: main.exe perf [--smoke | tag]\n";
          exit 1)
  | _ :: "scale" :: rest -> (
      match rest with
      | [] -> scale ~smoke:false ()
      | [ "--smoke" ] -> scale ~smoke:true ()
      | [ tag ] -> scale ~tag ~smoke:false ()
      | _ ->
          Printf.eprintf "usage: main.exe scale [--smoke | tag]\n";
          exit 1)
  | [ _; "check-results" ] -> check_results ()
  | [ _; "check-json"; path ] -> check_json path
  | _ :: "history" :: rest -> (
      match rest with
      | [] -> history ()
      | [ t ] -> history ~target:t ()
      | _ ->
          Printf.eprintf "usage: main.exe history [target]\n";
          exit 1)
  | [ _; "diff-selftest" ] -> diff_selftest ()
  | _ :: "diff" :: rest ->
      let threshold = ref 50.0 in
      let smoke = ref false in
      let against = ref false in
      let refs = ref [] in
      let usage () =
        Printf.eprintf
          "usage: main.exe diff A B [--threshold PCT]\n\
          \       main.exe diff --against latest [--smoke] [--threshold PCT]\n";
        exit 1
      in
      let rec parse = function
        | [] -> ()
        | "--threshold" :: v :: rest -> (
            match float_of_string_opt v with
            | Some f when f >= 0.0 ->
                threshold := f;
                parse rest
            | _ ->
                Printf.eprintf "diff: --threshold wants a percentage, got %s\n"
                  v;
                exit 1)
        | "--smoke" :: rest ->
            smoke := true;
            parse rest
        | "--against" :: "latest" :: rest ->
            against := true;
            parse rest
        | arg :: rest when String.length arg > 0 && arg.[0] <> '-' ->
            refs := arg :: !refs;
            parse rest
        | _ -> usage ()
      in
      parse rest;
      (match (!against, List.rev !refs) with
      | true, [] -> diff_against_latest ~smoke:!smoke ~threshold:!threshold
      | false, [ a; b ] ->
          if
            diff_files ~threshold:!threshold (resolve_snapshot a)
              (resolve_snapshot b)
            > 0
          then exit 1
      | _ -> usage ())
  | [ _; name ] -> (
      match List.assoc_opt name targets with
      | Some f -> f ()
      | None ->
          Printf.eprintf
            "unknown target %s; available: %s results perf scale history diff \
             diff-selftest check-json\n"
            name
            (String.concat " " (List.map fst targets));
          exit 1)
  | _ ->
      Printf.eprintf
        "usage: main.exe [target | results [tag] [jobs] | perf [--smoke|tag] \
         | scale [--smoke|tag] | history [target] | diff ...]\n";
      exit 1
