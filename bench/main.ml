(* The paper harness: one target per table and figure of the paper,
   plus simulated microbenchmarks and ablations of the substrates.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe fig4       -- one artifact
     (targets: fig4 fig5a fig5b fig6a fig6b table1 brk ltp opts
               headline micro tools isolation modes csv json
               sensitivity)

   `check-json PATH` exits non-zero unless PATH parses as JSON.

   Every number printed here is simulated, so every target's output is
   a pure function of the code: no target reads the wall clock.  The
   simulator's own host cost is measured by perfbench/ (BENCHMARK.json).

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
(* MICRO: simulated substrate latencies and design-choice ablations   *)

let micro () =
  section "MICROBENCHMARKS & ABLATIONS";
  Printf.printf "\n-- calibration audit: every cost constant in play --\n\n";
  print_string (Cluster.Calibration.table ());
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

(* check-json PATH: a parse gate on one JSON file.  ci.sh runs it over
   mklint's SARIF export and the trace-smoke export; it works on any
   JSON artifact (a simos --trace output, a suite document). *)
let check_json path =
  match Engine.Atomic_file.read_json path with
  | _ -> Printf.printf "%s parses\n" path
  | exception Engine.Atomic_file.Corrupt { path; reason } ->
      (* [reason] carries the parser's byte offset. *)
      Printf.eprintf "%s is corrupt: %s\n" path reason;
      exit 1

let targets =
  [
    ("fig4", fig4); ("fig5a", fig5a); ("fig5b", fig5b); ("fig6a", fig6a);
    ("fig6b", fig6b); ("table1", table1); ("brk", brk); ("ltp", ltp);
    ("opts", opts); ("headline", headline); ("micro", micro);
    ("tools", tools); ("isolation", isolation); ("modes", modes); ("csv", csv);
    ("json", json); ("sensitivity", sensitivity);
  ]

let () =
  match Array.to_list Sys.argv with
  | [ _ ] -> List.iter (fun (_, f) -> f ()) targets
  | [ _; "check-json"; path ] -> check_json path
  | [ _; name ] -> (
      match List.assoc_opt name targets with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown target %s; available: %s check-json\n" name
            (String.concat " " (List.map fst targets));
          exit 1)
  | _ ->
      Printf.eprintf "usage: main.exe [target | check-json PATH]\n";
      exit 1
