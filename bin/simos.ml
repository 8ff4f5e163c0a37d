(* simos — command-line driver for the multi-kernel simulator.

   Examples:
     simos run --app minife --os mckernel --nodes 1024
     simos sweep --app ccs-qcd -j 4
     simos suite -j 0 --runs 5
     simos ltp
     simos node --os mos
     simos apps *)

open Cmdliner
open Multikernel

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                    *)

let app_arg =
  let doc = "Application model (amg, ccs-qcd, geofem, hpcg, lammps, milc, minife, lulesh)." in
  Arg.(required & opt (some string) None & info [ "app"; "a" ] ~docv:"APP" ~doc)

let os_arg =
  let doc = "Operating system (linux, mckernel, mos)." in
  Arg.(value & opt string "mckernel" & info [ "os"; "o" ] ~docv:"OS" ~doc)

let nodes_arg =
  let doc = "Number of compute nodes." in
  Arg.(value & opt int 16 & info [ "nodes"; "n" ] ~docv:"N" ~doc)

let seed_arg =
  let doc = "Simulation seed (same seed, same result)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc)

let runs_arg =
  let doc = "Repetitions for median/min/max (the paper uses 5)." in
  Arg.(value & opt int Cluster.Experiment.default_runs & info [ "runs" ] ~docv:"R" ~doc)

let jobs_arg =
  let doc =
    "Parallel simulation jobs: fan independent runs out across $(docv) domains. \
     1 (the default) is fully sequential; 0 means all cores. Output is \
     bit-identical for every value of $(docv)."
  in
  Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc)

(* Parallelism is configured process-wide so every Experiment call in
   the command picks it up without threading a pool through. *)
let set_jobs jobs = Engine.Pool.set_default_jobs jobs

(* Validation lives in Cluster.Validate so the one-line messages are
   unit-tested; here we only map [Error msg] onto cmdliner's clean
   exit path. *)
let ( let* ) r f =
  match r with Ok v -> f v | Error m -> `Error (false, m)

(* ------------------------------------------------------------------ *)
(* Observability plumbing (--trace / --metrics)                        *)

let trace_path_arg =
  let doc =
    "Write a Perfetto-loadable Chrome trace (JSON) of every simulated run to \
     $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"PATH" ~doc)

let metrics_arg =
  let doc = "Print the collected metrics after the run." in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let make_obs ~trace_path ~metrics =
  if trace_path = None && not metrics then None
  else Some (Obs.Collect.create ~trace:(trace_path <> None) ())

let write_trace path c =
  Engine.Atomic_file.write path
    (Engine.Json.to_string_pretty (Obs.Collect.trace_json c) ^ "\n");
  Printf.printf "trace: %s (%d events from %d runs)\n" path
    (List.length (Obs.Collect.events c))
    (Obs.Collect.runs c)

let print_metrics c =
  print_string (Cluster.Report.mechanism_table c);
  print_newline ();
  print_string (Cluster.Report.metrics_table c)

(* [print_tables] is false when stdout carries a machine format
   (JSON/CSV) that must stay parseable. *)
let flush_obs ~trace_path ~print_tables obs =
  match obs with
  | None -> ()
  | Some c ->
      if print_tables then print_metrics c;
      Option.iter (fun path -> write_trace path c) trace_path

(* ------------------------------------------------------------------ *)
(* Progress heartbeat                                                  *)

(* The wall clock here only paces the redraws of a cosmetic stderr
   line; it never reaches simulated time or any recorded output.
   mklint: allow R1 — display pacing for the TTY heartbeat only. *)
let wall_clock () = Unix.gettimeofday ()

(* A single carriage-return-rewritten progress line for long suite
   runs.  Only when stderr is a TTY: CI logs and redirected output see
   nothing, so recorded bytes stay identical.
   The callback runs on pool worker domains, hence the mutex. *)
let heartbeat label =
  if not (Unix.isatty Unix.stderr) then None
  else
    let start = wall_clock () in
    let last = ref 0.0 in
    let m = Mutex.create () in
    Some
      (fun ~completed ~total ->
        Mutex.protect m (fun () ->
            let now = wall_clock () in
            if now -. !last >= 0.2 || completed = total then begin
              last := now;
              let dt = now -. start in
              let rate =
                if dt > 0.0 then float_of_int completed /. dt else 0.0
              in
              Printf.eprintf "\r%s: %d/%d cells (%.1f cells/s)   %!" label
                completed total rate
            end))

let finish_heartbeat = function None -> () | Some _ -> prerr_newline ()

(* ------------------------------------------------------------------ *)
(* simos run                                                           *)

let run_cmd =
  let action app os nodes seed jobs trace_path metrics =
    let* app = Cluster.Validate.app app in
    let* scenario = Cluster.Validate.scenario os in
    let* nodes = Cluster.Validate.nodes nodes in
    let* jobs = Cluster.Validate.jobs jobs in
    set_jobs jobs;
    let obs = make_obs ~trace_path ~metrics in
    let r =
      match obs with
      | None -> Cluster.Driver.run ~scenario ~app ~nodes ~seed ()
      | Some c ->
          let rcd =
            Obs.Recorder.make ~trace:(Obs.Collect.trace_enabled c)
              ~label:scenario.Cluster.Scenario.label ~nodes ~seed ()
          in
          let r = Cluster.Driver.run ~obs:rcd ~scenario ~app ~nodes ~seed () in
          Obs.Collect.add c (Obs.Recorder.snapshot rcd);
          r
    in
    Format.printf "%s on %s, %d node(s):@." app.Apps.App.name
      scenario.Cluster.Scenario.label nodes;
    Format.printf "  %a@." Cluster.Driver.pp_result r;
    Format.printf "  figure of merit: %.5g %s@." r.Cluster.Driver.fom
      app.Apps.App.fom_unit;
    flush_obs ~trace_path ~print_tables:metrics obs;
    `Ok ()
  in
  let doc = "Run one application under one OS at one scale." in
  Cmd.v
    (Cmd.info "run" ~doc)
    Term.(
      ret
        (const action $ app_arg $ os_arg $ nodes_arg $ seed_arg $ jobs_arg
       $ trace_path_arg $ metrics_arg))

(* ------------------------------------------------------------------ *)
(* simos sweep                                                         *)

let format_arg =
  let doc = "Output format: table, csv or json." in
  Arg.(
    value
    & opt (enum [ ("table", `Table); ("csv", `Csv); ("json", `Json) ]) `Table
    & info [ "format"; "f" ] ~docv:"FORMAT" ~doc)

let sweep_cmd =
  let action app runs seed format jobs =
    let* app = Cluster.Validate.app app in
    let* runs = Cluster.Validate.runs runs in
    let* jobs = Cluster.Validate.jobs jobs in
    set_jobs jobs;
    let series =
      Cluster.Experiment.compare_scenarios ~scenarios:Cluster.Scenario.trio
        ~app ~runs ~seed ()
    in
    (match format with
    | `Csv -> print_string (Cluster.Report.csv ~app series)
    | `Json ->
        print_endline
          (Engine.Json.to_string_pretty (Cluster.Report.json ~app series))
    | `Table ->
        print_string (Cluster.Report.fom_table ~app series);
        let baseline =
          List.find
            (fun (s : Cluster.Experiment.series) ->
              s.Cluster.Experiment.scenario_label = "Linux")
            series
        in
        print_string (Cluster.Report.relative_table ~app ~baseline series);
        print_string (Cluster.Report.relative_chart ~app ~baseline series));
    `Ok ()
  in
  let doc = "Sweep one application over its node counts under all three kernels." in
  Cmd.v (Cmd.info "sweep" ~doc)
    Term.(
      ret
        (const action $ app_arg $ runs_arg $ seed_arg $ format_arg $ jobs_arg))

(* ------------------------------------------------------------------ *)
(* simos suite                                                         *)

let suite_nodes_arg =
  let doc =
    "Override every application's node counts with the single scale $(docv) \
     — the weak-scaling headline runs, e.g. --nodes 131072."
  in
  Arg.(value & opt (some int) None & info [ "nodes"; "n" ] ~docv:"N" ~doc)

let des_shards_arg =
  let doc =
    "After the suite, cross-check the sharded event-driven tier against the \
     serial heap at $(docv) shard(s) (0 = one per core) for every scenario, \
     and exit non-zero on any divergence."
  in
  Arg.(value & opt (some int) None & info [ "des-shards" ] ~docv:"S" ~doc)

let suite_cmd =
  let action runs seed format jobs nodes des_shards trace_path metrics =
    let* runs = Cluster.Validate.runs runs in
    let* jobs = Cluster.Validate.jobs jobs in
    let* node_counts =
      match nodes with
      | None -> Ok None
      | Some n -> (
          match Cluster.Validate.nodes n with
          | Ok n -> Ok (Some [ n ])
          | Error e -> Error e)
    in
    let* des_shards =
      match des_shards with
      | None -> Ok None
      | Some s -> (
          match Cluster.Validate.des_shards s with
          | Ok 0 -> Ok (Some (Domain.recommended_domain_count ()))
          | Ok s -> Ok (Some s)
          | Error e -> Error e)
    in
    set_jobs jobs;
    let obs = make_obs ~trace_path ~metrics in
    let progress = heartbeat "suite" in
    let suite =
      Cluster.Experiment.suite ?obs ?progress ?node_counts ~runs ~seed ()
    in
    finish_heartbeat progress;
    (match format with
    | `Table ->
        Printf.printf
          "suite: %d applications x {McKernel, mOS, Linux}, median of %d runs\n\n"
          (List.length suite) runs;
        print_string (Cluster.Report.suite_table suite)
    | `Csv ->
        List.iter
          (fun (app, series) -> print_string (Cluster.Report.csv ~app series))
          suite
    | `Json ->
        (* --metrics folds into the JSON document itself; stdout must
           stay a single parseable value. *)
        print_endline
          (Engine.Json.to_string_pretty
             (Cluster.Report.suite_json ~runs ~seed ?obs suite)));
    flush_obs ~trace_path ~print_tables:(metrics && format = `Table) obs;
    (* The --des-shards tier reruns the event-driven cross-validation
       sharded and serial; its table goes to stderr when stdout holds a
       machine format. *)
    let divergences =
      match des_shards with
      | None -> 0
      | Some shards ->
          let des_nodes = Option.value nodes ~default:1024 in
          let checks =
            Cluster.Experiment.des_checks ~nodes:des_nodes ~shards ~seed ()
          in
          let table = Cluster.Report.des_table checks in
          if format = `Table then print_string table else prerr_string table;
          List.length
            (List.filter
               (fun c -> not (Cluster.Experiment.des_identical c))
               checks)
    in
    if divergences > 0 then
      `Error
        ( false,
          Printf.sprintf
            "%d sharded-DES divergence(s): the parallel simulation does not \
             match the serial heap"
            divergences )
    else `Ok ()
  in
  let doc =
    "Run the paper's full evaluation — every application under all three \
     kernels at its own node counts — and report the median/best improvement \
     statistics.  Use --jobs to fan the sweep out across cores, --nodes to \
     force one (large) scale, and --des-shards to cross-check the sharded \
     event-driven tier against the serial heap."
  in
  Cmd.v (Cmd.info "suite" ~doc)
    Term.(
      ret
        (const action $ runs_arg $ seed_arg $ format_arg $ jobs_arg
       $ suite_nodes_arg $ des_shards_arg $ trace_path_arg $ metrics_arg))

(* ------------------------------------------------------------------ *)
(* simos ltp                                                           *)

let ltp_cmd =
  let action () =
    List.iter
      (fun k ->
        let s = Compat.Ltp.run_all k in
        Printf.printf "%-9s %4d failed / %d\n" (Compat.Ltp.kernel_to_string k)
          s.Compat.Ltp.failed s.Compat.Ltp.total;
        List.iter
          (fun (cause, n) -> Printf.printf "    %-24s %d\n" cause n)
          (Compat.Ltp.failures_by_cause s))
      [ Compat.Ltp.Linux_k; Compat.Ltp.Mckernel_k; Compat.Ltp.Mos_k ]
  in
  let doc = "Run the LTP-like compatibility corpus against all three kernels." in
  Cmd.v (Cmd.info "ltp" ~doc) Term.(const action $ const ())

(* ------------------------------------------------------------------ *)
(* simos node                                                          *)

let node_cmd =
  let action os =
    let* scenario = Cluster.Validate.scenario os in
    let k = scenario.Cluster.Scenario.make () in
        Format.printf "%s (%s)@." k.Kernel.Os.name
          (Kernel.Os.kind_to_string k.Kernel.Os.kind);
        Format.printf "  cores: %d app / %d OS, %d hw threads per core@."
          (List.length k.Kernel.Os.app_cores)
          (List.length k.Kernel.Os.os_cores)
          (Hw.Topology.threads_per_core k.Kernel.Os.topo);
        let numa = Hw.Topology.numa k.Kernel.Os.topo in
        List.iter
          (fun (d : Hw.Numa.domain) ->
            Format.printf "  numa %d: %s %a free %a@." d.Hw.Numa.id
              (Hw.Memory_kind.to_string d.Hw.Numa.kind)
              Engine.Units.pp_size d.Hw.Numa.capacity Engine.Units.pp_size
              (Mem.Phys.free_bytes k.Kernel.Os.phys ~domain:d.Hw.Numa.id))
          (Hw.Numa.domains numa);
        Format.printf "  noise profile: %s (%.4f%% mean overhead)@."
          k.Kernel.Os.app_noise.Noise.Profile.name
          (100.0 *. Noise.Profile.total_overhead k.Kernel.Os.app_noise);
        Format.printf "  largest contiguous MCDRAM block: %a@." Engine.Units.pp_size
          (Kernel.Os.largest_free_block k ~kind:Hw.Memory_kind.Mcdram);
        let locals, offloads, partials =
          List.fold_left
            (fun (l, o, p) s ->
              match k.Kernel.Os.disposition s with
              | Syscall.Disposition.Local -> (l + 1, o, p)
              | Syscall.Disposition.Offload -> (l, o + 1, p)
              | Syscall.Disposition.Partial _ -> (l, o, p + 1)
              | Syscall.Disposition.Unsupported -> (l, o, p))
            (0, 0, 0) Syscall.Sysno.all
        in
        Format.printf "  syscalls: %d local, %d offloaded, %d partial@." locals
          offloads partials;
        `Ok ()
  in
  let doc = "Describe a booted node under the given kernel." in
  Cmd.v (Cmd.info "node" ~doc) Term.(ret (const action $ os_arg))

(* ------------------------------------------------------------------ *)
(* simos apps                                                          *)

let apps_cmd =
  let action () =
    List.iter
      (fun (a : Apps.App.t) ->
        Printf.printf "%-10s %2d ranks x %d threads, %s scaling, %d iterations (%s)\n"
          a.Apps.App.name a.Apps.App.ranks_per_node a.Apps.App.threads_per_rank
          (match a.Apps.App.scaling with Apps.App.Weak -> "weak" | Apps.App.Strong -> "strong")
          a.Apps.App.iterations a.Apps.App.fom_unit)
      Apps.Registry.all
  in
  let doc = "List the application models." in
  Cmd.v (Cmd.info "apps" ~doc) Term.(const action $ const ())

let calibration_cmd =
  let action () = print_string (Cluster.Calibration.table ()) in
  let doc = "Print the calibration audit: every cost constant with provenance." in
  Cmd.v (Cmd.info "calibration" ~doc) Term.(const action $ const ())

(* ------------------------------------------------------------------ *)
(* simos faults                                                        *)

let plan_arg =
  let doc =
    "Fault-plan preset for a degradation table (node-crash, core-degrade, \
     link-degrade, link-flap, nic-stall, daemon-hang, proxy-crash, \
     thread-loss, mixed).  Without $(docv) the isolation demo runs instead."
  in
  Arg.(value & opt (some string) None & info [ "plan"; "p" ] ~docv:"PRESET" ~doc)

let fault_app_arg =
  let doc = "Application model for the degradation table." in
  Arg.(value & opt string "hpcg" & info [ "app"; "a" ] ~docv:"APP" ~doc)

let fault_nodes_arg =
  let doc = "Node count for the degradation table." in
  Arg.(value & opt int 64 & info [ "nodes"; "n" ] ~docv:"N" ~doc)

let rates_arg =
  let doc = "Comma-separated fault rates (expected events per node per run)." in
  Arg.(value & opt string "0.5,1,2" & info [ "rates" ] ~docv:"RATES" ~doc)

let fault_format_arg =
  let doc = "Output format: table or json." in
  Arg.(
    value
    & opt (enum [ ("table", `Table); ("json", `Json) ]) `Table
    & info [ "format"; "f" ] ~docv:"FORMAT" ~doc)

let faults_cmd =
  let action plan app nodes rates runs seed format jobs trace_path metrics =
    let* runs = Cluster.Validate.runs runs in
    let* jobs = Cluster.Validate.jobs jobs in
    set_jobs jobs;
    let obs = make_obs ~trace_path ~metrics in
    let flush () =
      flush_obs ~trace_path ~print_tables:(metrics && format = `Table) obs
    in
    match plan with
    | None ->
        let demo = Cluster.Degradation.isolation_demo ?obs ~runs ~seed () in
        (match format with
        | `Table -> print_string (Cluster.Degradation.render_demo demo)
        | `Json ->
            print_endline
              (Engine.Json.to_string_pretty
                 (Cluster.Degradation.demo_to_json demo)));
        flush ();
        `Ok ()
    | Some preset ->
        let* preset = Cluster.Validate.fault_preset preset in
        let* app = Cluster.Validate.app app in
        let* nodes = Cluster.Validate.nodes nodes in
        let* rates = Cluster.Validate.rates rates in
        let table =
          Cluster.Degradation.run ?obs ~app ~nodes ~preset ~rates ~runs ~seed ()
        in
        (match format with
        | `Table -> print_string (Cluster.Degradation.render table)
        | `Json ->
            print_endline
              (Engine.Json.to_string_pretty (Cluster.Degradation.to_json table)));
        flush ();
        `Ok ()
  in
  let doc =
    "Inject deterministic faults.  Without --plan, run the isolation demo: a \
     Linux daemon hang must hurt Linux but not the LWKs, and a McKernel \
     proxy crash must hurt syscall-heavy LAMMPS but not pure-compute MiniFE. \
     With --plan, print a degradation table for one application under \
     escalating fault rates across all three kernels."
  in
  Cmd.v (Cmd.info "faults" ~doc)
    Term.(
      ret
        (const action $ plan_arg $ fault_app_arg $ fault_nodes_arg $ rates_arg
       $ runs_arg $ seed_arg $ fault_format_arg $ jobs_arg $ trace_path_arg
       $ metrics_arg))

(* ------------------------------------------------------------------ *)
(* simos trace                                                         *)

let trace_nodes_arg =
  let doc = "Node count for the traced comparison." in
  Arg.(value & opt int 4 & info [ "nodes"; "n" ] ~docv:"N" ~doc)

let trace_out_arg =
  let doc = "Output path for the Perfetto trace JSON." in
  Arg.(value & opt string "trace.json" & info [ "out"; "o" ] ~docv:"PATH" ~doc)

let trace_cmd =
  let action app nodes runs seed jobs out metrics =
    let* app = Cluster.Validate.app app in
    let* nodes = Cluster.Validate.nodes nodes in
    let* runs = Cluster.Validate.runs runs in
    let* jobs = Cluster.Validate.jobs jobs in
    set_jobs jobs;
    let c = Obs.Collect.create ~trace:true () in
    let series =
      Cluster.Experiment.compare_scenarios ~obs:c
        ~scenarios:Cluster.Scenario.trio ~app ~node_counts:[ nodes ] ~runs
        ~seed ()
    in
    print_string (Cluster.Report.fom_table ~app series);
    if metrics then print_metrics c;
    write_trace out c;
    `Ok ()
  in
  let doc =
    "Trace one application under all three kernels at one node count and \
     write a Chrome trace-event JSON loadable in Perfetto (ui.perfetto.dev): \
     one process per (run, node), spans for setup / iterations / collective \
     phases on the simulated clock, instants for injected faults.  The file \
     is byte-identical for every --jobs value."
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(
      ret
        (const action $ app_arg $ trace_nodes_arg $ runs_arg $ seed_arg
       $ jobs_arg $ trace_out_arg $ metrics_arg))

(* ------------------------------------------------------------------ *)
(* simos profile                                                       *)

let profile_nodes_arg =
  let doc = "Number of compute nodes in the instrumented DES workload." in
  Arg.(value & opt int 1024 & info [ "nodes"; "n" ] ~docv:"N" ~doc)

let profile_shards_arg =
  let doc = "Shard count for the instrumented run (0 = one per core)." in
  Arg.(value & opt int 0 & info [ "shards" ] ~docv:"S" ~doc)

let bucket_us_arg =
  let doc = "Timeline bucket width, in simulated microseconds." in
  Arg.(value & opt int 1000 & info [ "bucket-us" ] ~docv:"US" ~doc)

let top_arg =
  let doc = "Rows in the hot-scenario attribution table." in
  Arg.(value & opt int 3 & info [ "top" ] ~docv:"K" ~doc)

let profile_out_arg =
  let doc =
    "Also write the profile document (JSON) to $(docv).  Byte-identical for \
     every --jobs value."
  in
  Arg.(value & opt (some string) None & info [ "output"; "o" ] ~docv:"PATH" ~doc)

let sched_arg =
  let doc =
    "Also print the live scheduler counters (steals, injector depth).  \
     Nondeterministic host-machine numbers — never part of the -o document."
  in
  Arg.(value & flag & info [ "sched" ] ~doc)

let profile_cmd =
  let action nodes shards seed jobs bucket_us k out sched =
    let* nodes = Cluster.Validate.nodes nodes in
    let* shards =
      match Cluster.Validate.des_shards shards with
      | Ok 0 -> Ok (Domain.recommended_domain_count ())
      | r -> r
    in
    let* jobs = Cluster.Validate.jobs jobs in
    let* bucket_us =
      if bucket_us > 0 then Ok bucket_us
      else Error "--bucket-us must be positive"
    in
    let* k = if k > 0 then Ok k else Error "--top must be positive" in
    let domains = if jobs = 0 then Domain.recommended_domain_count () else jobs in
    let pool = Engine.Pool.create ~num_domains:domains () in
    Fun.protect
      ~finally:(fun () -> Engine.Pool.shutdown pool)
      (fun () ->
        let rows =
          Cluster.Experiment.des_profiles ~pool
            ~bucket_ns:(bucket_us * Engine.Units.us) ~nodes ~shards ~seed ()
        in
        List.iter
          (fun (label, p) ->
            print_string (Cluster.Report.profile_timeline ~label p);
            print_newline ())
          rows;
        let tot = List.map (fun (l, p) -> (l, Obs.Profile.totals p)) rows in
        print_string
          (Cluster.Report.profile_hot ~shards (Obs.Profile.top ~k tot));
        Option.iter
          (fun path ->
            Engine.Atomic_file.write path
              (Engine.Json.to_string_pretty
                 (Cluster.Report.profile_json ~nodes ~shards ~seed rows)
              ^ "\n");
            Printf.printf "profile: %s\n" path)
          out;
        if sched then begin
          (* Live pool counters: host-machine races, printed only on
             request and kept out of the deterministic document. *)
          Printf.printf
            "\nscheduler (live, nondeterministic — excluded from -o):\n";
          Printf.printf "injector depth: %d\n"
            (Engine.Pool.injector_depth pool);
          print_endline
            (Engine.Json.to_string_pretty
               (Obs.Pool_stats.to_json (Engine.Pool.stats pool)))
        end;
        `Ok ())
  in
  let doc =
    "Profile the engine itself: run the sharded event-driven workload under \
     all three kernels with every conservative epoch sampled — per-bucket \
     event/null/stall timelines, horizon utilization, and hot-scenario \
     attribution.  The profile folds only protocol-determined shard samples, \
     so tables and -o output are byte-identical for every --jobs value; \
     --sched adds the live (nondeterministic) scheduler view."
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(
      ret
        (const action $ profile_nodes_arg $ profile_shards_arg $ seed_arg
       $ jobs_arg $ bucket_us_arg $ top_arg $ profile_out_arg $ sched_arg))

let () =
  let doc = "lightweight multi-kernel operating system simulator" in
  let info = Cmd.info "simos" ~version ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            run_cmd; sweep_cmd; suite_cmd; faults_cmd; trace_cmd; ltp_cmd;
            node_cmd; apps_cmd; calibration_cmd; profile_cmd;
          ]))
