(* Integration tests for the cluster driver: the paper's headline
   behaviours must emerge from the mechanisms.  These run real
   (small) experiments, so a few are marked `Slow. *)

open Mk_cluster

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let app name = Option.get (Mk_apps.Registry.find name)

let run ?(nodes = 4) ?(seed = 42) scenario name =
  Driver.run ~scenario ~app:(app name) ~nodes ~seed ()

let test_scenarios () =
  check_int "three scenarios" 3 (List.length Scenario.trio);
  check_bool "find linux" true (Scenario.find "linux" <> None);
  check_bool "find mckernel" true (Scenario.find "McKernel" <> None);
  check_bool "unknown none" true (Scenario.find "hurd" = None)

let test_run_basics () =
  let r = run Scenario.mckernel "hpcg" in
  check_int "nodes recorded" 4 r.Driver.nodes;
  check_bool "positive fom" true (r.Driver.fom > 0.0);
  check_bool "time decomposition" true
    (r.Driver.total_time = r.Driver.setup_time + r.Driver.solve_time);
  check_int "no failures" 0 r.Driver.failures

let test_determinism () =
  let a = run ~seed:7 Scenario.linux "amg" in
  let b = run ~seed:7 Scenario.linux "amg" in
  check_bool "same seed same fom" true (a.Driver.fom = b.Driver.fom)

let test_seed_sensitivity () =
  let a = run ~seed:7 Scenario.linux "amg" in
  let b = run ~seed:8 Scenario.linux "amg" in
  check_bool "different seeds differ" true (a.Driver.fom <> b.Driver.fom)

let test_lwks_silent_deterministic_iterations () =
  (* On a noise-free kernel the steady iteration has no jitter. *)
  let r1 = run ~seed:1 Scenario.mckernel "geofem" in
  let r2 = run ~seed:99 Scenario.mckernel "geofem" in
  check_int "steady identical across seeds" r1.Driver.steady_iteration
    r2.Driver.steady_iteration

let test_ccs_qcd_ordering () =
  (* The Figure-5a story: McKernel > mOS > Linux. *)
  let mck = run Scenario.mckernel "ccs-qcd" in
  let mos = run Scenario.mos "ccs-qcd" in
  let linux = run Scenario.linux "ccs-qcd" in
  check_bool "mckernel beats mos" true (mck.Driver.fom > mos.Driver.fom);
  check_bool "mos beats linux" true (mos.Driver.fom > linux.Driver.fom);
  check_bool "linux stuck in ddr" true (linux.Driver.mcdram_fraction < 0.05);
  check_bool "lwk spill fraction ~16/22" true
    (mck.Driver.mcdram_fraction > 0.6 && mck.Driver.mcdram_fraction < 0.85)

let test_linux_faults_lwk_prefaults () =
  let linux = run Scenario.linux "hpcg" in
  check_bool "linux demand faults" true (linux.Driver.faults > 0);
  (* The LWK prefaults everything except the shared-memory windows
     (which are first-touch by nature); with --mpol-shm-premap even
     those are populated upfront, leaving nothing to fault. *)
  let premapped =
    Driver.run
      ~scenario:
        (Scenario.mckernel_with
           { Mk_kernel.Os.default_options with Mk_kernel.Os.mpol_shm_premap = true }
           ~label:"mck-premap")
      ~app:(app "hpcg") ~nodes:4 ~seed:42 ()
  in
  check_int "premapped lwk never faults" 0 premapped.Driver.faults

let test_lammps_offloads () =
  let mck = run ~nodes:16 Scenario.mckernel "lammps" in
  let linux = run ~nodes:16 Scenario.linux "lammps" in
  check_bool "lwk offloads nic control" true (mck.Driver.offloads_per_iteration > 0);
  check_int "linux has none" 0 linux.Driver.offloads_per_iteration;
  check_bool "linux wins at scale" true (linux.Driver.fom > mck.Driver.fom)

let test_minife_collapse_at_scale () =
  (* The Figure-5b knee, in miniature: the Linux-to-LWK gap widens
     by scale even between 64 and 512 nodes. *)
  let gap nodes =
    let mck = run ~nodes Scenario.mckernel "minife" in
    let linux = run ~nodes Scenario.linux "minife" in
    mck.Driver.fom /. linux.Driver.fom
  in
  let small = gap 64 and large = gap 512 in
  check_bool "gap grows with scale" true (large > small);
  check_bool "meaningful collapse" true (large > 2.0)

let test_lulesh_brk_mechanism () =
  let mos = run ~nodes:8 Scenario.mos "lulesh" in
  let heap_off =
    Driver.run
      ~scenario:
        (Scenario.mos_with
           { Mk_kernel.Os.default_options with Mk_kernel.Os.heap_management = false }
           ~label:"mos-heap-off")
      ~app:(app "lulesh") ~nodes:8 ~seed:42 ()
  in
  check_bool "heap optimisation pays" true (mos.Driver.fom > heap_off.Driver.fom)

(* Minor words per node per sync point of a Linux MiniFE run at 1,024
   nodes with no recorder, the run's set-up included: 2.9.  The noise
   draw allocates nothing: its uniform crosses from [Rng] as an int.
   A boxed uniform adds 2 words per source (10.9 in all), and a
   closure per node, built for a recorder that is not there, 4. *)
let test_driver_node_sync_alloc_budget () =
  if Sys.backend_type <> Sys.Native then Alcotest.skip ();
  let nodes = 1024 and minife = app "minife" in
  let syncs =
    List.fold_left
      (fun acc -> function
        | Mk_apps.App.Allreduce { count; _ } -> acc + count
        | Mk_apps.App.Halo _ -> acc + 1
        | Mk_apps.App.Stream _ | Mk_apps.App.Cpu _ | Mk_apps.App.Yields _ -> acc)
      0 (minife.Mk_apps.App.iteration ~nodes)
  in
  let iterations =
    Int.max 2 (Int.min minife.Mk_apps.App.sim_iterations minife.Mk_apps.App.iterations)
  in
  ignore (run ~nodes Scenario.linux "minife");
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (run ~nodes Scenario.linux "minife"));
  let words =
    (Gc.minor_words () -. before) /. float_of_int (nodes * syncs * iterations)
  in
  if words > 4.0 then
    Alcotest.failf "%.2f words per node per sync point > 4" words

let test_experiment_point_statistics () =
  let p =
    Experiment.point ~scenario:Scenario.linux ~app:(app "amg") ~nodes:8 ~runs:5 ()
  in
  check_bool "ordered statistics" true
    (p.Experiment.min_fom <= p.Experiment.median_fom
    && p.Experiment.median_fom <= p.Experiment.max_fom);
  check_int "nodes carried" 8 p.Experiment.nodes

let test_relative_to () =
  let a = app "amg" in
  let counts = [ 1; 4 ] in
  let lin = Experiment.sweep ~scenario:Scenario.linux ~app:a ~node_counts:counts ~runs:3 () in
  let mck = Experiment.sweep ~scenario:Scenario.mckernel ~app:a ~node_counts:counts ~runs:3 () in
  let rel = Experiment.relative_to ~baseline:lin mck in
  check_int "two points" 2 (List.length rel);
  List.iter (fun (_, r) -> check_bool "lwk at or above" true (r > 0.9)) rel

let test_median_improvement () =
  let data = [ [ (1, 1.0); (2, 1.2) ]; [ (1, 1.1) ] ] in
  Alcotest.(check (float 1e-9)) "median" 1.1 (Experiment.median_improvement data);
  Alcotest.(check (float 1e-9)) "best" 1.2 (Experiment.best_improvement data)


let test_calibration_relations () =
  (* The relationships the results rest on, without freezing every
     number: MCDRAM is 4-6x DDR4; LWK switches are cheaper than CFS;
     offload wake-ups are microseconds. *)
  let ratio = Calibration.mcdram_ddr_ratio () in
  check_bool "mcdram/ddr ratio in band" true (ratio > 4.0 && ratio < 6.5);
  check_bool "every constant positive" true
    (List.for_all (fun r -> r.Calibration.value >= 0.0) Calibration.all);
  check_bool "lookup works" true (Calibration.find "fault-trap" <> None);
  check_bool "unknown is none" true (Calibration.find "warp-drive" = None);
  check_bool "table renders" true (String.length (Calibration.table ()) > 200)

let test_table1_ordering () =
  (* Table I in miniature: everyone in DDR4, heap ablation ordering. *)
  let lulesh = app "lulesh" in
  let ddr (s : Scenario.t) =
    {
      s with
      Scenario.make =
        (fun () ->
          let os = s.Scenario.make () in
          {
            os with
            Mk_kernel.Os.default_policy =
              (fun ~home -> Mk_mem.Policy.Ddr_only { home });
          });
    }
  in
  let fom s app = (Driver.run ~scenario:s ~app ~nodes:1 ~seed:42 ()).Driver.fom in
  let linux = fom (ddr Scenario.linux) { lulesh with Mk_apps.App.linux_ddr_only = true } in
  let heap_off =
    fom
      (ddr
         (Scenario.mos_with
            { Mk_kernel.Os.default_options with Mk_kernel.Os.heap_management = false }
            ~label:"off"))
      lulesh
  in
  let mos = fom (ddr Scenario.mos) lulesh in
  check_bool "mos > heap-off" true (mos > heap_off);
  check_bool "heap-off > linux" true (heap_off > linux);
  check_bool "mos within paper band (110-135% of linux)" true
    (mos /. linux > 1.10 && mos /. linux < 1.35)

let test_quadrant_mode_rescues_linux () =
  (* The MODES ablation: Linux in quadrant mode spills to MCDRAM. *)
  let a = { (app "ccs-qcd") with Mk_apps.App.linux_ddr_only = false } in
  let quadrant =
    {
      Scenario.label = "Linux-quadrant";
      make = (fun () -> Mk_kernel.Linux_os.create ~mode:Mk_hw.Knl.Quadrant_flat ());
    }
  in
  let snc4 = Driver.run ~scenario:Scenario.linux ~app:(app "ccs-qcd") ~nodes:4 ~seed:42 () in
  let quad = Driver.run ~scenario:quadrant ~app:a ~nodes:4 ~seed:42 () in
  check_bool "quadrant linux uses mcdram" true (quad.Driver.mcdram_fraction > 0.5);
  check_bool "quadrant linux faster" true (quad.Driver.fom > snc4.Driver.fom)

let test_isolation_property () =
  (* LWKs do not feel a co-located tenant; Linux does. *)
  let a = app "geofem" in
  let noisy (s : Scenario.t) =
    {
      s with
      Scenario.make =
        (fun () ->
          let os = s.Scenario.make () in
          if Mk_kernel.Os.is_lwk os then os
          else { os with Mk_kernel.Os.app_noise = Mk_noise.Profile.linux_cotenant });
    }
  in
  let fom s = (Driver.run ~scenario:s ~app:a ~nodes:16 ~seed:42 ()).Driver.fom in
  let mck = fom Scenario.mckernel and mck_shared = fom (noisy Scenario.mckernel) in
  let linux = fom Scenario.linux and linux_shared = fom (noisy Scenario.linux) in
  check_bool "lwk unaffected" true (mck_shared = mck);
  check_bool "linux degraded" true (linux_shared < linux *. 0.9)


(* ------------------------------------------------------------------ *)
(* Cross-validation: event-driven vs analytic cluster tier *)

let des_params ~nodes ~profile ~seed =
  let fabric = Mk_fabric.Fabric.make ~nodes () in
  let des =
    Cluster_des.allreduce_loop ~nodes ~ranks_per_node:64 ~threads_per_rank:1
      ~window:(2 * Mk_engine.Units.ms) ~iterations:10 ~bytes:8 ~profile ~fabric
      ~seed
  in
  let analytic =
    Cluster_des.analytic_allreduce_loop ~nodes ~ranks_per_node:64
      ~threads_per_rank:1 ~window:(2 * Mk_engine.Units.ms) ~iterations:10 ~bytes:8
      ~profile ~fabric ~seed
  in
  (des, analytic)

let test_des_matches_analytic_silent () =
  (* Same trees, same edge costs, zero noise: the event-driven and the
     max-plus formulations must agree exactly. *)
  List.iter
    (fun nodes ->
      let des, analytic = des_params ~nodes ~profile:Mk_noise.Profile.silent ~seed:1 in
      check_int
        (Printf.sprintf "exact at %d nodes" nodes)
        analytic des.Cluster_des.completion)
    [ 1; 2; 7; 16; 64; 100 ]

let test_des_matches_analytic_noisy () =
  (* With noise the two draw identical per-node samples (same split
     streams), so they still agree exactly on the composed time. *)
  let des, analytic =
    des_params ~nodes:32 ~profile:Mk_noise.Profile.linux_nohz_full ~seed:42
  in
  check_int "noisy agreement" analytic des.Cluster_des.completion

let test_des_message_count () =
  let des, _ = des_params ~nodes:16 ~profile:Mk_noise.Profile.silent ~seed:1 in
  (* Binomial reduce + broadcast over 16 nodes: 2*15 messages per
     iteration, 10 iterations. *)
  check_int "messages" (2 * 15 * 10) des.Cluster_des.messages

(* ------------------------------------------------------------------ *)
(* Sharded parallel DES: byte-identity with the single-heap run *)

let des_window = 2 * Mk_engine.Units.ms

let des_serial ~nodes ~profile ~seed ~iterations =
  let fabric = Mk_fabric.Fabric.make ~nodes () in
  Cluster_des.allreduce_loop ~nodes ~ranks_per_node:64 ~threads_per_rank:1
    ~window:des_window ~iterations ~bytes:8 ~profile ~fabric ~seed

let des_sharded ?pool ?fast_forward ~shards ~nodes ~profile ~seed ~iterations
    () =
  let fabric = Mk_fabric.Fabric.make ~nodes () in
  Cluster_des.sharded_allreduce_loop ?pool ?fast_forward ~shards ~nodes
    ~ranks_per_node:64 ~threads_per_rank:1 ~window:des_window ~iterations
    ~bytes:8 ~profile ~fabric ~seed ()

let check_des_result name (a : Cluster_des.result) (b : Cluster_des.result) =
  check_int (name ^ ": completion") a.Cluster_des.completion
    b.Cluster_des.completion;
  check_int (name ^ ": messages") a.Cluster_des.messages b.Cluster_des.messages

(* Minor words per marginal DES event, mOS at 1,024 nodes, 64 ranks a
   node: a 20-iteration run less a 10-iteration one, so the set-up
   both pay cancels out.  [run] returns the events a run fired. *)
let des_words_per_event run =
  ignore (run 10);
  let words iterations =
    let before = Gc.minor_words () in
    let events = Sys.opaque_identity (run iterations) in
    (Gc.minor_words () -. before, events)
  in
  let w10, e10 = words 10 in
  let w20, e20 = words 20 in
  (w20 -. w10) /. float_of_int (e20 - e10)

(* The serial loop's event is the node it lands on, and its handler is
   built once per run, so an event allocates nothing; a node's noise
   draw allocates nothing either.  A closure and a 3-word event record
   per event cost 11.7 words. *)
let test_des_serial_alloc_budget () =
  if Sys.backend_type <> Sys.Native then Alcotest.skip ();
  let nodes = 1024 in
  let per_event =
    des_words_per_event (fun iterations ->
        let r =
          des_serial ~nodes ~profile:Mk_noise.Profile.mos_lwk ~seed:42
            ~iterations
        in
        (nodes * iterations) + r.Cluster_des.messages)
  in
  if per_event > 1.0 then
    Alcotest.failf "%.2f words per DES event > 1" per_event

(* The sharded loop's events are node ids too, local or from a peer's
   mailbox; what is left is each iteration's [Shard.run] set-up, each
   cross-shard packet and each epoch's barrier (1.2 words per shard
   event).  A closure and an event record per event cost 13.6. *)
let test_des_sharded_alloc_budget () =
  if Sys.backend_type <> Sys.Native then Alcotest.skip ();
  let per_event =
    des_words_per_event (fun iterations ->
        let _, s =
          des_sharded ~shards:2 ~nodes:1024 ~profile:Mk_noise.Profile.mos_lwk
            ~seed:42 ~iterations ()
        in
        s.Cluster_des.shard_events)
  in
  if per_event > 4.0 then
    Alcotest.failf "%.2f words per shard event > 4" per_event

let test_des_sharded_identity () =
  (* 100 nodes span 5 fabric regions (24-node edge switches), so 2, 4
     and 8 shards all see real cross-shard traffic. *)
  List.iter
    (fun profile ->
      List.iter
        (fun nodes ->
          let serial = des_serial ~nodes ~profile ~seed:3 ~iterations:4 in
          List.iter
            (fun shards ->
              let sharded, _ =
                des_sharded ~shards ~nodes ~profile ~seed:3 ~iterations:4 ()
              in
              check_des_result
                (Printf.sprintf "%d nodes, %d shards" nodes shards)
                serial sharded)
            [ 1; 2; 4; 8 ])
        [ 1; 16; 60; 100 ])
    [ Mk_noise.Profile.silent; Mk_noise.Profile.linux_nohz_full ]

let test_des_sharded_every_scenario () =
  (* The acceptance bar: for every OS scenario in the suite, the
     sharded DES reproduces the single-heap DES bit for bit. *)
  List.iter
    (fun (sc : Scenario.t) ->
      let os = sc.Scenario.make () in
      let profile = os.Mk_kernel.Os.app_noise in
      let serial = des_serial ~nodes:100 ~profile ~seed:11 ~iterations:5 in
      List.iter
        (fun shards ->
          let sharded, _ =
            des_sharded ~shards ~nodes:100 ~profile ~seed:11 ~iterations:5 ()
          in
          check_des_result
            (Printf.sprintf "%s with %d shards" sc.Scenario.label shards)
            serial sharded)
        [ 2; 5 ])
    Scenario.trio

let test_des_sharded_crossings () =
  (* Sanity that the identity above is not vacuous: multi-region runs
     must actually exchange cross-shard messages and null promises. *)
  let _, s =
    des_sharded ~shards:4 ~nodes:100 ~profile:Mk_noise.Profile.silent ~seed:3
      ~fast_forward:false ~iterations:3 ()
  in
  check_bool "cross traffic" true (s.Cluster_des.cross_messages > 0);
  check_bool "null messages" true (s.Cluster_des.null_messages > 0);
  check_bool "events" true (s.Cluster_des.shard_events > 0);
  check_bool "epochs" true (s.Cluster_des.epochs > 0)

(* The sharded DES at 256 and 1,024 nodes (mos-lwk noise, 2 shards, no
   pool, seed 42): its result equals the serial heap's, and the
   conservative protocol's counts are a pure function of the
   parameters, so they are pinned exactly: a shorter lookahead shows
   up as more epochs and null messages. *)
let test_des_smoke_counts () =
  List.iter
    (fun (nodes, events, cross, nulls, epochs) ->
      let r, s =
        des_sharded ~shards:2 ~nodes ~profile:Mk_noise.Profile.mos_lwk
          ~seed:42 ~iterations:10 ()
      in
      let at what = Printf.sprintf "%s at %d nodes" what nodes in
      check_des_result (at "sharded vs serial")
        (des_serial ~nodes ~profile:Mk_noise.Profile.mos_lwk ~seed:42
           ~iterations:10)
        r;
      check_int (at "shard events") events s.Cluster_des.shard_events;
      check_int (at "cross messages") cross s.Cluster_des.cross_messages;
      check_int (at "null messages") nulls s.Cluster_des.null_messages;
      check_int (at "epochs") epochs s.Cluster_des.epochs)
    [ (256, 7_660, 300, 366, 261); (1024, 30_700, 1_260, 437, 387) ]

let test_des_fast_forward_equivalence () =
  (* Closed-form advancement must be unobservable in the result, and
     must actually engage: a silent 40-iteration run simulates only
     the first two iterations event by event. *)
  List.iter
    (fun nodes ->
      let replay, rs =
        des_sharded ~shards:4 ~nodes ~profile:Mk_noise.Profile.silent ~seed:5
          ~fast_forward:false ~iterations:40 ()
      in
      let ff, fs =
        des_sharded ~shards:4 ~nodes ~profile:Mk_noise.Profile.silent ~seed:5
          ~iterations:40 ()
      in
      check_des_result (Printf.sprintf "ff at %d nodes" nodes) replay ff;
      check_int
        (Printf.sprintf "38 of 40 iterations skipped at %d nodes" nodes)
        38 fs.Cluster_des.fast_forwarded;
      check_bool "fewer events" true
        (fs.Cluster_des.shard_events < rs.Cluster_des.shard_events);
      (* serial reference too, for completeness *)
      check_des_result "ff vs serial"
        (des_serial ~nodes ~profile:Mk_noise.Profile.silent ~seed:5
           ~iterations:40)
        ff)
    [ 30; 100 ];
  (* noise defeats the periodicity test, so nothing may be skipped *)
  let _, ns =
    des_sharded ~shards:4 ~nodes:30 ~profile:Mk_noise.Profile.linux_nohz_full
      ~seed:5 ~iterations:6 ()
  in
  check_int "no skip under noise" 0 ns.Cluster_des.fast_forwarded

let test_des_sharded_pool_identity () =
  (* Real cross-domain execution: results and the deterministic stats
     must match the in-process sequential sharded run exactly. *)
  let profile = Mk_noise.Profile.linux_nohz_full in
  let seq, seq_s =
    des_sharded ~shards:4 ~nodes:100 ~profile ~seed:9 ~iterations:4 ()
  in
  let pool = Mk_engine.Pool.create ~oversubscribe:true ~num_domains:4 () in
  let par, par_s =
    des_sharded ~pool ~shards:4 ~nodes:100 ~profile ~seed:9 ~iterations:4 ()
  in
  Mk_engine.Pool.shutdown pool;
  check_des_result "pool vs sequential" seq par;
  check_bool "stats identical" true (seq_s = par_s)

let des_shard_invariance_q =
  QCheck.Test.make ~name:"sharded DES = single-heap DES, any shard count"
    ~count:25
    QCheck.(
      triple (int_range 1 120) (int_range 0 1000) (int_range 1 3))
    (fun (nodes, seed, iterations) ->
      let profile =
        (* alternate profiles with the seed so both paths are covered *)
        if seed mod 2 = 0 then Mk_noise.Profile.silent
        else Mk_noise.Profile.mos_lwk
      in
      let serial = des_serial ~nodes ~profile ~seed ~iterations in
      List.for_all
        (fun shards ->
          let sharded, _ =
            des_sharded ~shards ~nodes ~profile ~seed ~iterations ()
          in
          sharded = serial)
        [ 1; 2; 4; 8 ])

let test_parallel_matches_sequential () =
  (* The determinism contract of docs/PARALLELISM.md: fanning a sweep
     out across domains must not change one byte of any rendering. *)
  let a = app "amg" in
  let counts = [ 1; 2 ] in
  let sweep ?pool () =
    Experiment.compare_scenarios ?pool ~scenarios:Scenario.trio ~app:a
      ~node_counts:counts ~runs:3 ()
  in
  let seq = sweep () in
  let pool = Mk_engine.Pool.create ~oversubscribe:true ~num_domains:3 () in
  let par = sweep ~pool () in
  Mk_engine.Pool.shutdown pool;
  Alcotest.(check string)
    "csv byte-identical" (Report.csv ~app:a seq) (Report.csv ~app:a par);
  Alcotest.(check string)
    "json byte-identical"
    (Mk_engine.Json.to_string (Report.json ~app:a seq))
    (Mk_engine.Json.to_string (Report.json ~app:a par));
  Alcotest.(check string)
    "table byte-identical"
    (Report.fom_table ~app:a seq)
    (Report.fom_table ~app:a par);
  (* The suite document under -j 2 (one worker beside the submitting
     domain): HPCG at 512-2,048 nodes is 18 tasks of 1-90 ms. *)
  let suite_doc ?pool () =
    Mk_engine.Json.to_string
      (Report.suite_json ~runs:2 ~seed:42
         (Experiment.suite ?pool ~apps:[ app "hpcg" ]
            ~node_counts:[ 512; 1024; 2048 ] ~runs:2 ~seed:42 ()))
  in
  let seq = suite_doc () in
  let pool = Mk_engine.Pool.create ~oversubscribe:true ~num_domains:1 () in
  let par = suite_doc ~pool () in
  Mk_engine.Pool.shutdown pool;
  Alcotest.(check string) "suite json byte-identical under -j 2" seq par

let test_suite_views () =
  let a = app "amg" in
  let series =
    Experiment.compare_scenarios ~scenarios:Scenario.trio ~app:a
      ~node_counts:[ 1; 4 ] ~runs:3 ()
  in
  let suite = [ (a, series) ] in
  (match Report.suite_headline suite with
  | [ (l1, m1, b1); (l2, m2, b2) ] ->
      Alcotest.(check string) "first label" "McKernel" l1;
      Alcotest.(check string) "second label" "mOS" l2;
      check_bool "mck median sane" true (m1 > 0.5 && m1 < 3.0);
      check_bool "mos median sane" true (m2 > 0.5 && m2 < 3.0);
      check_bool "best >= median" true (b1 >= m1 && b2 >= m2)
  | _ -> Alcotest.fail "expected two LWK headline entries");
  let table = Report.suite_table suite in
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "table renders headline" true
    (String.length table > 50 && contains table "median improvement");
  match Report.suite_json ~runs:3 ~seed:42 suite with
  | Mk_engine.Json.Obj fields ->
      check_bool "schema tagged" true
        (List.assoc "schema" fields = Mk_engine.Json.String "multikernel-suite/1");
      check_bool "headline present" true (List.mem_assoc "headline" fields);
      check_bool "apps present" true (List.mem_assoc "apps" fields)
  | _ -> Alcotest.fail "suite_json must be an object"

let test_report_renders () =
  let a = app "amg" in
  let series =
    Experiment.compare_scenarios ~scenarios:Scenario.trio ~app:a ~node_counts:[ 1; 2 ]
      ~runs:3 ()
  in
  let baseline =
    List.find
      (fun (s : Experiment.series) -> s.Experiment.scenario_label = "Linux")
      series
  in
  check_bool "fom table renders" true
    (String.length (Report.fom_table ~app:a series) > 50);
  check_bool "relative table renders" true
    (String.length (Report.relative_table ~app:a ~baseline series) > 50);
  check_bool "chart renders" true
    (String.length (Report.relative_chart ~app:a ~baseline series) > 50);
  check_bool "csv renders" true (String.length (Report.csv ~app:a series) > 50)

(* ------------------------------------------------------------------ *)
(* CLI argument validation (one-line errors, valid choices listed)     *)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let err = function
  | Error m ->
      check_bool "single line" false (String.contains m '\n');
      m
  | Ok _ -> Alcotest.fail "expected a validation error"

let test_validate_app () =
  (match Validate.app "HPCG" with
  | Ok a -> Alcotest.(check string) "found" "HPCG" a.Mk_apps.App.name
  | Error m -> Alcotest.fail m);
  let m = err (Validate.app "doom") in
  check_bool "names the input" true (contains m "doom");
  check_bool "lists choices" true (contains m "MiniFE")

let test_validate_scenario () =
  check_bool "mckernel ok" true (Result.is_ok (Validate.scenario "mckernel"));
  let m = err (Validate.scenario "hurd") in
  check_bool "lists kernels" true
    (contains m "McKernel" && contains m "mOS" && contains m "Linux")

let test_validate_ranges () =
  check_bool "nodes ok" true (Validate.nodes 1024 = Ok 1024);
  check_bool "nodes zero" true (contains (err (Validate.nodes 0)) "node count");
  check_bool "nodes huge" true
    (Result.is_error (Validate.nodes (Validate.max_nodes + 1)));
  check_bool "jobs 0 means all cores" true (Validate.jobs 0 = Ok 0);
  check_bool "jobs negative" true (Result.is_error (Validate.jobs (-1)));
  check_bool "jobs huge" true
    (Result.is_error (Validate.jobs (Validate.max_jobs + 1)));
  check_bool "runs ok" true (Validate.runs 5 = Ok 5);
  check_bool "runs zero" true (Result.is_error (Validate.runs 0));
  check_bool "node_counts empty" true (Result.is_error (Validate.node_counts []));
  check_bool "node_counts bad member" true
    (Result.is_error (Validate.node_counts [ 4; 0 ]));
  check_bool "des_shards ok" true (Validate.des_shards 4 = Ok 4);
  check_bool "des_shards 0 means one per core" true
    (Validate.des_shards 0 = Ok 0);
  check_bool "des_shards negative" true
    (Result.is_error (Validate.des_shards (-1)));
  check_bool "des_shards huge" true
    (contains
       (err (Validate.des_shards (Validate.max_des_shards + 1)))
       "des-shards")

let () =
  Alcotest.run "mk_cluster"
    [
      ("scenario", [ Alcotest.test_case "trio" `Quick test_scenarios ]);
      ( "driver",
        [
          Alcotest.test_case "basics" `Quick test_run_basics;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
          Alcotest.test_case "lwk steady determinism" `Quick
            test_lwks_silent_deterministic_iterations;
          Alcotest.test_case "ccs-qcd ordering" `Slow test_ccs_qcd_ordering;
          Alcotest.test_case "faults vs prefault" `Quick test_linux_faults_lwk_prefaults;
          Alcotest.test_case "lammps offloads" `Quick test_lammps_offloads;
          Alcotest.test_case "minife collapse" `Slow test_minife_collapse_at_scale;
          Alcotest.test_case "lulesh brk" `Slow test_lulesh_brk_mechanism;
          Alcotest.test_case "DES smoke counts" `Quick test_des_smoke_counts;
          Alcotest.test_case "node-sync allocation budget" `Quick
            test_driver_node_sync_alloc_budget;
          Alcotest.test_case "DES event allocation budget" `Quick
            test_des_serial_alloc_budget;
          Alcotest.test_case "sharded DES event allocation budget" `Quick
            test_des_sharded_alloc_budget;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "point statistics" `Quick test_experiment_point_statistics;
          Alcotest.test_case "relative_to" `Slow test_relative_to;
          Alcotest.test_case "median improvement" `Quick test_median_improvement;
          Alcotest.test_case "parallel matches sequential" `Slow
            test_parallel_matches_sequential;
          Alcotest.test_case "suite views" `Slow test_suite_views;
          Alcotest.test_case "report renders" `Slow test_report_renders;
        ] );
      ( "validation",
        [
          Alcotest.test_case "DES matches analytic (silent)" `Quick
            test_des_matches_analytic_silent;
          Alcotest.test_case "DES matches analytic (noisy)" `Quick
            test_des_matches_analytic_noisy;
          Alcotest.test_case "DES message count" `Quick test_des_message_count;
          Alcotest.test_case "DES sharded identity" `Quick
            test_des_sharded_identity;
          Alcotest.test_case "DES sharded every scenario" `Slow
            test_des_sharded_every_scenario;
          Alcotest.test_case "DES sharded crossings" `Quick
            test_des_sharded_crossings;
          Alcotest.test_case "DES fast-forward equivalence" `Quick
            test_des_fast_forward_equivalence;
          Alcotest.test_case "DES sharded pool identity" `Quick
            test_des_sharded_pool_identity;
          QCheck_alcotest.to_alcotest des_shard_invariance_q;
          Alcotest.test_case "calibration relations" `Quick test_calibration_relations;
          Alcotest.test_case "table1 ordering" `Slow test_table1_ordering;
          Alcotest.test_case "quadrant rescues linux" `Slow
            test_quadrant_mode_rescues_linux;
          Alcotest.test_case "isolation property" `Slow test_isolation_property;
        ] );
      ( "cli-validation",
        [
          Alcotest.test_case "app" `Quick test_validate_app;
          Alcotest.test_case "scenario" `Quick test_validate_scenario;
          Alcotest.test_case "ranges" `Quick test_validate_ranges;
        ] );
    ]
