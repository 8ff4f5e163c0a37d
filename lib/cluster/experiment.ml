type point = {
  nodes : int;
  median_fom : float;
  min_fom : float;
  max_fom : float;
  median_result : Driver.result;
}

type series = { scenario_label : string; points : point list }

type cell = {
  scenario : Scenario.t;
  app : Mk_apps.App.t;
  nodes : int;
  faults : Mk_fault.Plan.t option;
  runs : int;
  seed : int;
}

let default_runs = 5

(* Repetition [i] of a cell perturbs the base seed deterministically,
   so every run of a cell is reproducible from the cell alone. *)
let seed_of c i = c.seed + (100 * i)

let summarise ~nodes results =
  let sorted =
    List.sort (fun (a : Driver.result) b -> compare a.Driver.fom b.Driver.fom) results
  in
  let arr = Array.of_list sorted in
  let n = Array.length arr in
  let median_result = arr.(n / 2) in
  {
    nodes;
    median_fom = median_result.Driver.fom;
    min_fom = arr.(0).Driver.fom;
    max_fom = arr.(n - 1).Driver.fom;
    median_result;
  }

(* Split a flat stream back into consecutive groups of the given
   sizes.  The fan-out below relies on [Pool.parallel_map] preserving
   input order, so group boundaries are positional. *)
let split_groups sizes xs =
  let rec take n rest acc =
    if n = 0 then (List.rev acc, rest)
    else
      match rest with
      | x :: tl -> take (n - 1) tl (x :: acc)
      | [] -> assert false
  in
  let rec go sizes rest acc =
    match sizes with
    | [] -> List.rev acc
    | n :: tl ->
        let mine, rest = take n rest [] in
        go tl rest (mine :: acc)
  in
  go sizes xs []

(* The one fan-out point of the experiment layer.  Every repetition of
   every cell becomes its own pool task — the finest grain there is —
   so the work-stealing executor load-balances across uneven cell
   costs (a 256-node HPCG run next to a 4-node sleep costs nothing to
   schedule around).  Jobs are laid out cell-major, repetition-minor;
   results come back in that same order ([parallel_map] reassembles
   positionally), so summarising per cell and absorbing snapshots in
   job order reproduce exactly what sequential execution would have
   done — which executor ran which repetition is invisible. *)
let points ?pool ?obs ?progress cells =
  List.iter
    (fun c ->
      if c.runs <= 0 then invalid_arg "Experiment.point: runs must be positive")
    cells;
  let jobs =
    List.concat_map (fun c -> List.init c.runs (fun i -> (c, i))) cells
  in
  (* Progress is a side channel for interactive feedback (the simos
     heartbeat): the callback fires on whichever domain finished the
     repetition, so it must be thread-safe and must never influence
     results.  The counter is the only shared state. *)
  let total = List.length jobs in
  let completed = Atomic.make 0 in
  let notify task j =
    match progress with
    | None -> task j
    | Some f ->
        let r = task j in
        f ~completed:(Atomic.fetch_and_add completed 1 + 1) ~total;
        r
  in
  let regroup results =
    List.map2
      (fun c rs -> summarise ~nodes:c.nodes rs)
      cells
      (split_groups (List.map (fun c -> c.runs) cells) results)
  in
  match obs with
  | None ->
      (* No recorder is even allocated: the Driver keeps the Null
         sink installed — the pre-observability fast path. *)
      regroup
        (Mk_engine.Pool.parallel_map ?pool
           (notify (fun (c, i) ->
                Driver.run ?faults:c.faults ~scenario:c.scenario ~app:c.app
                  ~nodes:c.nodes ~seed:(seed_of c i) ()))
           jobs)
  | Some coll ->
      let trace = Mk_obs.Collect.trace_enabled coll in
      let outs =
        Mk_engine.Pool.parallel_map ?pool
          (notify (fun (c, i) ->
            let seed = seed_of c i in
            let r =
              Mk_obs.Recorder.make ~trace ~label:c.scenario.Scenario.label
                ~nodes:c.nodes ~seed ()
            in
            let result =
              Driver.run ?faults:c.faults ~obs:r ~scenario:c.scenario
                ~app:c.app ~nodes:c.nodes ~seed ()
            in
            (result, Mk_obs.Recorder.snapshot r)))
          jobs
      in
      (* Each run recorded into its own recorder; merging here — in
         job order, never in a worker — keeps parallel observed
         output bit-identical to sequential. *)
      List.iter (fun (_, s) -> Mk_obs.Collect.add coll s) outs;
      regroup (List.map fst outs)

let point ?pool ?faults ?obs ~scenario ~app ~nodes ?(runs = default_runs)
    ?(seed = 42) () =
  match points ?pool ?obs [ { scenario; app; nodes; faults; runs; seed } ] with
  | [ p ] -> p
  | _ -> assert false

(* Cell builders — the one place each orchestrator's cell layout is
   defined. *)
let sweep_cells ~scenario ~app ?node_counts ?(runs = default_runs)
    ?(seed = 42) () =
  let counts = Option.value node_counts ~default:app.Mk_apps.App.node_counts in
  List.map
    (fun nodes -> { scenario; app; nodes; faults = None; runs; seed })
    counts

let compare_cells ~scenarios ~app ?node_counts ?(runs = default_runs)
    ?(seed = 42) () =
  List.concat_map
    (fun scenario -> sweep_cells ~scenario ~app ?node_counts ~runs ~seed ())
    scenarios

let suite_cells ?(apps = Mk_apps.Registry.all) ?node_counts
    ?(runs = default_runs) ?(seed = 42) () =
  List.map
    (fun app ->
      ( app,
        compare_cells ~scenarios:Scenario.trio ~app ?node_counts ~runs ~seed
          () ))
    apps

let sweep ?pool ?obs ?progress ~scenario ~app ?node_counts ?runs ?seed () =
  let cells = sweep_cells ~scenario ~app ?node_counts ?runs ?seed () in
  {
    scenario_label = scenario.Scenario.label;
    points = points ?pool ?obs ?progress cells;
  }

let compare_scenarios ?pool ?obs ?progress ~scenarios ~app ?node_counts ?runs
    ?seed () =
  let counts = Option.value node_counts ~default:app.Mk_apps.App.node_counts in
  let cells = compare_cells ~scenarios ~app ?node_counts ?runs ?seed () in
  let k = List.length counts in
  List.map2
    (fun (scenario : Scenario.t) pts ->
      { scenario_label = scenario.Scenario.label; points = pts })
    scenarios
    (split_groups
       (List.map (fun _ -> k) scenarios)
       (points ?pool ?obs ?progress cells))

let relative_to ~baseline series =
  List.filter_map
    (fun (p : point) ->
      match List.find_opt (fun (b : point) -> b.nodes = p.nodes) baseline.points with
      | Some b when b.median_fom > 0.0 -> Some (p.nodes, p.median_fom /. b.median_fom)
      | Some _ | None -> None)
    series.points

let median_improvement ratio_lists =
  let all = List.concat ratio_lists |> List.map snd in
  if all = [] then 1.0 else Mk_engine.Stats.median_of all

let best_improvement ratio_lists =
  List.fold_left
    (fun acc (_, r) -> max acc r)
    neg_infinity
    (List.concat ratio_lists)

let suite ?pool ?obs ?progress ?apps ?node_counts ?runs ?seed () =
  (* The whole evaluation — every (app × scenario × node count)
     repetition — as one flat batch.  This is where per-run tasks pay
     off most: apps differ in cost by orders of magnitude, and with
     per-app (or even per-cell) batches the suite's tail was whoever
     drew the expensive app.  Here idle executors steal individual
     runs from the expensive cells instead of waiting out the
     barrier. *)
  let counts_of app = Option.value node_counts ~default:app.Mk_apps.App.node_counts in
  let per_app = suite_cells ?apps ?node_counts ?runs ?seed () in
  let ps = points ?pool ?obs ?progress (List.concat_map snd per_app) in
  List.map2
    (fun (app, _) pts ->
      let k = List.length (counts_of app) in
      ( app,
        List.map2
          (fun (s : Scenario.t) points ->
            { scenario_label = s.Scenario.label; points })
          Scenario.trio
          (split_groups (List.map (fun _ -> k) Scenario.trio) pts) ))
    per_app
    (split_groups (List.map (fun (_, cs) -> List.length cs) per_app) ps)

(* ------------------------------------------------------------------ *)
(* JSON rendering of a point. *)

let result_to_json (r : Driver.result) =
  Mk_engine.Json.(
    Obj
      [
        ("nodes", Int r.Driver.nodes);
        ("total_time", Int r.Driver.total_time);
        ("solve_time", Int r.Driver.solve_time);
        ("setup_time", Int r.Driver.setup_time);
        ("first_iteration", Int r.Driver.first_iteration);
        ("steady_iteration", Int r.Driver.steady_iteration);
        ("fom", Float r.Driver.fom);
        ("mcdram_fraction", Float r.Driver.mcdram_fraction);
        ("faults", Int r.Driver.faults);
        ("offloads_per_iteration", Int r.Driver.offloads_per_iteration);
        ("failures", Int r.Driver.failures);
        ("fault_events", Int r.Driver.fault_events);
        ("dead_nodes", Int r.Driver.dead_nodes);
        ("recoveries", Int r.Driver.recoveries);
      ])

let point_to_json (p : point) =
  Mk_engine.Json.(
    Obj
      [
        ("nodes", Int p.nodes);
        ("median_fom", Float p.median_fom);
        ("min_fom", Float p.min_fom);
        ("max_fom", Float p.max_fom);
        ("median_result", result_to_json p.median_result);
      ])

(* ------------------------------------------------------------------ *)
(* Sharded-DES validation tier (simos suite --des-shards) *)

type des_check = {
  des_scenario : string;
  des_nodes : int;
  des_shards : int;
  serial : Cluster_des.result;
  sharded : Cluster_des.result;
  des_stats : Cluster_des.sharding;
}

let des_identical c = c.serial = c.sharded

(* The workload of the DES cross-validation tests: one Oakforest-like
   node (64 ranks), a 2 ms compute window, 10 allreduce iterations. *)
let des_checks ?pool ?(scenarios = Scenario.trio) ~nodes ~shards ?(seed = 42)
    () =
  if shards <= 0 then
    invalid_arg "Experiment.des_checks: shards must be positive";
  let window = 2 * Mk_engine.Units.ms in
  List.map
    (fun (sc : Scenario.t) ->
      let os = sc.Scenario.make () in
      let profile = os.Mk_kernel.Os.app_noise in
      let fabric = Mk_fabric.Fabric.make ~nodes () in
      let serial =
        Cluster_des.allreduce_loop ~nodes ~ranks_per_node:64
          ~threads_per_rank:1 ~window ~iterations:10 ~bytes:8 ~profile ~fabric
          ~seed
      in
      let sharded, des_stats =
        Cluster_des.sharded_allreduce_loop ?pool ~shards ~nodes
          ~ranks_per_node:64 ~threads_per_rank:1 ~window ~iterations:10
          ~bytes:8 ~profile ~fabric ~seed ()
      in
      {
        des_scenario = sc.Scenario.label;
        des_nodes = nodes;
        des_shards = shards;
        serial;
        sharded;
        des_stats;
      })
    scenarios

(* The same workload as [des_checks], but instrumented: each scenario's
   sharded run feeds an engine self-profiler through the epoch
   observer.  The profile consumes only protocol-determined
   Shard.samples, so the rows are byte-identical across pool sizes —
   the property [simos profile -o] and test/test_obs.ml rely on. *)
let des_profiles ?pool ?(scenarios = Scenario.trio) ?bucket_ns ~nodes ~shards
    ?(iterations = 10) ?(seed = 42) () =
  if shards <= 0 then
    invalid_arg "Experiment.des_profiles: shards must be positive";
  if iterations <= 0 then
    invalid_arg "Experiment.des_profiles: iterations must be positive";
  let window = 2 * Mk_engine.Units.ms in
  List.map
    (fun (sc : Scenario.t) ->
      let os = sc.Scenario.make () in
      let profile = os.Mk_kernel.Os.app_noise in
      let fabric = Mk_fabric.Fabric.make ~nodes () in
      let p = Mk_obs.Profile.create ?bucket_ns ~shards () in
      let _ =
        Cluster_des.sharded_allreduce_loop ?pool
          ~observer:(Mk_obs.Profile.observe p) ~shards ~nodes
          ~ranks_per_node:64 ~threads_per_rank:1 ~window ~iterations ~bytes:8
          ~profile ~fabric ~seed ()
      in
      (sc.Scenario.label, p))
    scenarios
