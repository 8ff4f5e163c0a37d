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

(* Repetition [i] of a cell perturbs the base seed deterministically;
   part of the cell's identity (see [cell_key]), so it must never
   change without bumping [cell_salt]. *)
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
   defined, shared with the supervised/journaled path so a journal
   written by [simos sweep --journal] replays against exactly the
   cells a fresh run would compute. *)
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
(* Supervised, journaled execution.                                    *)

(* Version salt folded into every cell key.  Bump it whenever the
   meaning of a cell changes — the seed schedule ([seed_of]), the
   Driver's arithmetic, the summary statistics — so stale journal
   entries miss instead of replaying wrong numbers. *)
let cell_salt = "multikernel-cell/1"

let cell_fingerprint c =
  Mk_engine.Json.(
    to_string
      (Obj
         [
           ("salt", String cell_salt);
           ("scenario", String c.scenario.Scenario.label);
           ("app", String c.app.Mk_apps.App.name);
           ("nodes", Int c.nodes);
           ("runs", Int c.runs);
           ("seed", Int c.seed);
           ( "faults",
             match c.faults with
             | None -> Null
             | Some p -> Mk_fault.Plan.to_json p );
         ]))

let cell_key c = Digest.to_hex (Digest.string (cell_fingerprint c))

let cell_label c =
  Printf.sprintf "%s/%s/n%d/r%d/s%d" c.app.Mk_apps.App.name
    c.scenario.Scenario.label c.nodes c.runs c.seed

(* Static work-unit cost of a cell — deterministic by construction
   (no event counting, no clocks), which is all the budget needs to
   be to catch a pathologically sized cell before it runs. *)
let cell_units c = c.runs * c.nodes * c.app.Mk_apps.App.sim_iterations

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

exception Bad_field of string

let int_field fields name =
  match List.assoc_opt name fields with
  | Some (Mk_engine.Json.Int i) -> i
  | _ -> raise (Bad_field name)

let float_field fields name =
  match List.assoc_opt name fields with
  | Some (Mk_engine.Json.Float f) -> f
  | _ -> raise (Bad_field name)

let result_of_json_exn fields : Driver.result =
  {
    Driver.nodes = int_field fields "nodes";
    total_time = int_field fields "total_time";
    solve_time = int_field fields "solve_time";
    setup_time = int_field fields "setup_time";
    first_iteration = int_field fields "first_iteration";
    steady_iteration = int_field fields "steady_iteration";
    fom = float_field fields "fom";
    mcdram_fraction = float_field fields "mcdram_fraction";
    faults = int_field fields "faults";
    offloads_per_iteration = int_field fields "offloads_per_iteration";
    failures = int_field fields "failures";
    fault_events = int_field fields "fault_events";
    dead_nodes = int_field fields "dead_nodes";
    recoveries = int_field fields "recoveries";
  }

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

let point_of_json json : (point, string) result =
  match json with
  | Mk_engine.Json.Obj fields -> (
      try
        let median_result =
          match List.assoc_opt "median_result" fields with
          | Some (Mk_engine.Json.Obj rf) -> result_of_json_exn rf
          | _ -> raise (Bad_field "median_result")
        in
        Ok
          {
            nodes = int_field fields "nodes";
            median_fom = float_field fields "median_fom";
            min_fom = float_field fields "min_fom";
            max_fom = float_field fields "max_fom";
            median_result;
          }
      with Bad_field name -> Error (Printf.sprintf "bad field %S" name))
  | _ -> Error "point is not an object"

type outcome = Completed of point | Quarantined of { error : string; attempts : int }

type supervised = {
  outcomes : (cell * outcome) list;
  computed : int;
  replayed : int;
  retries : int;
  quarantined : int;
  backoff_ns : int;
}

let flight_path ~dir ~key = Filename.concat dir ("flight-" ^ key ^ ".json")

let supervised_points ?pool ?(policy = Supervise.default) ?journal ?chaos
    ?flight_dir cells =
  List.iter
    (fun c ->
      if c.runs <= 0 then
        invalid_arg "Experiment.supervised_points: runs must be positive")
    cells;
  let chaos = Option.value chaos ~default:(fun ~cell:_ ~attempt:_ -> ()) in
  let indexed = List.mapi (fun i c -> (i, c, cell_key c)) cells in
  (* One task per CELL (not per repetition): a cell is the unit of
     retry, quarantine and journaling, so its repetitions must live
     and die together.  Inside the task the repetitions run
     sequentially with exactly the seeds [points] would use, so a
     supervised run's numbers are identical to an unsupervised one. *)
  let task (i, c, key) =
    let replayed =
      match
        Option.bind journal (fun j -> Mk_engine.Journal.find j ~key)
      with
      | None -> None
      | Some json -> (
          (* An unparseable journal value is treated as a miss — the
             cell is simply recomputed. *)
          match point_of_json json with Ok p -> Some p | Error _ -> None)
    in
    match replayed with
    | Some p -> `Replayed p
    | None ->
        (* Black box: one bounded, non-metering recorder for the
           whole supervised extent (all attempts share one ring — the
           tail of the last, fatal attempt survives wraparound).
           Created, filled and rendered on this worker domain only;
           the immutable dump document crosses to the submitter
           through the pool barrier below. *)
        let box =
          Option.map
            (fun _ -> Mk_obs.Recorder.black_box ~label:(cell_label c) ~seed:c.seed ())
            flight_dir
        in
        let mark fmt =
          Printf.ksprintf
            (fun name ->
              Option.iter
                (fun r ->
                  Mk_obs.Recorder.instant r ~ts:0 ~node:0 ~tid:0 ~cat:"cell" ~name ())
                box)
            fmt
        in
        let out =
          Supervise.run
            ~chaos:(fun ~attempt ->
              mark "attempt %d" attempt;
              chaos ~cell:i ~attempt)
            policy
            (fun () ->
              Supervise.check_budget policy ~units:(cell_units c);
              summarise ~nodes:c.nodes
                (List.init c.runs (fun r ->
                     mark "repetition %d" r;
                     Driver.run ?obs:box ?faults:c.faults ~scenario:c.scenario
                       ~app:c.app ~nodes:c.nodes ~seed:(seed_of c r) ())))
        in
        (* Record from the worker, as soon as the cell completes: a
           kill between cells then loses nothing already done. *)
        (match (out.Supervise.result, journal) with
        | Ok p, Some j ->
            Mk_engine.Journal.record j ~key ~label:(cell_label c)
              (point_to_json p)
        | _ -> ());
        let dump =
          match (out.Supervise.result, box) with
          | Error { Supervise.error; _ }, Some r ->
              Some (Mk_obs.Recorder.black_box_json ~cell_key:key ~reason:error r)
          | _ -> None
        in
        `Computed (out, dump)
  in
  let raw = Mk_engine.Pool.parallel_map_result ?pool task indexed in
  let zero =
    {
      outcomes = [];
      computed = 0;
      replayed = 0;
      retries = 0;
      quarantined = 0;
      backoff_ns = 0;
    }
  in
  (* Black-box dumps happen here, on the submitting domain after the
     barrier — one writer, cell order, through the same crash-safe
     rename as every other artifact. *)
  let dump_flight ~key dump =
    match (flight_dir, dump) with
    | Some dir, Some doc ->
        Mk_engine.Atomic_file.write (flight_path ~dir ~key)
          (Mk_engine.Json.to_string_pretty doc ^ "\n")
    | _ -> ()
  in
  let s =
    List.fold_left2
      (fun acc (_, c, key) r ->
        match r with
        | Ok (`Replayed p) ->
            {
              acc with
              outcomes = (c, Completed p) :: acc.outcomes;
              replayed = acc.replayed + 1;
            }
        | Ok (`Computed (out, dump)) -> (
            let retries = acc.retries + out.Supervise.attempts - 1 in
            let backoff_ns = acc.backoff_ns + out.Supervise.backoff_ns in
            match out.Supervise.result with
            | Ok p ->
                {
                  acc with
                  outcomes = (c, Completed p) :: acc.outcomes;
                  computed = acc.computed + 1;
                  retries;
                  backoff_ns;
                }
            | Error { Supervise.error; attempts } ->
                dump_flight ~key dump;
                {
                  acc with
                  outcomes = (c, Quarantined { error; attempts }) :: acc.outcomes;
                  quarantined = acc.quarantined + 1;
                  retries;
                  backoff_ns;
                })
        | Error (e, _bt) ->
            (* The supervisor itself escaped (journal I/O failure,
               …): still contained — sibling cells keep their
               results.  [attempts = 0] marks a supervisor failure as
               opposed to an exhausted retry budget. *)
            {
              acc with
              outcomes =
                (c, Quarantined { error = Printexc.to_string e; attempts = 0 })
                :: acc.outcomes;
              quarantined = acc.quarantined + 1;
            })
      zero indexed raw
  in
  let s = { s with outcomes = List.rev s.outcomes } in
  (* Supervision counters, emitted once on the submitting domain
     after the barrier — deterministic, like every other obs merge. *)
  if s.replayed > 0 then
    Mk_obs.Hook.count ~subsystem:"supervise" ~name:"journal_hits" s.replayed;
  if s.retries > 0 then
    Mk_obs.Hook.count ~subsystem:"supervise" ~name:"retries" s.retries;
  if s.quarantined > 0 then
    Mk_obs.Hook.count ~subsystem:"supervise" ~name:"quarantines" s.quarantined;
  s

let series_of_supervised outcomes =
  let labels =
    List.fold_left
      (fun acc (c, _) ->
        let l = c.scenario.Scenario.label in
        if List.mem l acc then acc else acc @ [ l ])
      [] outcomes
  in
  List.map
    (fun l ->
      {
        scenario_label = l;
        points =
          List.filter_map
            (fun (c, o) ->
              if c.scenario.Scenario.label = l then
                match o with Completed p -> Some p | Quarantined _ -> None
              else None)
            outcomes;
      })
    labels

let suite_of_supervised per_app s =
  let sizes = List.map (fun (_, cs) -> List.length cs) per_app in
  List.map2
    (fun (app, _) block -> (app, series_of_supervised block))
    per_app
    (split_groups sizes s.outcomes)

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
