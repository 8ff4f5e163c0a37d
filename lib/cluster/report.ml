open Mk_engine

let fmt_g v = Printf.sprintf "%.4g" v

let fom_table ~(app : Mk_apps.App.t) series_list =
  let counts =
    match series_list with
    | [] -> []
    | s :: _ -> List.map (fun (p : Experiment.point) -> p.Experiment.nodes) s.Experiment.points
  in
  let header =
    "nodes"
    :: List.concat_map
         (fun (s : Experiment.series) ->
           [ s.Experiment.scenario_label; "min..max" ])
         series_list
  in
  let rows =
    List.map
      (fun nodes ->
        string_of_int nodes
        :: List.concat_map
             (fun (s : Experiment.series) ->
               match
                 List.find_opt
                   (fun (p : Experiment.point) -> p.Experiment.nodes = nodes)
                   s.Experiment.points
               with
               | Some p ->
                   [
                     fmt_g p.Experiment.median_fom;
                     Printf.sprintf "%s..%s" (fmt_g p.Experiment.min_fom)
                       (fmt_g p.Experiment.max_fom);
                   ]
               | None -> [ "-"; "-" ])
             series_list)
      counts
  in
  Printf.sprintf "%s (%s)\n%s" app.Mk_apps.App.name app.Mk_apps.App.fom_unit
    (Table.render ~header rows)

let relative_pairs ~baseline series =
  Experiment.relative_to ~baseline series

let relative_table ~(app : Mk_apps.App.t) ~baseline series_list =
  let others =
    List.filter
      (fun (s : Experiment.series) ->
        s.Experiment.scenario_label <> baseline.Experiment.scenario_label)
      series_list
  in
  let header =
    "nodes"
    :: List.map (fun (s : Experiment.series) -> s.Experiment.scenario_label) others
  in
  let counts =
    List.map (fun (p : Experiment.point) -> p.Experiment.nodes) baseline.Experiment.points
  in
  let rows =
    List.map
      (fun nodes ->
        string_of_int nodes
        :: List.map
             (fun s ->
               match List.assoc_opt nodes (relative_pairs ~baseline s) with
               | Some r -> Printf.sprintf "%.3f" r
               | None -> "-")
             others)
      counts
  in
  Printf.sprintf "%s: median performance relative to %s\n%s" app.Mk_apps.App.name
    baseline.Experiment.scenario_label (Table.render ~header rows)

let relative_chart ~(app : Mk_apps.App.t) ~baseline series_list =
  let others =
    List.filter
      (fun (s : Experiment.series) ->
        s.Experiment.scenario_label <> baseline.Experiment.scenario_label)
      series_list
  in
  let to_series (s : Experiment.series) =
    {
      Table.label = s.Experiment.scenario_label;
      points =
        List.map
          (fun (n, r) -> (float_of_int n, r))
          (relative_pairs ~baseline s);
    }
  in
  Table.chart ~logx:true
    ~title:
      (Printf.sprintf "%s relative to %s (1.0 = parity)" app.Mk_apps.App.name
         baseline.Experiment.scenario_label)
    ~ylabel:"relative median performance"
    (List.map to_series others)

let absolute_chart ~(app : Mk_apps.App.t) series_list =
  let to_series (s : Experiment.series) =
    {
      Table.label = s.Experiment.scenario_label;
      points =
        List.map
          (fun (p : Experiment.point) ->
            (float_of_int p.Experiment.nodes, p.Experiment.median_fom))
          s.Experiment.points;
    }
  in
  Table.chart ~logx:true
    ~title:(Printf.sprintf "%s (%s)" app.Mk_apps.App.name app.Mk_apps.App.fom_unit)
    ~ylabel:app.Mk_apps.App.fom_unit
    (List.map to_series series_list)

let csv ~(app : Mk_apps.App.t) series_list =
  let rows =
    List.concat_map
      (fun (s : Experiment.series) ->
        List.map
          (fun (p : Experiment.point) ->
            [
              app.Mk_apps.App.name;
              s.Experiment.scenario_label;
              string_of_int p.Experiment.nodes;
              fmt_g p.Experiment.median_fom;
              fmt_g p.Experiment.min_fom;
              fmt_g p.Experiment.max_fom;
            ])
          s.Experiment.points)
      series_list
  in
  Table.csv ~header:[ "app"; "os"; "nodes"; "median"; "min"; "max" ] rows

(* ------------------------------------------------------------------ *)
(* Suite views: the eight-apps × three-kernels aggregate.              *)

let baseline_label = "Linux"

let suite_ratios ~label suite =
  List.filter_map
    (fun ((_ : Mk_apps.App.t), series) ->
      let find l =
        List.find_opt
          (fun (s : Experiment.series) -> s.Experiment.scenario_label = l)
          series
      in
      match (find baseline_label, find label) with
      | Some baseline, Some s -> Some (Experiment.relative_to ~baseline s)
      | _ -> None)
    suite

let lwk_labels suite =
  match suite with
  | [] -> []
  | (_, series) :: _ ->
      List.filter_map
        (fun (s : Experiment.series) ->
          if s.Experiment.scenario_label = baseline_label then None
          else Some s.Experiment.scenario_label)
        series

let suite_headline suite =
  List.map
    (fun label ->
      let r = suite_ratios ~label suite in
      (label, Experiment.median_improvement r, Experiment.best_improvement r))
    (lwk_labels suite)

let suite_table suite =
  let labels = lwk_labels suite in
  let header =
    "app" :: "points"
    :: List.concat_map (fun l -> [ l ^ " median"; l ^ " best" ]) labels
  in
  let pct r = Printf.sprintf "%+.1f%%" (100.0 *. (r -. 1.0)) in
  let rows =
    List.map
      (fun ((app : Mk_apps.App.t), series) ->
        let cells =
          List.fold_left
            (fun acc (s : Experiment.series) ->
              acc + List.length s.Experiment.points)
            0 series
        in
        app.Mk_apps.App.name :: string_of_int cells
        :: List.concat_map
             (fun label ->
               match suite_ratios ~label [ (app, series) ] with
               | [ ratios ] when ratios <> [] ->
                   [
                     pct (Experiment.median_improvement [ ratios ]);
                     pct (Experiment.best_improvement [ ratios ]);
                   ]
               | _ -> [ "-"; "-" ])
             labels)
      suite
  in
  let headline =
    List.map
      (fun (label, median, best) ->
        Printf.sprintf "%-9s median improvement %+.1f%%, best %+.0f%%" label
          (100.0 *. (median -. 1.0))
          (100.0 *. (best -. 1.0)))
      (suite_headline suite)
  in
  Table.render ~header rows
  ^ "\nImprovement over the Linux baseline across every (app x node count) point:\n"
  ^ String.concat "\n" headline ^ "\n"

let json ~(app : Mk_apps.App.t) series_list =
  let open Mk_engine.Json in
  let point (p : Experiment.point) =
    let r = p.Experiment.median_result in
    Obj
      [
        ("nodes", Int p.Experiment.nodes);
        ("median", Float p.Experiment.median_fom);
        ("min", Float p.Experiment.min_fom);
        ("max", Float p.Experiment.max_fom);
        ("solve_time_ns", Int r.Driver.solve_time);
        ("setup_time_ns", Int r.Driver.setup_time);
        ("mcdram_fraction", Float r.Driver.mcdram_fraction);
        ("faults", Int r.Driver.faults);
        ("offloads_per_iteration", Int r.Driver.offloads_per_iteration);
      ]
  in
  Obj
    [
      ("app", String app.Mk_apps.App.name);
      ("fom_unit", String app.Mk_apps.App.fom_unit);
      ( "scenarios",
        List
          (List.map
             (fun (s : Experiment.series) ->
               Obj
                 [
                   ("label", String s.Experiment.scenario_label);
                   ("points", List (List.map point s.Experiment.points));
                 ])
             series_list) );
    ]

(* ------------------------------------------------------------------ *)
(* Observability views                                                 *)

let metrics_table (c : Mk_obs.Collect.t) =
  let header = [ "kernel"; "node"; "subsystem"; "name"; "value" ] in
  let rows =
    List.map
      (fun ((k : Mk_obs.Key.t), v) ->
        [
          k.Mk_obs.Key.kernel;
          Mk_obs.Key.node_label k.Mk_obs.Key.node;
          k.Mk_obs.Key.subsystem;
          k.Mk_obs.Key.name;
          Mk_obs.Metrics.value_to_string v;
        ])
      (Mk_obs.Collect.bindings c)
  in
  Printf.sprintf "metrics (%d runs)\n%s" (Mk_obs.Collect.runs c)
    (Table.render ~header rows)

(* The counters behind the paper's three mechanisms, summed over
   nodes and pivoted per kernel: one glance says which kernel paid in
   page faults, which in proxy round-trips. *)
let mechanism_counters =
  [
    ("mem", "demand_faults");
    ("mem", "pages_2m");
    ("mem", "mcdram_spill_bytes");
    ("ikc", "proxy_roundtrips");
    ("ikc", "thread_migrations");
    ("mpi", "allreduce_calls");
    ("mpi", "halo_calls");
    ("retry", "attempts");
    ("sched", "preemptions");
  ]

let mechanism_table (c : Mk_obs.Collect.t) =
  let bindings = Mk_obs.Collect.bindings c in
  let kernels =
    List.sort_uniq String.compare
      (List.map (fun ((k : Mk_obs.Key.t), _) -> k.Mk_obs.Key.kernel) bindings)
  in
  let total kernel (sub, name) =
    List.fold_left
      (fun acc ((k : Mk_obs.Key.t), v) ->
        if
          k.Mk_obs.Key.kernel = kernel
          && k.Mk_obs.Key.subsystem = sub
          && k.Mk_obs.Key.name = name
        then acc + (match v with Mk_obs.Metrics.Counter n -> n | _ -> 0)
        else acc)
      0 bindings
  in
  let header = "counter" :: kernels in
  let rows =
    List.map
      (fun (sub, name) ->
        (sub ^ "/" ^ name)
        :: List.map
             (fun kernel -> string_of_int (total kernel (sub, name)))
             kernels)
      mechanism_counters
  in
  Table.render ~header rows

let suite_json ~runs ~seed ?(meta = []) ?obs suite =
  let open Mk_engine.Json in
  Obj
    ([
       ("schema", String "multikernel-suite/1");
       ("runs", Int runs);
       ("seed", Int seed);
     ]
    @ meta
    @ (match obs with
      | None -> []
      | Some c -> [ ("metrics", Mk_obs.Collect.metrics_json c) ])
    @ [
        ( "headline",
          Obj
            (List.map
               (fun (label, median, best) ->
                 ( label,
                   Obj
                     [
                       ("median_improvement", Float median);
                       ("best_improvement", Float best);
                     ] ))
               (suite_headline suite)) );
        ("apps", List (List.map (fun (app, series) -> json ~app series) suite));
      ])

(* One row per scenario: both DES formulations side by side, plus the
   conservative-protocol counters that explain where the parallel run
   spent its epochs.  "ok" is the byte-identity verdict the CLI turns
   into an exit status. *)
let des_table (checks : Experiment.des_check list) =
  let header =
    [
      "scenario"; "nodes"; "shards"; "serial"; "sharded"; "messages"; "events";
      "cross"; "nulls"; "epochs"; "ff"; "ok";
    ]
  in
  let rows =
    List.map
      (fun (c : Experiment.des_check) ->
        let st = c.Experiment.des_stats in
        [
          c.Experiment.des_scenario;
          string_of_int c.Experiment.des_nodes;
          string_of_int c.Experiment.des_shards;
          Units.time_to_string c.Experiment.serial.Cluster_des.completion;
          Units.time_to_string c.Experiment.sharded.Cluster_des.completion;
          string_of_int c.Experiment.sharded.Cluster_des.messages;
          string_of_int st.Cluster_des.shard_events;
          string_of_int st.Cluster_des.cross_messages;
          string_of_int st.Cluster_des.null_messages;
          string_of_int st.Cluster_des.epochs;
          string_of_int st.Cluster_des.fast_forwarded;
          (if Experiment.des_identical c then "yes" else "NO");
        ])
      checks
  in
  Printf.sprintf "sharded-DES cross-check (serial heap vs %s)\n%s"
    (match checks with
    | c :: _ -> Printf.sprintf "%d shard(s)" c.Experiment.des_shards
    | [] -> "sharded")
    (Table.render ~header rows)

(* ------------------------------------------------------------------ *)
(* Self-profiler views (simos profile)                                 *)

let pct v = Printf.sprintf "%.1f%%" v

let profile_timeline ~label p =
  let header =
    [ "bucket"; "epochs"; "events"; "cross"; "nulls"; "stalls"; "backlog" ]
  in
  let rows =
    List.map
      (fun (b : Mk_obs.Profile.bucket) ->
        [
          Units.time_to_string b.Mk_obs.Profile.b_start;
          string_of_int b.Mk_obs.Profile.b_epochs;
          string_of_int b.Mk_obs.Profile.b_events;
          string_of_int b.Mk_obs.Profile.b_cross;
          string_of_int b.Mk_obs.Profile.b_nulls;
          string_of_int b.Mk_obs.Profile.b_stalls;
          string_of_int b.Mk_obs.Profile.b_max_backlog;
        ])
      (Mk_obs.Profile.buckets p)
  in
  let tt = Mk_obs.Profile.totals p in
  Printf.sprintf
    "%s: %d epochs, %.1f events/epoch, null %s, stall %s, horizon utilization %.2f\n%s"
    label tt.Mk_obs.Profile.t_epochs
    (Mk_obs.Profile.events_per_epoch tt)
    (pct (Mk_obs.Profile.null_pct tt))
    (pct (Mk_obs.Profile.stall_pct ~shards:(Mk_obs.Profile.shards p) tt))
    (Mk_obs.Profile.horizon_utilization tt)
    (Table.render ~header rows)

let profile_hot ~shards rows =
  let header =
    [
      "scenario"; "events"; "epochs"; "ev/epoch"; "null"; "stall"; "horizon";
      "backlog";
    ]
  in
  let body =
    List.map
      (fun (label, (tt : Mk_obs.Profile.totals)) ->
        [
          label;
          string_of_int tt.Mk_obs.Profile.t_events;
          string_of_int tt.Mk_obs.Profile.t_epochs;
          Printf.sprintf "%.1f" (Mk_obs.Profile.events_per_epoch tt);
          pct (Mk_obs.Profile.null_pct tt);
          pct (Mk_obs.Profile.stall_pct ~shards tt);
          Printf.sprintf "%.2f" (Mk_obs.Profile.horizon_utilization tt);
          string_of_int tt.Mk_obs.Profile.t_max_backlog;
        ])
      rows
  in
  "hot scenarios (by simulated events)\n" ^ Table.render ~header body

let profile_json ~nodes ~shards ~seed rows =
  Json.Obj
    [
      ("schema", Json.String "multikernel-profile-report/1");
      ("nodes", Json.Int nodes);
      ("shards", Json.Int shards);
      ("seed", Json.Int seed);
      ( "scenarios",
        Json.List
          (List.map
             (fun (label, p) ->
               Json.Obj
                 [
                   ("scenario", Json.String label);
                   ("profile", Mk_obs.Profile.to_json p);
                 ])
             rows) );
      ( "attribution",
        Mk_obs.Profile.attribution_json ~shards
          (List.map (fun (l, p) -> (l, Mk_obs.Profile.totals p)) rows) );
    ]
