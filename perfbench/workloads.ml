(* The three workloads: inputs generated from the seed, one timed pass
   each, and the output checks.  Every check is one attempted
   operation; a mismatch counts as failed and never aborts the run. *)

open Multikernel
module Json = Engine.Json
module Experiment = Cluster.Experiment

type checks = { mutable attempted : int; mutable failed : int; mutable notes : string list }

let checks () = { attempted = 0; failed = 0; notes = [] }

let check ck ok what =
  ck.attempted <- ck.attempted + 1;
  if not ok then begin
    ck.failed <- ck.failed + 1;
    if List.length ck.notes < 20 then ck.notes <- what :: ck.notes
  end

(* Run one operation; an exception counts as a failure of it. *)
let guarded ck what f =
  match f () with
  | v -> Some v
  | exception e ->
      check ck false (what ^ ": " ^ Printexc.to_string e);
      None

(* What one run reports: when setup ended, its checks and metrics. *)
type result = {
  first_call_at : float;
  ck : checks;
  metrics : (string * float) list;
}

(* The 2-executor pool of des and observed: one worker domain plus the
   submitting one. *)
let new_pool () = Engine.Pool.create ~num_domains:1 ()

let with_pool f =
  let pool = new_pool () in
  Fun.protect ~finally:(fun () -> Engine.Pool.shutdown pool) (fun () -> f pool)

let md5 s = Digest.to_hex (Digest.string s)
let kernel_key (sc : Cluster.Scenario.t) = String.lowercase_ascii sc.label

let app_keys =
  [ "amg"; "ccs-qcd"; "geofem"; "hpcg"; "lammps"; "milc"; "minife"; "lulesh" ]

(* The short name Apps.Registry.find resolves to this app. *)
let app_key (app : Apps.App.t) =
  List.find
    (fun k ->
      match Apps.Registry.find k with
      | Some a -> a.Apps.App.name = app.name
      | None -> false)
    app_keys

(* ------------------------------------------------------------------ *)
(* Expected outputs, committed per (workload, seed) *)

let expected_path ~dir ~workload ~seed =
  Filename.concat dir (Printf.sprintf "%s-%d.json" workload seed)

let load_expected ~dir ~workload ~seed =
  let path = expected_path ~dir ~workload ~seed in
  if Sys.file_exists path then Some (Engine.Atomic_file.read_json path) else None

let field name = function
  | Json.Obj kvs -> List.assoc_opt name kvs
  | _ -> None

let string_field name j =
  match field name j with Some (Json.String s) -> Some s | _ -> None

let same_keys a b = List.sort compare a = List.sort compare b

(* A sub-object of string leaves as an association list. *)
let string_map name j =
  match field name j with
  | Some (Json.Obj kvs) ->
      List.filter_map
        (fun (k, v) -> match v with Json.String s -> Some (k, s) | _ -> None)
        kvs
  | _ -> []

(* ------------------------------------------------------------------ *)
(* Call counts of one Driver run *)

(* What one Cluster.Driver run of [app] on [nodes] nodes does, computed
   from the app model the way Cluster.Driver walks it: every iteration
   applies every sync point, and each one draws a straggler delay per
   node (one draw per node per iteration when there is none). *)
type model = {
  node_iters : int;
  syncs : int;  (** sync points per iteration, at least 1 *)
  yields : int;  (** sched_yield calls per rank and iteration *)
  draws : int;  (** Injector.max_delay calls *)
  allreduces : int;  (** Collective.allreduce calls *)
  halos : int;  (** P2p.halo calls *)
  trace_ops : int;  (** ops replayed through Node.run_ops *)
}

let sim_iters (app : Apps.App.t) = max 2 (min app.sim_iterations app.iterations)

let model (app : Apps.App.t) ~nodes =
  let iters = sim_iters app in
  let allreduce, halo, yields =
    List.fold_left
      (fun (a, h, y) -> function
        | Apps.App.Allreduce { count; _ } -> (a + count, h, y)
        | Apps.App.Halo _ -> (a, h + 1, y)
        | Apps.App.Yields n -> (a, h, y + n)
        | _ -> (a, h, y))
      (0, 0, 0) (app.iteration ~nodes)
  in
  let trace_ops =
    match app.trace with
    | None -> 0
    | Some trace ->
        app.ranks_per_node
        * List.fold_left
            (fun acc i -> acc + List.length (trace ~nodes ~iteration:i))
            0
            (List.init (iters + 1) (fun i -> i - 1))
  in
  let syncs = max 1 (allreduce + halo) in
  {
    node_iters = nodes * iters;
    syncs;
    yields;
    draws = nodes * iters * syncs;
    allreduces = iters * allreduce;
    halos = iters * halo;
    trace_ops;
  }

(* The draws of [runs] Driver runs of one cell, whose median run is
   [r], as Ledger prices them.  Cluster.Driver draws at the compute
   window between two sync points plus the previous iteration's mean
   sync cost.  A steady iteration, less its sched_yield calls, over
   its sync points bounds that from above: it still holds the largest
   straggler delay of each sync point and Lulesh's heap replay. *)
let driver_draws (app : Apps.App.t) (sc : Cluster.Scenario.t) m ~runs
    (r : Cluster.Driver.result) =
  let os = sc.make () in
  let yield_ns =
    match Kernel.Os.syscall_time os ~core:10 Syscall.Sysno.Sched_yield with
    | Ok t -> m.yields * t
    | Error `Enosys -> 0
  in
  {
    Ledger.kernel = kernel_key sc;
    profile = os.Kernel.Os.app_noise;
    dur = (r.steady_iteration - yield_ns) / m.syncs;
    ranks = app.ranks_per_node * app.threads_per_rank;
    count = float_of_int (runs * m.draws);
  }

(* ------------------------------------------------------------------ *)
(* paper: the full evaluation grid, sequential, no recorder *)

module Paper = struct
  type cell = {
    app : Apps.App.t;
    cell : Experiment.cell;
    key : string;  (** app/kernel/nodes *)
    m : model;
  }

  let make ~seed =
    Experiment.suite_cells ~runs:1 ~seed ()
    |> List.concat_map (fun (app, cells) ->
           List.map
             (fun (c : Experiment.cell) ->
               {
                 app;
                 cell = c;
                 key =
                   Printf.sprintf "%s/%s/%d" (app_key app) (kernel_key c.scenario)
                     c.nodes;
                 m = model app ~nodes:c.nodes;
               })
             cells)
    |> Array.of_list

  let run ?obs c =
    match Experiment.points ?obs [ c.cell ] with
    | [ p ] -> p
    | _ -> failwith "Experiment.points: expected one point"

  let digest p = md5 (Json.to_string (Experiment.point_to_json p))

  let draw_points c (p : Experiment.point) =
    driver_draws c.app c.cell.scenario c.m ~runs:1 p.median_result

  let sane c (p : Experiment.point) =
    p.nodes = c.cell.nodes
    && Float.is_finite p.median_fom
    && p.median_fom > 0.0
    && p.min_fom <= p.median_fom
    && p.median_fom <= p.max_fom

  (* Checks one result of cell [i]: sane, equal to the committed
     digest when this seed has committed outputs, and equal to the
     first result this process computed for the cell (determinism). *)
  let verify ck ~expected ~first c i p =
    let d = digest p in
    check ck (sane c p) (c.key ^ ": implausible point");
    (match expected with
    | None -> ()
    | Some digests -> (
        match List.assoc_opt c.key digests with
        | Some e -> check ck (e = d) (c.key ^ ": differs from committed output")
        | None -> check ck false (c.key ^ ": no committed output")));
    match first.(i) with
    | None -> first.(i) <- Some d
    | Some f -> check ck (f = d) (c.key ^ ": differs from its first run")

  (* The committed digests of a seed's file, checked once to name
     exactly the cells of the grid. *)
  let expected ck cells =
    Option.map (fun j ->
        let digests = string_map "cells" j in
        check ck
          (same_keys (List.map fst digests) (List.map (fun c -> c.key) (Array.to_list cells)))
          "paper: committed cells differ from the grid";
        digests)

  let record cells =
    [
      ( "cells",
        Json.Obj
          (Array.to_list
             (Array.map (fun c -> (c.key, Json.String (digest (run c)))) cells)) );
    ]
end

(* ------------------------------------------------------------------ *)
(* des: serial vs sharded event-driven allreduce beyond 2,048 nodes *)

module Des = struct
  let nodes = 8192
  let shards = 2

  (* Experiment.des_checks' workload, spelled out for the traced run's
     direct calls. *)
  let ranks_per_node = 64
  let window = 2 * Engine.Units.ms
  let iterations = 10

  let node_iters = List.length Cluster.Scenario.trio * 2 * nodes * iterations

  (* Each kernel's draws in one pass: both loops draw once per node
     per iteration, over ranks_per_node stragglers. *)
  let draw_points () =
    List.map
      (fun (sc : Cluster.Scenario.t) ->
        {
          Ledger.kernel = kernel_key sc;
          profile = (sc.make ()).Kernel.Os.app_noise;
          dur = window;
          ranks = ranks_per_node;
          count = float_of_int (2 * nodes * iterations);
        })
      Cluster.Scenario.trio

  let run ~pool ~seed = Experiment.des_checks ~pool ~nodes ~shards ~seed ()

  let result_json (r : Cluster.Cluster_des.result) =
    Json.List [ Json.Int r.completion; Json.Int r.messages ]

  let check_json (c : Experiment.des_check) =
    Json.Obj [ ("serial", result_json c.serial); ("sharded", result_json c.sharded) ]

  (* Checks one pass: the committed file, when this seed has one,
     names exactly the scenarios run; each scenario's sharded result
     equals its serial one, the committed one and its first run's. *)
  let verify ck ~expected ~first checks =
    let committed =
      Option.map
        (fun j -> match field "scenarios" j with Some (Json.Obj kvs) -> kvs | _ -> [])
        expected
    in
    Option.iter
      (fun kvs ->
        check ck
          (same_keys (List.map fst kvs)
             (List.map (fun (c : Experiment.des_check) -> c.des_scenario) checks))
          "des: committed scenarios differ from the ones run")
      committed;
    List.iter
      (fun (c : Experiment.des_check) ->
        let name = c.des_scenario in
        check ck (Experiment.des_identical c) (name ^ ": sharded diverges from serial");
        let got = Json.to_string (check_json c) in
        Option.iter
          (fun kvs ->
            match List.assoc_opt name kvs with
            | Some e ->
                check ck (Json.to_string e = got) (name ^ ": differs from committed output")
            | None -> check ck false (name ^ ": no committed output"))
          committed;
        match Hashtbl.find_opt first name with
        | None -> Hashtbl.add first name got
        | Some f -> check ck (f = got) (name ^ ": differs from its first run"))
      checks

  let record ~pool ~seed =
    [
      ("nodes", Json.Int nodes);
      ("shards", Json.Int shards);
      ( "scenarios",
        Json.Obj
          (List.map
             (fun (c : Experiment.des_check) -> (c.des_scenario, check_json c))
             (run ~pool ~seed)) );
    ]
end

(* ------------------------------------------------------------------ *)
(* observed: traced + metered MiniFE comparison on the pool, with the
   Perfetto trace and metrics document rendered and written *)

module Observed = struct
  let app = Option.get (Apps.Registry.find "minife")
  let node_counts = [ 64; 256; 1024 ]
  let runs = 2

  (* (kernel, nodes, model) of every Driver run in one pass. *)
  let runs_model =
    List.concat_map
      (fun sc ->
        List.concat_map
          (fun nodes -> List.init runs (fun _ -> (kernel_key sc, nodes, model app ~nodes)))
          node_counts)
      Cluster.Scenario.trio

  let node_iters = List.fold_left (fun s (_, _, m) -> s + m.node_iters) 0 runs_model

  type out = {
    coll : Obs.Collect.t;
    series : Experiment.series list;
    trace : string;
    metrics : string;
  }

  let draw_points o =
    List.concat_map
      (fun (s : Experiment.series) ->
        let sc =
          List.find
            (fun (sc : Cluster.Scenario.t) -> sc.label = s.scenario_label)
            Cluster.Scenario.trio
        in
        List.map
          (fun (p : Experiment.point) ->
            driver_draws app sc (model app ~nodes:p.nodes) ~runs p.median_result)
          s.points)
      o.series

  let span sp name f =
    match sp with None -> f () | Some sp -> Measure.span sp name f

  (* One pass; [sp] wraps each call into the program in a span. *)
  let run ?sp ~pool ~seed ~out_dir () =
    let coll = Obs.Collect.create ~trace:true () in
    let series =
      span sp "Experiment.compare_scenarios" (fun () ->
          Experiment.compare_scenarios ~pool ~obs:coll
            ~scenarios:Cluster.Scenario.trio ~app ~node_counts ~runs ~seed ())
    in
    let doc = span sp "Collect.trace_json" (fun () -> Obs.Collect.trace_json coll) in
    let trace =
      span sp "Json.to_string_pretty" (fun () -> Json.to_string_pretty doc ^ "\n")
    in
    span sp "Atomic_file.write" (fun () ->
        Engine.Atomic_file.write (Filename.concat out_dir "trace.json") trace);
    let metrics =
      span sp "Report.suite_json" (fun () ->
          Json.to_string_pretty
            (Cluster.Report.suite_json ~runs ~seed ~obs:coll [ (app, series) ])
          ^ "\n")
    in
    span sp "Atomic_file.write" (fun () ->
        Engine.Atomic_file.write (Filename.concat out_dir "metrics.json") metrics);
    { coll; series; trace; metrics }

  (* The same comparison with observability off: the base of
     obs.overhead_frac. *)
  let run_plain ~pool ~seed =
    ignore
      (Experiment.compare_scenarios ~pool ~scenarios:Cluster.Scenario.trio ~app
         ~node_counts ~runs ~seed ())

  let parses s = match Json.of_string s with Ok _ -> true | Error _ -> false

  (* Both documents must parse (checked on the first pass only, to
     keep parsing out of the loop), match the committed digests and
     repeat exactly. *)
  let verify ck ~expected ~first o =
    let got = [ ("trace", md5 o.trace); ("metrics", md5 o.metrics) ] in
    if !first = [] then begin
      check ck (parses o.trace) "trace: not valid JSON";
      check ck (parses o.metrics) "metrics: not valid JSON"
    end;
    List.iter
      (fun (name, d) ->
        (match expected with
        | Some j -> (
            match string_field name j with
            | Some e -> check ck (e = d) (name ^ ": differs from committed output")
            | None -> check ck false (name ^ ": no committed output"))
        | None -> ());
        match List.assoc_opt name !first with
        | None -> first := (name, d) :: !first
        | Some f -> check ck (f = d) (name ^ ": differs from its first run"))
      got

  let record ~pool ~seed ~out_dir =
    let o = run ~pool ~seed ~out_dir () in
    [ ("trace", Json.String (md5 o.trace)); ("metrics", Json.String (md5 o.metrics)) ]
end
