(* The traced run: per-layer numbers for one workload, kept apart from
   the end-to-end runs.  They come from three sources:
   - spans around this benchmark's own calls into the program, plus a
     SIGPROF stack sampler for the per-layer shares ("sampled");
   - the per-op ledger (Ledger), multiplied by the workload's call
     counts ("computed");
   - the program's own Mk_obs counters and Engine.Pool.stats.
   Each workload runs untraced (A), traced (B) and, where the program
   has a recorder to switch on, metered (C), so the tracing overhead is
   B - A and the recorder's overhead is C / A - 1. *)

open Multikernel
open Workloads

(* Every per-layer metric, reported on every workload; 0 where the
   workload does not reach the layer. *)
let names =
  [
    "cluster.share"; "cluster.cells"; "cluster.cell_s.linux";
    "cluster.cell_s.mckernel"; "cluster.cell_s.mos"; "cluster.cell_s.amg";
    "cluster.cell_s.ccs-qcd"; "cluster.cell_s.geofem"; "cluster.cell_s.hpcg";
    "cluster.cell_s.lammps"; "cluster.cell_s.milc"; "cluster.cell_s.minife";
    "cluster.cell_s.lulesh"; "cluster.cell_s_max";
    "noise.share"; "rng.share"; "noise.draws"; "noise.strikes";
    "noise.ns_per_draw.linux"; "noise.ns_per_draw.mos";
    "noise.words_per_draw.linux"; "noise.words_per_draw.mos";
    "rng.ns_per_call"; "rng.words_per_call"; "rng.calls_per_draw.linux";
    "rng.calls_per_draw.mos";
    "mpi.share"; "mpi.allreduce_calls"; "mpi.halo_calls"; "mpi.ns_per_allreduce";
    "mpi.words_per_allreduce"; "mpi.ns_per_halo"; "mpi.words_per_halo";
    "mem.share"; "mem.demand_faults"; "mem.brk_ops"; "node.trace_ops";
    "node.ns_per_trace_op"; "node.words_per_trace_op"; "mem.pages_per_s";
    "sim.share"; "sim.events"; "sim.events_per_s"; "sim.words_per_event";
    "shard.share"; "shard.vs_serial"; "shard.epochs"; "shard.null_messages";
    "shard.cross_messages"; "shard.horizon_stalls"; "shard.fast_forwarded";
    "shard.useful_frac";
    "pool.share"; "pool.tasks"; "pool.steals"; "pool.failed_steals";
    "pool.steal_success"; "pool.imbalance"; "pool.busy_frac";
    "obs.share"; "obs.events"; "obs.trace_bytes"; "obs.overhead_frac";
    "obs.trace_json_s"; "obs.render_s"; "obs.write_s"; "obs.suite_json_s";
    "obs.hook_disabled_ns"; "obs.hook_enabled_ns";
    "gc.minor_collections"; "gc.major_collections"; "gc.promoted_mb";
    "other.share"; "unattributed.share";
    "trace.samples"; "trace.wall_s"; "trace.untraced_wall_s"; "trace.overhead_s";
    "trace.overhead_frac";
    "ledger.rng_calls"; "ledger.rng_s"; "ledger.rng_mb"; "ledger.noise_s";
    "ledger.noise_mb"; "ledger.allreduce_s"; "ledger.allreduce_mb";
    "ledger.halo_s"; "ledger.halo_mb"; "ledger.trace_op_s"; "ledger.trace_op_mb";
  ]

type table = (string, float) Hashtbl.t

let set (t : table) name v =
  if not (Hashtbl.mem t name) then invalid_arg ("Traced.set: unknown " ^ name);
  Hashtbl.replace t name v

let get (t : table) name = Hashtbl.find t name
let fi = float_of_int
let mb = Measure.mb_of_words
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ------------------------------------------------------------------ *)
(* Shared pieces *)

let set_shares t =
  let s = Measure.share in
  set t "cluster.share" (s "cluster");
  set t "noise.share" (s "noise" +. s "rng");
  set t "rng.share" (s "rng");
  List.iter
    (fun l -> set t (l ^ ".share") (s l))
    [ "mpi"; "mem"; "sim"; "shard"; "pool"; "obs"; "other"; "unattributed" ];
  set t "trace.samples" (fi Measure.sampler.samples)

(* Sum of every counter of a metrics snapshot, by "subsystem/name". *)
let add_counters acc bindings =
  List.iter
    (fun ((k : Obs.Key.t), v) ->
      match v with
      | Obs.Metrics.Counter n ->
          let key = k.subsystem ^ "/" ^ k.name in
          Hashtbl.replace acc key
            (n + Option.value (Hashtbl.find_opt acc key) ~default:0)
      | _ -> ())
    bindings

let set_counters t acc =
  let c name = fi (Option.value (Hashtbl.find_opt acc name) ~default:0) in
  set t "mpi.allreduce_calls" (c "mpi/allreduce_calls");
  set t "mpi.halo_calls" (c "mpi/halo_calls");
  set t "mem.demand_faults" (c "mem/demand_faults");
  set t "mem.brk_ops" (c "mem/brk_queries" +. c "mem/brk_grows" +. c "mem/brk_shrinks");
  set t "noise.strikes"
    (Hashtbl.fold
       (fun k v s ->
         if String.starts_with ~prefix:"noise/injections:" k then s +. fi v else s)
       acc 0.0)

(* Every sampled stack must fall in a simulator layer, so that no
   layer's time goes unattributed. *)
let check_attribution ck =
  let samples = Measure.sampler.samples and lost = Measure.share "unattributed" in
  check ck
    (samples >= 100 && lost <= 0.02)
    (Printf.sprintf "trace: %d samples, %.1f%% in no simulator layer (limit 2%%)" samples
       (100.0 *. lost))

(* The per-op ledger and its products with this workload's call counts
   ("computed"), set as metrics and printed as a table.  [runs] lists
   (kernel, nodes, model) for every Driver run or DES loop of one
   pass.  Draws are priced at the workload's own windows and straggler
   counts (Ledger.measure ~points).  Collective and halo costs grow
   with the node count, so their calls are counted in 2,048-node
   equivalents (calls x nodes / 2,048) against the 2,048-node cost. *)
let set_ledger t (l : Ledger.t) ~runs =
  List.iter
    (fun k ->
      let d = Ledger.draws l k in
      set t ("noise.ns_per_draw." ^ k) d.cost.ns;
      set t ("noise.words_per_draw." ^ k) d.cost.words;
      set t ("rng.calls_per_draw." ^ k) d.rng_calls)
    [ "linux"; "mos" ];
  set t "rng.ns_per_call" l.rng.ns;
  set t "rng.words_per_call" l.rng.words;
  set t "mpi.ns_per_allreduce" l.allreduce.ns;
  set t "mpi.words_per_allreduce" l.allreduce.words;
  set t "mpi.ns_per_halo" l.halo.ns;
  set t "mpi.words_per_halo" l.halo.words;
  set t "node.ns_per_trace_op" l.trace_op.ns;
  set t "node.words_per_trace_op" l.trace_op.words;
  set t "mem.pages_per_s" l.pages_per_s;
  set t "obs.hook_disabled_ns" l.hook_disabled.ns;
  set t "obs.hook_enabled_ns" l.hook_enabled.ns;
  let sum f = List.fold_left (fun s r -> s +. f r) 0.0 runs in
  let scaled count (_, nodes, m) = fi (count m) *. fi nodes /. fi Ledger.nodes in
  set t "noise.draws" (sum (fun (_, _, m) -> fi m.draws));
  Printf.printf "%-30s %12s %10s %14s %10s %10s\n" "ledger (computed)" "ns/op" "words/op"
    "calls" "s" "MB";
  let row op calls (c : Ledger.op_cost) =
    Printf.printf "%-30s %12.1f %10.1f %14.0f %10.3f %10.1f\n" op c.ns c.words calls
      (calls *. c.ns *. 1e-9)
      (mb (calls *. c.words))
  in
  let product name op calls (c : Ledger.op_cost) =
    row op calls c;
    set t ("ledger." ^ name ^ "_s") (calls *. c.ns *. 1e-9);
    set t ("ledger." ^ name ^ "_mb") (mb (calls *. c.words))
  in
  List.iter
    (fun (k, (d : Ledger.draws)) -> row ("Injector.max_delay " ^ k) d.count d.cost)
    l.draws;
  let draw_sum f =
    List.fold_left (fun s (_, (d : Ledger.draws)) -> s +. (d.count *. f d)) 0.0 l.draws
  in
  set t "ledger.noise_s" (draw_sum (fun d -> d.cost.ns) *. 1e-9);
  set t "ledger.noise_mb" (mb (draw_sum (fun d -> d.cost.words)));
  let rng_calls = draw_sum (fun d -> d.rng_calls) in
  set t "ledger.rng_calls" rng_calls;
  product "rng" "Rng.bits64 (in max_delay)" rng_calls l.rng;
  product "allreduce" "Collective.allreduce 2048n" (sum (scaled (fun m -> m.allreduces)))
    l.allreduce;
  product "halo" "P2p.halo 2048n" (sum (scaled (fun m -> m.halos))) l.halo;
  let trace_ops = sum (fun (_, _, m) -> fi m.trace_ops) in
  set t "node.trace_ops" trace_ops;
  product "trace_op" "Node.run_ops (per op)" trace_ops l.trace_op;
  Printf.printf
    "(max_delay priced per kernel at this workload's windows and stragglers, \
     McKernel's silent profile left out; bits64 calls per draw: %s; \
     collective and halo calls in 2,048-node equivalents)\n\
     *.share: sampled by SIGPROF, on the domain that takes the signal\n"
    (String.concat ", "
       (List.map
          (fun (k, (d : Ledger.draws)) -> Printf.sprintf "%s %.2f" k d.rng_calls)
          l.draws))

let set_gc t (c : Measure.cost) =
  set t "gc.minor_collections" (fi c.minor_gcs);
  set t "gc.major_collections" (fi c.major_gcs);
  set t "gc.promoted_mb" (mb c.promoted)

let set_overhead t ~traced ~untraced =
  set t "trace.wall_s" traced;
  set t "trace.untraced_wall_s" untraced;
  set t "trace.overhead_s" (traced -. untraced);
  set t "trace.overhead_frac" (ratio (traced -. untraced) untraced)

(* Pool.stats over a phase: [busy] is process CPU over executor time,
   which counts stealing and GC work as busy (idle workers block). *)
let set_pool t (s : Engine.Pool.stats) ~(cost : Measure.cost) =
  let sum a = Array.fold_left ( + ) 0 a in
  let tasks = sum s.executed in
  let steals = sum s.steals and failed = sum s.failed_steals in
  set t "pool.tasks" (fi tasks);
  set t "pool.steals" (fi steals);
  set t "pool.failed_steals" (fi failed);
  set t "pool.steal_success" (ratio (fi steals) (fi (steals + failed)));
  set t "pool.imbalance"
    (ratio (fi (Array.fold_left max 0 s.executed)) (fi tasks /. fi s.executors));
  set t "pool.busy_frac" (ratio cost.cpu (fi s.executors *. cost.wall))

(* ------------------------------------------------------------------ *)
(* paper *)

let paper t ck ~seed ~expected_dir =
  let cells = Paper.make ~seed in
  let first_call_at = Measure.now () in
  let expected =
    Paper.expected ck cells (load_expected ~dir:expected_dir ~workload:"paper" ~seed)
  in
  let first = Array.make (Array.length cells) None in
  let counters = Hashtbl.create 64 in
  (* One cell run, timed; its output is checked outside the timing. *)
  let attempt i (c : Paper.cell) f =
    let p, cost = Measure.measure (fun () -> guarded ck c.key (fun () -> f c)) in
    Option.iter (Paper.verify ck ~expected ~first c i) p;
    (p, cost)
  in
  (* Per cell: A untraced, B sampled (its timed call is the cell's
     span), C metered through the program's own recorder — back to
     back, so drift in host speed cancels out of B - A and C / A. *)
  Gc.full_major ();
  let runs =
    Array.mapi
      (fun i c ->
        let a = attempt i c (fun c -> Paper.run c) in
        let _, b =
          attempt i c (fun c -> Measure.sampled (fun () -> Paper.run c))
        in
        let _, m =
          attempt i c (fun cell ->
              let coll = Obs.Collect.create () in
              let p = Paper.run ~obs:coll cell in
              add_counters counters (Obs.Collect.bindings coll);
              p)
        in
        (a, b, m))
      cells
  in
  let total pick = Array.fold_left (fun acc r -> Measure.add acc (pick r)) Measure.zero runs in
  let a = total (fun ((_, a), _, _) -> a) and c = total (fun (_, _, m) -> m) in
  let b_wall = (total (fun (_, b, _) -> b)).wall in
  set_shares t;
  check_attribution ck;
  set_counters t counters;
  set t "cluster.cells" (fi (Array.length cells));
  Array.iteri
    (fun i (cell : Paper.cell) ->
      let _, (b : Measure.cost), _ = runs.(i) in
      List.iter
        (fun k -> set t k (get t k +. b.wall))
        [
          "cluster.cell_s." ^ kernel_key cell.cell.scenario;
          "cluster.cell_s." ^ app_key cell.app;
        ];
      set t "cluster.cell_s_max" (Float.max b.wall (get t "cluster.cell_s_max")))
    cells;
  set_overhead t ~traced:b_wall ~untraced:a.wall;
  set t "obs.overhead_frac" (ratio c.wall a.wall -. 1.0);
  set_gc t a;
  let points =
    List.concat
      (Array.to_list
         (Array.mapi
            (fun i cell ->
              match runs.(i) with
              | (Some p, _), _, _ -> [ Paper.draw_points cell p ]
              | (None, _), _, _ -> [])
            cells))
  in
  set_ledger t (Ledger.measure ~seed ~points)
    ~runs:
      (Array.to_list
         (Array.map
            (fun (c : Paper.cell) -> (kernel_key c.cell.scenario, c.cell.nodes, c.m))
            cells));
  first_call_at

(* ------------------------------------------------------------------ *)
(* des *)

(* Repeat [round] until [seconds] have passed, at least once. *)
let rounds ~seconds round =
  let deadline = Measure.now () +. seconds in
  let rec go acc =
    let acc = round () :: acc in
    if Measure.now () >= deadline then List.rev acc else go acc
  in
  go []

(* [f] timed from a collected heap, as each untraced pass is. *)
let timed f =
  Gc.full_major ();
  Measure.measure f

let median_of f xs = Measure.median (List.map f xs)

type des_round = {
  a : Measure.cost;  (** untraced des_checks *)
  a_pool : Engine.Pool.stats;
  loops : (string * Measure.cost * Measure.cost) list;  (** kernel, serial, sharded *)
  stats : Cluster.Cluster_des.sharding list;
  b_wall : float;
  c : Measure.cost;  (** des_checks under a recorder *)
  recorder : Obs.Recorder.t;
}

let des t ck ~seed ~seconds ~expected_dir =
  let pool = new_pool () in
  let inputs = Cluster.Scenario.trio in
  let first_call_at = Measure.now () in
  let expected = load_expected ~dir:expected_dir ~workload:"des" ~seed in
  let first = Hashtbl.create 3 in
  let des_checks () = guarded ck "des_checks" (fun () -> Des.run ~pool ~seed) in
  (* B: what des_checks does for each kernel, with the serial and
     sharded loops called directly, each timed. *)
  let loop (sc : Cluster.Scenario.t) =
    let label = sc.label in
    let profile = (sc.make ()).Kernel.Os.app_noise in
    let fabric = Fabric.Fabric.make ~nodes:Des.nodes () in
    let nodes = Des.nodes and ranks_per_node = Des.ranks_per_node in
    let window = Des.window and iterations = Des.iterations in
    let s, sc =
      Measure.measure (fun () ->
          Cluster.Cluster_des.allreduce_loop ~nodes ~ranks_per_node ~threads_per_rank:1
            ~window ~iterations ~bytes:8 ~profile ~fabric ~seed)
    in
    let (h, st), hc =
      Measure.measure (fun () ->
          Cluster.Cluster_des.sharded_allreduce_loop ~pool ~shards:Des.shards ~nodes
            ~ranks_per_node ~threads_per_rank:1 ~window ~iterations ~bytes:8 ~profile
            ~fabric ~seed ())
    in
    ( {
        Cluster.Experiment.des_scenario = label;
        des_nodes = Des.nodes;
        des_shards = Des.shards;
        serial = s;
        sharded = h;
        des_stats = st;
      },
      (String.lowercase_ascii label, sc, hc) )
  in
  let round () =
    Engine.Pool.reset_stats pool;
    let a_checks, a = timed des_checks in
    let a_pool = Engine.Pool.stats pool in
    Option.iter (Des.verify ck ~expected ~first) a_checks;
    let b, b_cost = timed (fun () -> Measure.sampled (fun () -> List.map loop inputs)) in
    Des.verify ck ~expected ~first (List.map fst b);
    let recorder = Obs.Recorder.make ~label:"des" ~nodes:Des.nodes ~seed () in
    let c_checks, c =
      timed (fun () -> Obs.Hook.with_recorder recorder des_checks)
    in
    Option.iter (Des.verify ck ~expected ~first) c_checks;
    {
      a;
      a_pool;
      loops = List.map snd b;
      stats = List.map (fun ((c : Cluster.Experiment.des_check), _) -> c.des_stats) b;
      b_wall = b_cost.wall;
      c;
      recorder;
    }
  in
  let rs = rounds ~seconds round in
  Engine.Pool.shutdown pool;
  let last = List.nth rs (List.length rs - 1) in
  let a = Measure.median_cost (List.map (fun r -> r.a) rs) in
  let counters = Hashtbl.create 16 in
  add_counters counters (Obs.Metrics.bindings (Obs.Recorder.metrics last.recorder));
  set_shares t;
  check_attribution ck;
  set_counters t counters;
  set_pool t last.a_pool ~cost:last.a;
  set t "cluster.cells" (fi (List.length inputs));
  (* Per kernel and loop: the median over rounds. *)
  let loop_wall k pick =
    median_of
      (fun r ->
        List.fold_left
          (fun s (k', sc, hc) -> if k' = k then s +. (pick (sc, hc)).Measure.wall else s)
          0.0 r.loops)
      rs
  in
  List.iter
    (fun (k, _, _) ->
      let serial = loop_wall k fst and sharded = loop_wall k snd in
      set t ("cluster.cell_s." ^ k) (serial +. sharded);
      set t "cluster.cell_s_max"
        (Float.max (get t "cluster.cell_s_max") (Float.max serial sharded)))
    last.loops;
  let total pick r =
    List.fold_left (fun s (_, sc, hc) -> Measure.add s (pick (sc, hc))) Measure.zero r.loops
  in
  let serial = Measure.median_cost (List.map (total fst) rs) in
  let sharded = Measure.median_cost (List.map (total snd) rs) in
  let sum f = List.fold_left (fun s st -> s + f st) 0 last.stats in
  let events = sum (fun (s : Cluster.Cluster_des.sharding) -> s.shard_events) in
  let nulls = sum (fun s -> s.null_messages) in
  set t "sim.events" (fi events);
  set t "sim.events_per_s" (ratio (fi events) sharded.wall);
  set t "sim.words_per_event" (ratio sharded.words (fi events));
  set t "shard.vs_serial" (ratio serial.wall sharded.wall);
  set t "shard.epochs" (fi (sum (fun s -> s.epochs)));
  set t "shard.null_messages" (fi nulls);
  set t "shard.cross_messages" (fi (sum (fun s -> s.cross_messages)));
  set t "shard.horizon_stalls" (fi (sum (fun s -> s.horizon_stalls)));
  set t "shard.fast_forwarded" (fi (sum (fun s -> s.fast_forwarded)));
  set t "shard.useful_frac" (ratio (fi events) (fi (events + nulls)));
  set_overhead t ~traced:(median_of (fun r -> r.b_wall) rs) ~untraced:a.wall;
  set t "obs.overhead_frac" (ratio (median_of (fun r -> r.c.wall) rs) a.wall -. 1.0);
  set_gc t a;
  (* One draw per node per iteration in each of the two loops. *)
  let loop_model (sc : Cluster.Scenario.t) =
    ( kernel_key sc,
      Des.nodes,
      {
        node_iters = Des.nodes * Des.iterations;
        syncs = 1;
        yields = 0;
        draws = Des.nodes * Des.iterations;
        allreduces = 0;
        halos = 0;
        trace_ops = 0;
      } )
  in
  set_ledger t
    (Ledger.measure ~seed ~points:(Des.draw_points ()))
    ~runs:(List.concat_map (fun i -> [ loop_model i; loop_model i ]) inputs);
  first_call_at

(* ------------------------------------------------------------------ *)
(* observed *)

type observed_round = {
  a : Measure.cost;  (** the workload pass, untraced *)
  a_pool : Engine.Pool.stats;
  b : Measure.cost;  (** the same, sampled and spanned *)
  d : Measure.cost;  (** the comparison alone, no observability *)
}

let observed t ck ~seed ~seconds ~expected_dir ~out_dir =
  let pool = new_pool () in
  let first_call_at = Measure.now () in
  let expected = load_expected ~dir:expected_dir ~workload:"observed" ~seed in
  let first = ref [] in
  let sp = Measure.spans () in
  let last = ref None in
  let run ?sp () =
    let o, cost =
      timed (fun () ->
          guarded ck "observed" (fun () -> Observed.run ?sp ~pool ~seed ~out_dir ()))
    in
    Option.iter
      (fun o ->
        Observed.verify ck ~expected ~first o;
        last := Some o)
      o;
    cost
  in
  (* A, B and D interleaved, so drift in host speed hits all alike. *)
  let round () =
    Engine.Pool.reset_stats pool;
    let a = run () in
    let a_pool = Engine.Pool.stats pool in
    let b = Measure.sampled (fun () -> run ~sp ()) in
    let _, d = timed (fun () -> Observed.run_plain ~pool ~seed) in
    { a; a_pool; b; d }
  in
  let rs = rounds ~seconds round in
  Engine.Pool.shutdown pool;
  let a = Measure.median_cost (List.map (fun r -> r.a) rs) in
  let counters = Hashtbl.create 64 in
  (match !last with
  | Some o ->
      add_counters counters (Obs.Collect.bindings o.coll);
      set t "obs.events" (fi (List.length (Obs.Collect.events o.coll)));
      set t "obs.trace_bytes" (fi (String.length o.trace))
  | None -> ());
  set_shares t;
  check_attribution ck;
  set_counters t counters;
  (match rs with r :: _ -> set_pool t r.a_pool ~cost:r.a | [] -> ());
  set t "cluster.cells"
    (fi (List.length Cluster.Scenario.trio * List.length Observed.node_counts));
  let per_pass name = Measure.span_self sp name /. fi (List.length rs) in
  set t "obs.trace_json_s" (per_pass "Collect.trace_json");
  set t "obs.render_s" (per_pass "Json.to_string_pretty");
  set t "obs.write_s" (per_pass "Atomic_file.write");
  set t "obs.suite_json_s" (per_pass "Report.suite_json");
  set_overhead t ~traced:(median_of (fun r -> r.b.wall) rs) ~untraced:a.wall;
  set t "obs.overhead_frac" (ratio a.wall (median_of (fun r -> r.d.wall) rs) -. 1.0);
  set_gc t a;
  let points = match !last with Some o -> Observed.draw_points o | None -> [] in
  set_ledger t (Ledger.measure ~seed ~points) ~runs:Observed.runs_model;
  first_call_at

let run workload ~seed ~seconds ~expected_dir ~out_dir =
  let t : table = Hashtbl.create 128 in
  List.iter (fun n -> Hashtbl.replace t n 0.0) names;
  let ck = checks () in
  let first_call_at =
    match workload with
    | "paper" -> paper t ck ~seed ~expected_dir
    | "des" -> des t ck ~seed ~seconds ~expected_dir
    | _ -> observed t ck ~seed ~seconds ~expected_dir ~out_dir
  in
  { first_call_at; ck; metrics = List.map (fun n -> (n, get t n)) names }
