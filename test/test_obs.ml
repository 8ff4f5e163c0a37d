(* mk_obs: metric identity and registry semantics, trace ordering and
   Perfetto export, counter attribution against known driver fixtures,
   and the determinism contract — the merged trace and metrics must be
   byte-identical between a sequential and an oversubscribed parallel
   fan-out of the same experiment. *)

open Mk_obs

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let key ?node ~kernel ~subsystem ~name () = Key.v ?node ~kernel ~subsystem ~name ()

(* ------------------------------------------------------------------ *)
(* Key: the total order every export sorts by *)

let test_key_order () =
  let k = key ~kernel:"McKernel" ~subsystem:"mem" ~name:"faults" () in
  check_int "equal keys" 0 (Key.compare k k);
  let lt a b = check_bool "strict order" true (Key.compare a b < 0) in
  lt
    (key ~kernel:"Linux" ~subsystem:"z" ~name:"z" ())
    (key ~kernel:"McKernel" ~subsystem:"a" ~name:"a" ());
  lt
    (key ~kernel:"k" ~subsystem:"mem" ~name:"z" ())
    (key ~node:0 ~kernel:"k" ~subsystem:"aaa" ~name:"a" ());
  lt
    (key ~node:0 ~kernel:"k" ~subsystem:"mem" ~name:"a" ())
    (key ~node:0 ~kernel:"k" ~subsystem:"mem" ~name:"b" ());
  check_bool "job_wide sorts before node 0" true
    (Key.compare
       (key ~kernel:"k" ~subsystem:"s" ~name:"n" ())
       (key ~node:0 ~kernel:"k" ~subsystem:"s" ~name:"n" ())
    < 0)

let test_key_labels () =
  check_string "job-wide label" "*" (Key.node_label Key.job_wide);
  check_string "node label" "3" (Key.node_label 3);
  check_string "to_string" "McKernel/0/mem/demand_faults"
    (Key.to_string (key ~node:0 ~kernel:"McKernel" ~subsystem:"mem"
                      ~name:"demand_faults" ()))

(* ------------------------------------------------------------------ *)
(* Metrics: counters, gauges, histograms, absorb *)

let test_metrics_counters () =
  let m = Metrics.create () in
  let k = key ~kernel:"k" ~subsystem:"s" ~name:"c" () in
  check_int "absent counter reads 0" 0 (Metrics.counter m k);
  Metrics.add m k 2;
  Metrics.add m k 3;
  check_int "counter accumulates" 5 (Metrics.counter m k)

let test_metrics_gauge_histogram () =
  let m = Metrics.create () in
  let g = key ~kernel:"k" ~subsystem:"s" ~name:"g" () in
  Metrics.set_gauge m g 7;
  Metrics.set_gauge m g 3;
  (match List.assoc_opt g (Metrics.bindings m) with
  | Some (Metrics.Gauge { last; peak }) ->
      check_int "gauge last" 3 last;
      check_int "gauge peak" 7 peak
  | _ -> Alcotest.fail "gauge binding missing");
  let h = key ~kernel:"k" ~subsystem:"s" ~name:"h" () in
  List.iter (fun v -> Metrics.observe m h v) [ 1; 4; 4; 100 ];
  match List.assoc_opt h (Metrics.bindings m) with
  | Some (Metrics.Histogram hist) ->
      check_int "histogram count" 4 hist.Metrics.count;
      check_int "histogram sum" 109 hist.Metrics.sum;
      check_int "histogram min" 1 hist.Metrics.min;
      check_int "histogram max" 100 hist.Metrics.max;
      check_int "bucket of 4" (Metrics.bucket_of 4)
        (* two 4s landed in one bucket *)
        (fst
           (List.find (fun (_, n) -> n = 2) hist.Metrics.buckets))
  | _ -> Alcotest.fail "histogram binding missing"

let test_metrics_sorted_and_absorb () =
  (* Insertion order must not leak into bindings. *)
  let build order =
    let m = Metrics.create () in
    List.iter
      (fun name -> Metrics.add m (key ~kernel:"k" ~subsystem:"s" ~name ()) 1)
      order;
    Metrics.bindings m
  in
  check_bool "bindings independent of insertion order" true
    (build [ "a"; "b"; "c" ] = build [ "c"; "a"; "b" ]);
  (* absorb: counters add, gauges keep later last / max peak,
     histograms merge pointwise. *)
  let a = Metrics.create () and b = Metrics.create () in
  let c = key ~kernel:"k" ~subsystem:"s" ~name:"c" () in
  let g = key ~kernel:"k" ~subsystem:"s" ~name:"g" () in
  Metrics.add a c 2;
  Metrics.set_gauge a g 9;
  Metrics.add b c 3;
  Metrics.set_gauge b g 4;
  Metrics.absorb a (Metrics.bindings b);
  check_int "absorbed counter" 5 (Metrics.counter a c);
  match List.assoc_opt g (Metrics.bindings a) with
  | Some (Metrics.Gauge { last; peak }) ->
      check_int "absorbed gauge last" 4 last;
      check_int "absorbed gauge peak" 9 peak
  | _ -> Alcotest.fail "absorbed gauge missing"

(* ------------------------------------------------------------------ *)
(* Trace: (ts, seq) order and the Chrome trace-event document *)

let test_trace_order () =
  let t = Trace.create () in
  Trace.span t ~ts:50 ~dur:10 ~pid:1 ~tid:0 ~cat:"c" ~name:"late" ();
  Trace.instant t ~ts:10 ~pid:1 ~tid:0 ~cat:"c" ~name:"early" ();
  Trace.instant t ~ts:10 ~pid:2 ~tid:0 ~cat:"c" ~name:"early2" ();
  check_int "length" 3 (Trace.length t);
  (match Trace.sort (Trace.events t) with
  | [ a; b; c ] ->
      check_string "ts orders first" "early" a.Trace.name;
      (* equal ts: the stable seq assigned at record time breaks the tie *)
      check_string "seq breaks ties" "early2" b.Trace.name;
      check_string "latest last" "late" c.Trace.name
  | _ -> Alcotest.fail "expected 3 events");
  (* record order is preserved by [events] itself *)
  match Trace.events t with
  | e :: _ -> check_string "record order kept" "late" e.Trace.name
  | [] -> Alcotest.fail "no events"

let test_trace_json_shape () =
  let t = Trace.create () in
  Trace.span t ~ts:1000 ~dur:500 ~pid:1 ~tid:0 ~cat:"phase" ~name:"setup" ();
  Trace.instant t ~ts:2000 ~pid:1 ~tid:1 ~cat:"fault" ~name:"crash" ();
  let doc =
    Trace.to_json
      ~processes:[ (1, "node 0") ]
      ~threads:[ (1, 0, "clock"); (1, 1, "mpi") ]
      (Trace.events t)
  in
  match doc with
  | Mk_engine.Json.Obj fields ->
      (match List.assoc_opt "traceEvents" fields with
      | Some (Mk_engine.Json.List evs) ->
          let ph e =
            match e with
            | Mk_engine.Json.Obj f -> (
                match List.assoc_opt "ph" f with
                | Some (Mk_engine.Json.String s) -> s
                | _ -> "?")
            | _ -> "?"
          in
          let phases = List.map ph evs in
          check_bool "metadata events present" true (List.mem "M" phases);
          check_bool "span present" true (List.mem "X" phases);
          check_bool "instant present" true (List.mem "i" phases);
          (* ts/dur are microseconds: the 1000 ns span must read 1.0/0.5 *)
          List.iter
            (fun e ->
              match e with
              | Mk_engine.Json.Obj f when List.assoc_opt "ph" f = Some (Mk_engine.Json.String "X")
                -> (
                  check_bool "ts in us" true
                    (List.assoc_opt "ts" f = Some (Mk_engine.Json.Float 1.0));
                  match List.assoc_opt "dur" f with
                  | Some (Mk_engine.Json.Float d) ->
                      Alcotest.(check (float 1e-9)) "dur in us" 0.5 d
                  | _ -> Alcotest.fail "span lacks dur")
              | _ -> ())
            evs
      | _ -> Alcotest.fail "no traceEvents list")
  | _ -> Alcotest.fail "trace document is not an object"

let test_perfetto_round_trip () =
  let c = Collect.create ~trace:true () in
  let r = Recorder.make ~trace:true ~label:"McKernel" ~nodes:2 ~seed:1 () in
  Recorder.span r ~ts:10 ~dur:5 ~node:0 ~tid:0 ~cat:"phase" ~name:"setup" ();
  Recorder.instant r ~ts:20 ~node:1 ~tid:0 ~cat:"fault" ~name:"crash" ();
  Recorder.count r ~subsystem:"mem" ~name:"demand_faults" 3;
  Collect.add c (Recorder.snapshot r);
  let s = Mk_engine.Json.to_string (Collect.trace_json c) in
  match Mk_engine.Json.of_string s with
  | Error e -> Alcotest.fail ("trace does not parse back: " ^ e)
  | Ok (Mk_engine.Json.Obj fields) ->
      check_bool "round-trips to the same document" true
        (Mk_engine.Json.of_string s = Ok (Collect.trace_json c));
      (match List.assoc_opt "traceEvents" fields with
      | Some (Mk_engine.Json.List evs) ->
          (* 2 events + process/thread metadata for the tracks used *)
          check_bool "events plus metadata" true (List.length evs > 2)
      | _ -> Alcotest.fail "parsed document lacks traceEvents");
      check_bool "display unit ns" true
        (List.assoc_opt "displayTimeUnit" fields
        = Some (Mk_engine.Json.String "ns"))
  | Ok _ -> Alcotest.fail "parsed document is not an object"

(* ------------------------------------------------------------------ *)
(* Hook: ambient sink installs and restores *)

let test_hook_ambient () =
  check_bool "initially disabled" true (Hook.active () = None);
  Hook.count ~subsystem:"s" ~name:"ignored" 1 (* must be a no-op *);
  let r = Recorder.make ~label:"k" ~nodes:1 ~seed:0 () in
  let inside =
    Hook.with_recorder r (fun () ->
        Hook.count ~subsystem:"s" ~name:"c" 2;
        Hook.count_node ~node:0 ~subsystem:"s" ~name:"c" 1;
        Hook.active () <> None)
  in
  check_bool "active inside" true inside;
  check_bool "restored after" true (Hook.active () = None);
  check_int "job-wide count" 2
    (Metrics.counter (Recorder.metrics r) (key ~kernel:"k" ~subsystem:"s" ~name:"c" ()));
  check_int "node count" 1
    (Metrics.counter (Recorder.metrics r)
       (key ~node:0 ~kernel:"k" ~subsystem:"s" ~name:"c" ()));
  (* Nested installs: the inner recorder shadows the outer one, which
     is restored afterwards and never sees the inner samples. *)
  let outer = Recorder.make ~label:"outer" ~nodes:1 ~seed:0 () in
  let inner = Recorder.make ~label:"inner" ~nodes:1 ~seed:0 () in
  let active_label () = Option.map Recorder.label (Hook.active ()) in
  Hook.with_recorder outer (fun () ->
      Hook.count ~subsystem:"s" ~name:"c" 1;
      Hook.with_recorder inner (fun () ->
          check_bool "inner shadows outer" true (active_label () = Some "inner");
          Hook.count ~subsystem:"s" ~name:"c" 1);
      check_bool "outer restored" true (active_label () = Some "outer");
      Hook.count ~subsystem:"s" ~name:"c" 1);
  check_bool "restored to disabled" true (Hook.active () = None);
  let c r = Metrics.counter (Recorder.metrics r) in
  check_int "outer saw its two samples" 2
    (c outer (key ~kernel:"outer" ~subsystem:"s" ~name:"c" ()));
  check_int "inner saw one" 1
    (c inner (key ~kernel:"inner" ~subsystem:"s" ~name:"c" ()))

(* ------------------------------------------------------------------ *)
(* Attribution fixtures: a known 2-node scenario yields exact counts *)

let app name = Option.get (Mk_apps.Registry.find name)

let traced_run scenario name =
  let label = scenario.Mk_cluster.Scenario.label in
  let r = Recorder.make ~label ~nodes:2 ~seed:42 () in
  let res =
    Mk_cluster.Driver.run ~obs:r ~scenario ~app:(app name) ~nodes:2 ~seed:42 ()
  in
  (res, Recorder.metrics r, label)

let counter_total m ~kernel ~subsystem ~name =
  List.fold_left
    (fun acc ((k : Key.t), v) ->
      match v with
      | Metrics.Counter n
        when k.Key.kernel = kernel && k.Key.subsystem = subsystem
             && k.Key.name = name ->
          acc + n
      | _ -> acc)
    0 (Metrics.bindings m)

let test_attribution_mckernel () =
  let res, m, kernel = traced_run Mk_cluster.Scenario.mckernel "lammps" in
  (* The driver's headline fault count is the demand faults of the
     representative node — the registry must agree exactly. *)
  check_int "demand faults = driver faults" res.Mk_cluster.Driver.faults
    (Metrics.counter m
       (key ~node:0 ~kernel ~subsystem:"mem" ~name:"demand_faults" ()));
  check_bool "LWK offloads NIC control syscalls" true
    (counter_total m ~kernel ~subsystem:"ikc" ~name:"proxy_roundtrips" > 0);
  check_bool "halo exchanges counted" true
    (counter_total m ~kernel ~subsystem:"mpi" ~name:"halo_calls" > 0)

let test_attribution_linux () =
  let res, m, kernel = traced_run Mk_cluster.Scenario.linux "lammps" in
  check_int "demand faults = driver faults" res.Mk_cluster.Driver.faults
    (Metrics.counter m
       (key ~node:0 ~kernel ~subsystem:"mem" ~name:"demand_faults" ()));
  check_bool "linux faults every iteration" true
    (res.Mk_cluster.Driver.faults > 0);
  (* No LWK, no offload machinery: the proxy counter must not exist. *)
  check_int "no proxy roundtrips on Linux" 0
    (counter_total m ~kernel ~subsystem:"ikc" ~name:"proxy_roundtrips")

let test_lulesh_trace_counts () =
  let trace = Mk_apps.Lulesh_trace.full_trace ~scale:1.0 in
  let q, g, s = Mk_apps.Lulesh_trace.count_stats trace in
  check_int "queries" Mk_apps.Lulesh_trace.expected_queries q;
  check_int "grows" Mk_apps.Lulesh_trace.expected_grows g;
  check_int "shrinks" Mk_apps.Lulesh_trace.expected_shrinks s;
  (* The generalized recorder path lands in the same keys the live
     mem hooks use, attributed to the caller's kernel label. *)
  let m = Metrics.create () in
  Mk_apps.Lulesh_trace.record m ~kernel:"mOS" trace;
  check_int "registry agrees" Mk_apps.Lulesh_trace.expected_grows
    (Metrics.counter m (key ~kernel:"mOS" ~subsystem:"mem" ~name:"brk_grows" ()))

(* ------------------------------------------------------------------ *)
(* Pool_stats: the scheduler-counter bridge into Metrics *)

let test_pool_stats_counters_sum () =
  (* The bridge must conserve work: across every executor, the
     provenance counters (local pops + steals + injector runs) and the
     executed gauges each sum to the total number of jobs the map
     ran. *)
  let pool = Mk_engine.Pool.create ~oversubscribe:true ~num_domains:2 () in
  Fun.protect ~finally:(fun () -> Mk_engine.Pool.shutdown pool) @@ fun () ->
  let n = 256 in
  ignore (Mk_engine.Pool.parallel_map ~pool succ (List.init n Fun.id));
  let s = Mk_engine.Pool.stats pool in
  let m = Pool_stats.to_metrics s in
  let sum name =
    List.fold_left
      (fun acc ((k : Key.t), v) ->
        if
          k.Key.kernel = Pool_stats.kernel
          && k.Key.subsystem = Pool_stats.subsystem
          && k.Key.name = name
        then
          acc
          + (match v with
            | Metrics.Counter c -> c
            | Metrics.Gauge { last; _ } -> last
            | Metrics.Histogram _ -> 0)
        else acc)
      0 (Metrics.bindings m)
  in
  check_int "executed gauges sum to total jobs" n (sum "executed");
  check_int "steal counters sum to total executed jobs" n
    (sum "local_pops" + sum "steals" + sum "injected_runs");
  (* One executed gauge per executor, attributed to its slot. *)
  let gauges =
    List.filter
      (fun ((k : Key.t), _) -> k.Key.name = "executed")
      (Metrics.bindings m)
  in
  check_int "one gauge per executor" s.Mk_engine.Pool.executors
    (List.length gauges);
  check_bool "json export well-formed" true
    (match Pool_stats.to_json s with Mk_engine.Json.Obj _ -> true | _ -> false)

(* The export path's allocation, pinned where it is deterministic:
   rendering the trace-smoke document (`simos trace --app minife
   --nodes 4 --runs 2`, ~100 KB) walks the tree without per-node
   closures or padding strings and prints numbers without a string
   each.  Native code only, where floats and int64s stay unboxed. *)
let test_trace_render_alloc_budget () =
  if Sys.backend_type <> Sys.Native then Alcotest.skip ();
  let c = Collect.create ~trace:true () in
  ignore
    (Mk_cluster.Experiment.compare_scenarios ~obs:c
       ~scenarios:Mk_cluster.Scenario.trio ~app:(app "minife")
       ~node_counts:[ 4 ] ~runs:2 ~seed:42 ());
  let doc = Collect.trace_json c in
  let before = Gc.minor_words () in
  let s = Mk_engine.Json.to_string_pretty doc in
  let per_byte = (Gc.minor_words () -. before) /. float_of_int (String.length s) in
  check_bool "trace-smoke size" true (String.length s > 100_000);
  if per_byte > 0.5 then
    Alcotest.failf "rendering: %.3f minor words per output byte > 0.5" per_byte

(* ------------------------------------------------------------------ *)
(* Determinism: sequential and -j 2 exports byte-identical *)

let export_bytes ?pool seed =
  let c = Collect.create ~trace:true () in
  ignore
    (Mk_cluster.Experiment.point ?pool ~obs:c
       ~scenario:Mk_cluster.Scenario.mckernel ~app:(app "hpcg") ~nodes:4
       ~runs:3 ~seed ());
  ( Mk_engine.Json.to_string (Collect.trace_json c),
    Mk_engine.Json.to_string (Collect.metrics_json c) )

let trace_identity =
  QCheck.Test.make ~name:"trace & metrics: -j 2 = sequential" ~count:4
    QCheck.small_nat (fun seed ->
      let pool = Mk_engine.Pool.create ~oversubscribe:true ~num_domains:2 () in
      Fun.protect ~finally:(fun () -> Mk_engine.Pool.shutdown pool) @@ fun () ->
      export_bytes seed = export_bytes ~pool seed)

let test_trace_nonempty () =
  let trace, metrics = export_bytes 42 in
  check_bool "trace has events" true (String.length trace > 200);
  check_bool "metrics non-trivial" true (String.length metrics > 100)

(* ------------------------------------------------------------------ *)
(* Profile: bucket folding and the deterministic document *)

let sample ~epoch ~bound ~horizon ~events ~cross ~nulls ~stalls ~backlog =
  {
    Mk_engine.Shard.sample_epoch = epoch;
    sample_bound = bound;
    sample_horizon = horizon;
    sample_events = events;
    sample_cross = cross;
    sample_nulls = nulls;
    sample_stalls = stalls;
    sample_backlog = backlog;
  }

let test_profile_buckets () =
  let p = Profile.create ~bucket_ns:1000 ~shards:2 () in
  Profile.observe p
    (sample ~epoch:1 ~bound:100 ~horizon:399 ~events:10 ~cross:2 ~nulls:3
       ~stalls:1 ~backlog:5);
  Profile.observe p
    (sample ~epoch:2 ~bound:900 ~horizon:1199 ~events:4 ~cross:1 ~nulls:1
       ~stalls:0 ~backlog:2);
  Profile.observe p
    (sample ~epoch:3 ~bound:2100 ~horizon:2399 ~events:6 ~cross:0 ~nulls:2
       ~stalls:2 ~backlog:7);
  (match Profile.buckets p with
  | [ b0; b2 ] ->
      check_int "first bucket index" 0 b0.Profile.b_index;
      check_int "first bucket epochs" 2 b0.Profile.b_epochs;
      check_int "first bucket events" 14 b0.Profile.b_events;
      check_int "first bucket max backlog" 5 b0.Profile.b_max_backlog;
      check_int "second bucket index" 2 b2.Profile.b_index;
      check_int "second bucket start" 2000 b2.Profile.b_start;
      check_int "second bucket events" 6 b2.Profile.b_events
  | bs -> Alcotest.failf "expected 2 buckets, got %d" (List.length bs));
  let tt = Profile.totals p in
  check_int "total epochs" 3 tt.Profile.t_epochs;
  check_int "total events" 20 tt.Profile.t_events;
  check_int "lookahead from first sample" 300 tt.Profile.t_lookahead;
  check_int "bound span" 2000 (tt.Profile.t_last_bound - tt.Profile.t_first_bound);
  check_bool "null pct" true
    (abs_float (Profile.null_pct tt -. 100.0 *. 6.0 /. 9.0) < 1e-9);
  check_bool "stall pct" true
    (abs_float (Profile.stall_pct ~shards:2 tt -. 50.0) < 1e-9)

let test_profile_top () =
  let tt events =
    Profile.totals
      (let p = Profile.create ~shards:1 () in
       Profile.observe p
         (sample ~epoch:1 ~bound:0 ~horizon:0 ~events ~cross:0 ~nulls:0
            ~stalls:0 ~backlog:0);
       p)
  in
  let rows = [ ("b", tt 5); ("a", tt 9); ("c", tt 9) ] in
  check_bool "ranked by events, ties on label" true
    (List.map fst (Profile.top ~k:2 rows) = [ "a"; "c" ])

let profile_doc_bytes ?pool seed =
  Mk_engine.Json.to_string
    (Mk_cluster.Report.profile_json ~nodes:8 ~shards:2 ~seed
       (Mk_cluster.Experiment.des_profiles ?pool ~nodes:8 ~shards:2
          ~iterations:2 ~seed ()))

let profile_identity =
  QCheck.Test.make ~name:"profile document: -j 2 = sequential" ~count:3
    QCheck.small_nat (fun seed ->
      let pool = Mk_engine.Pool.create ~oversubscribe:true ~num_domains:2 () in
      Fun.protect ~finally:(fun () -> Mk_engine.Pool.shutdown pool) @@ fun () ->
      profile_doc_bytes seed = profile_doc_bytes ~pool seed)

let test_profile_doc_nonempty () =
  let doc = profile_doc_bytes 42 in
  check_bool "profiles carry epochs" true
    (String.length doc > 500
    &&
    match Mk_engine.Json.of_string doc with
    | Ok (Mk_engine.Json.Obj fields) -> List.mem_assoc "attribution" fields
    | _ -> false)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "mk_obs"
    [
      ( "key",
        [
          Alcotest.test_case "total order" `Quick test_key_order;
          Alcotest.test_case "labels" `Quick test_key_labels;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters" `Quick test_metrics_counters;
          Alcotest.test_case "gauge & histogram" `Quick
            test_metrics_gauge_histogram;
          Alcotest.test_case "sorted bindings & absorb" `Quick
            test_metrics_sorted_and_absorb;
        ] );
      ( "trace",
        [
          Alcotest.test_case "(ts, seq) order" `Quick test_trace_order;
          Alcotest.test_case "chrome trace shape" `Quick test_trace_json_shape;
          Alcotest.test_case "perfetto round trip" `Quick
            test_perfetto_round_trip;
          Alcotest.test_case "render allocation budget" `Quick
            test_trace_render_alloc_budget;
        ] );
      ("hook", [ Alcotest.test_case "ambient sink" `Quick test_hook_ambient ]);
      ( "attribution",
        [
          Alcotest.test_case "mckernel fixtures" `Quick
            test_attribution_mckernel;
          Alcotest.test_case "linux fixtures" `Quick test_attribution_linux;
          Alcotest.test_case "lulesh trace counts" `Quick
            test_lulesh_trace_counts;
        ] );
      ( "pool-stats",
        [
          Alcotest.test_case "counters sum to executed jobs" `Quick
            test_pool_stats_counters_sum;
        ] );
      ( "profile",
        [
          Alcotest.test_case "bucket folding" `Quick test_profile_buckets;
          Alcotest.test_case "top-k attribution" `Quick test_profile_top;
          Alcotest.test_case "document non-empty" `Quick
            test_profile_doc_nonempty;
        ]
        @ qsuite [ profile_identity ] );
      ( "determinism",
        Alcotest.test_case "exports non-empty" `Quick test_trace_nonempty
        :: qsuite [ trace_identity ] );
    ]
