(* Fault injection: retry policies, plan generation, unfolding state,
   resilient MPI, and the driver's per-kernel containment semantics. *)

open Mk_fault

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Retry *)

let test_backoff_delay () =
  let p = Retry.default_ikc in
  check_int "retry 1" 10_000 (Retry.backoff_delay p ~retry:1);
  check_int "retry 2" 20_000 (Retry.backoff_delay p ~retry:2);
  check_int "retry 3" 40_000 (Retry.backoff_delay p ~retry:3);
  check_int "capped" 200_000 (Retry.backoff_delay p ~retry:20);
  check_int "huge retry saturates, no overflow" 200_000
    (Retry.backoff_delay p ~retry:max_int);
  Alcotest.check_raises "retry 0 rejected"
    (Invalid_argument "Retry.backoff_delay: retry must be >= 1") (fun () ->
      ignore (Retry.backoff_delay p ~retry:0))

let test_retry_time () =
  let p = Retry.default_ikc in
  check_int "no failures, no cost" 0 (Retry.retry_time p ~failures:0);
  check_int "one failure = one timeout" 20_000 (Retry.retry_time p ~failures:1);
  check_int "two failures add a backoff" 50_000 (Retry.retry_time p ~failures:2);
  check_int "clamped at give-up" (Retry.give_up_time p)
    (Retry.retry_time p ~failures:99)

let test_give_up_time () =
  (* 4 timeouts + backoffs 10/20/40 us. *)
  check_int "ikc" 150_000 (Retry.give_up_time Retry.default_ikc);
  (* 4 timeouts + backoffs 200/400/800 us. *)
  check_int "mpi" 3_400_000 (Retry.give_up_time Retry.default_mpi)

(* The retry policies' edge cases get property coverage too. *)
let policy_gen =
  QCheck.(
    map
      (fun (timeout, max_retries, backoff, cap_extra) ->
        {
          Retry.timeout;
          max_retries;
          backoff;
          backoff_cap = backoff + cap_extra;
        })
      (quad (int_range 0 1_000_000) (int_range 0 20) (int_range 1 500_000)
         (int_range 0 2_000_000)))

let backoff_qcheck =
  QCheck.Test.make
    ~name:"backoff_delay: rejects retry<1, monotone, capped" ~count:200
    QCheck.(pair policy_gen (int_range 1 62))
    (fun (p, retry) ->
      (match Retry.backoff_delay p ~retry:0 with
      | exception Invalid_argument _ -> ()
      | _ -> QCheck.Test.fail_report "retry=0 accepted");
      let d = Retry.backoff_delay p ~retry in
      let d' = Retry.backoff_delay p ~retry:(retry + 1) in
      d <= d' && d <= p.Retry.backoff_cap && d >= 0)

let retry_time_qcheck =
  QCheck.Test.make
    ~name:"retry_time: zero at 0, monotone, clamped at give_up_time"
    ~count:200
    QCheck.(pair policy_gen (int_range 0 40))
    (fun (p, failures) ->
      let t = Retry.retry_time p ~failures in
      let t' = Retry.retry_time p ~failures:(failures + 1) in
      Retry.retry_time p ~failures:0 = 0
      && t <= t'
      && t <= Retry.give_up_time p)

let give_up_qcheck =
  QCheck.Test.make
    ~name:"give_up_time = retry_time at max_retries+1 attempts" ~count:200
    policy_gen
    (fun p ->
      Retry.give_up_time p
      = Retry.retry_time p ~failures:(p.Retry.max_retries + 1)
      && Retry.give_up_time p >= (p.Retry.max_retries + 1) * p.Retry.timeout)

(* ------------------------------------------------------------------ *)
(* Plan *)

let test_plan_make_sorts () =
  let p =
    Plan.make ~label:"t"
      [
        { Plan.iteration = 3; node = 0; kind = Plan.Proxy_crash };
        { Plan.iteration = 1; node = 2; kind = Plan.Node_crash };
        { Plan.iteration = 1; node = 0; kind = Plan.Thread_loss };
      ]
  in
  Alcotest.(check (list (pair int int)))
    "sorted by (iteration, node)"
    [ (1, 0); (1, 2); (3, 0) ]
    (List.map (fun e -> (e.Plan.iteration, e.Plan.node)) p.Plan.events);
  check_bool "not empty" false (Plan.is_empty p);
  check_int "events_at 1" 2
    (List.length (Plan.events_at p ~iteration:1));
  check_int "events_at 2" 0 (List.length (Plan.events_at p ~iteration:2))

let test_plan_make_rejects_negative () =
  let bad = [ { Plan.iteration = -1; node = 0; kind = Plan.Node_crash } ] in
  match Plan.make ~label:"bad" bad with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative iteration accepted"

let test_plan_presets () =
  List.iter
    (fun name ->
      check_bool name true (Option.is_some (Plan.preset_spec name ~rate:1.0)))
    Plan.preset_names;
  check_bool "unknown preset" true
    (Option.is_none (Plan.preset_spec "bogus" ~rate:1.0));
  check_bool "empty at rate 0" true
    (Plan.is_empty
       (Plan.generate
          ~spec:(Option.get (Plan.preset_spec "mixed" ~rate:0.0))
          ~nodes:32 ~iterations:10 ~seed:1))

let test_demo_plans_in_range () =
  List.iter
    (fun (plan, nodes) ->
      check_bool "non-empty" false (Plan.is_empty plan);
      List.iter
        (fun e ->
          check_bool "node in range" true (e.Plan.node >= 0 && e.Plan.node < nodes))
        plan.Plan.events)
    [
      (Plan.daemon_hang_demo ~nodes:64, 64);
      (Plan.proxy_crash_demo ~nodes:16, 16);
      (Plan.daemon_hang_demo ~nodes:1, 1);
    ]

let plan_args =
  QCheck.(
    quad (int_range 1 24) (int_range 2 12) small_nat
      (float_bound_inclusive 4.0))

let plan_generation_deterministic =
  QCheck.Test.make ~name:"same (spec, nodes, iterations, seed), same plan"
    ~count:100 plan_args (fun (nodes, iterations, seed, rate) ->
      let spec = Option.get (Plan.preset_spec "mixed" ~rate) in
      let a = Plan.generate ~spec ~nodes ~iterations ~seed in
      let b = Plan.generate ~spec ~nodes ~iterations ~seed in
      a = b
      && List.for_all
           (fun e ->
             e.Plan.node >= 0 && e.Plan.node < nodes && e.Plan.iteration >= 0
             && e.Plan.iteration < iterations)
           a.Plan.events)

(* ------------------------------------------------------------------ *)
(* State *)

let test_state_transients_clear () =
  let plan =
    Plan.make ~label:"transients"
      [
        { Plan.iteration = 1; node = 0; kind = Plan.Nic_stall { extra = 7_000 } };
        { Plan.iteration = 1; node = 1; kind = Plan.Link_flap { failures = 2 } };
        { Plan.iteration = 1; node = 0; kind = Plan.Proxy_crash };
      ]
  in
  let st = State.make ~plan ~nodes:4 in
  State.begin_iteration st ~iteration:0;
  check_bool "quiet before" false (State.faulted st);
  State.begin_iteration st ~iteration:1;
  check_int "nic extra" 7_000 (State.nic_extra st 0);
  check_int "flap failures" 2 (State.flap_failures st 1);
  check_bool "proxy down" true (State.proxy_down st 0);
  check_bool "faulted" true (State.faulted st);
  check_int "events applied" 3 (State.events_applied st);
  State.begin_iteration st ~iteration:2;
  check_int "nic cleared" 0 (State.nic_extra st 0);
  check_int "flap cleared" 0 (State.flap_failures st 1);
  check_bool "proxy back" false (State.proxy_down st 0);
  check_bool "quiet again" false (State.faulted st)

let test_state_daemon_hang_ages () =
  let plan =
    Plan.make ~label:"hang"
      [ { Plan.iteration = 1; node = 0; kind = Plan.Daemon_hang { iterations = 2 } } ]
  in
  let st = State.make ~plan ~nodes:2 in
  State.begin_iteration st ~iteration:0;
  check_bool "not yet" false (State.daemon_hung st 0);
  State.begin_iteration st ~iteration:1;
  check_bool "hung" true (State.daemon_hung st 0);
  State.begin_iteration st ~iteration:2;
  check_bool "still hung" true (State.daemon_hung st 0);
  State.begin_iteration st ~iteration:3;
  check_bool "recovered" false (State.daemon_hung st 0)

let test_state_crash_permanent () =
  let plan =
    Plan.make ~label:"crash"
      [ { Plan.iteration = 2; node = 1; kind = Plan.Node_crash } ]
  in
  let st = State.make ~plan ~nodes:3 in
  State.begin_iteration st ~iteration:0;
  check_bool "alive before" true (State.is_alive st 1);
  check_int "no fresh crashes" 0 (List.length (State.take_newly_crashed st));
  State.begin_iteration st ~iteration:2;
  check_bool "dead" false (State.is_alive st 1);
  check_int "alive count" 2 (State.alive_count st);
  check_int "dead count" 1 (State.dead_count st);
  Alcotest.(check (list int)) "fresh crash" [ 1 ] (State.take_newly_crashed st);
  Alcotest.(check (list int)) "taken once" [] (State.take_newly_crashed st);
  State.begin_iteration st ~iteration:3;
  check_bool "stays dead" false (State.is_alive st 1);
  check_bool "permanent damage keeps faulted" true (State.faulted st)

let test_state_skipped_iterations_apply () =
  let plan =
    Plan.make ~label:"skip"
      [ { Plan.iteration = 1; node = 0; kind = Plan.Core_degrade { factor = 1.5 } } ]
  in
  let st = State.make ~plan ~nodes:1 in
  State.begin_iteration st ~iteration:0;
  State.begin_iteration st ~iteration:3;
  Alcotest.(check (float 1e-9)) "applied at later visit" 1.5
    (State.compute_factor st 0)

let test_state_ignores_out_of_range () =
  let plan =
    Plan.make ~label:"oob"
      [ { Plan.iteration = 0; node = 5; kind = Plan.Node_crash } ]
  in
  let st = State.make ~plan ~nodes:2 in
  State.begin_iteration st ~iteration:0;
  check_int "nothing applied" 0 (State.events_applied st);
  check_int "everyone alive" 2 (State.alive_count st)

(* ------------------------------------------------------------------ *)
(* Resilient MPI *)

let cost_env nodes =
  {
    Mk_mpi.Collective.fabric = Mk_fabric.Fabric.make ~nodes ();
    syscall_cost = (fun _ -> 100);
    intra_ranks = 4;
  }

let no_extra ~src:_ ~dst:_ = 0
let clocks_of nodes = Array.init nodes (fun i -> i * 1_000)

let test_resilient_matches_healthy () =
  let nodes = 16 in
  let base = cost_env nodes in
  let healthy = clocks_of nodes and faulty = clocks_of nodes in
  Mk_mpi.Collective.allreduce base ~clocks:healthy ~bytes:4096;
  let env =
    Mk_mpi.Resilient.make ~base ~alive:(Array.make nodes true)
      ~extra_edge:no_extra
  in
  Mk_mpi.Resilient.allreduce env ~clocks:faulty ~bytes:4096;
  Alcotest.(check (array int)) "allreduce bit-identical" healthy faulty;
  let healthy = clocks_of nodes and faulty = clocks_of nodes in
  Mk_mpi.P2p.halo base ~clocks:healthy ~bytes:65536 ~neighbors:6;
  Mk_mpi.Resilient.halo env ~clocks:faulty ~bytes:65536 ~neighbors:6;
  Alcotest.(check (array int)) "halo bit-identical" healthy faulty

let test_resilient_dead_node_frozen () =
  let nodes = 8 in
  let alive = Array.make nodes true in
  alive.(3) <- false;
  let env =
    Mk_mpi.Resilient.make ~base:(cost_env nodes) ~alive ~extra_edge:no_extra
  in
  let clocks = clocks_of nodes in
  Mk_mpi.Resilient.allreduce env ~clocks ~bytes:8;
  check_int "dead clock frozen" 3_000 clocks.(3);
  Array.iteri
    (fun i c -> if i <> 3 then check_bool "survivor advanced" true (c > i * 1_000))
    clocks;
  let clocks = clocks_of nodes in
  Mk_mpi.Resilient.halo env ~clocks ~bytes:65536 ~neighbors:6;
  check_int "dead clock frozen in halo" 3_000 clocks.(3)

let test_resilient_detection_charged_once () =
  let nodes = 8 in
  let alive = Array.make nodes true in
  alive.(5) <- false;
  let base = cost_env nodes in
  let without =
    Mk_mpi.Resilient.make ~base ~alive ~extra_edge:no_extra
  in
  let ref_clocks = clocks_of nodes in
  Mk_mpi.Resilient.allreduce without ~clocks:ref_clocks ~bytes:8;
  let env = Mk_mpi.Resilient.make ~base ~alive ~extra_edge:no_extra in
  Mk_mpi.Resilient.notify_crashes env ~policy:Retry.default_mpi ~count:1;
  let expected = Retry.give_up_time Retry.default_mpi in
  check_int "pending queued" expected (Mk_mpi.Resilient.pending_detection env);
  let clocks = clocks_of nodes in
  Mk_mpi.Resilient.allreduce env ~clocks ~bytes:8;
  check_int "pending flushed" 0 (Mk_mpi.Resilient.pending_detection env);
  (* A uniform pre-charge commutes with max-plus: every survivor ends
     exactly one give-up round later than without detection. *)
  Array.iteri
    (fun i c ->
      if alive.(i) then
        check_int "survivor shifted by give-up time" (ref_clocks.(i) + expected) c
      else check_int "dead untouched" ref_clocks.(i) c)
    clocks

let test_resilient_extra_edge_surcharge () =
  let nodes = 8 in
  let base = cost_env nodes in
  let healthy = clocks_of nodes in
  Mk_mpi.Collective.allreduce base ~clocks:healthy ~bytes:8;
  let env =
    Mk_mpi.Resilient.make ~base ~alive:(Array.make nodes true)
      ~extra_edge:(fun ~src:_ ~dst:_ -> 5_000)
  in
  let clocks = clocks_of nodes in
  Mk_mpi.Resilient.allreduce env ~clocks ~bytes:8;
  Array.iteri
    (fun i c -> check_bool "surcharged" true (c > healthy.(i)))
    clocks

(* ------------------------------------------------------------------ *)
(* Driver containment *)

let hpcg = Mk_apps.Hpcg.app
let scenarios = Mk_cluster.Scenario.trio

let test_empty_plan_is_zero_cost () =
  List.iter
    (fun (s : Mk_cluster.Scenario.t) ->
      let plain =
        Mk_cluster.Driver.run ~scenario:s ~app:hpcg ~nodes:8 ~seed:42 ()
      in
      let with_empty =
        Mk_cluster.Driver.run ~faults:Plan.empty ~scenario:s ~app:hpcg ~nodes:8
          ~seed:42 ()
      in
      Alcotest.(check bool)
        (s.Mk_cluster.Scenario.label ^ " identical") true (plain = with_empty))
    scenarios

let test_node_crash_degrades_everyone () =
  let plan =
    Plan.make ~label:"one crash"
      [ { Plan.iteration = 1; node = 1; kind = Plan.Node_crash } ]
  in
  List.iter
    (fun (s : Mk_cluster.Scenario.t) ->
      let healthy =
        Mk_cluster.Driver.run ~scenario:s ~app:hpcg ~nodes:8 ~seed:42 ()
      in
      let faulted =
        Mk_cluster.Driver.run ~faults:plan ~scenario:s ~app:hpcg ~nodes:8
          ~seed:42 ()
      in
      check_int "dead recorded" 1 faulted.Mk_cluster.Driver.dead_nodes;
      check_bool "detection priced" true
        (faulted.Mk_cluster.Driver.recoveries >= 1);
      check_bool
        (s.Mk_cluster.Scenario.label ^ " slower")
        true
        (faulted.Mk_cluster.Driver.fom < healthy.Mk_cluster.Driver.fom))
    scenarios

let test_proxy_crash_hits_only_mckernel () =
  (* HPCG@64 offloads control syscalls on the LWKs; a proxy crash is a
     McKernel (proxy-mechanism) fault: mOS and Linux must not move. *)
  let plan = Plan.proxy_crash_demo ~nodes:64 in
  let fom (s : Mk_cluster.Scenario.t) faults =
    (Mk_cluster.Driver.run ?faults ~scenario:s ~app:hpcg ~nodes:64 ~seed:42 ())
      .Mk_cluster.Driver.fom
  in
  List.iter
    (fun (s : Mk_cluster.Scenario.t) ->
      let h = fom s None and f = fom s (Some plan) in
      match s.Mk_cluster.Scenario.label with
      | "McKernel" -> check_bool "mckernel pays" true (f < h)
      | label -> Alcotest.(check (float 1e-9)) (label ^ " untouched") h f)
    scenarios

let test_thread_loss_hits_only_mos () =
  let plan =
    Plan.make ~label:"thread loss"
      [ { Plan.iteration = 1; node = 0; kind = Plan.Thread_loss } ]
  in
  let fom (s : Mk_cluster.Scenario.t) faults =
    (Mk_cluster.Driver.run ?faults ~scenario:s ~app:hpcg ~nodes:64 ~seed:42 ())
      .Mk_cluster.Driver.fom
  in
  List.iter
    (fun (s : Mk_cluster.Scenario.t) ->
      let h = fom s None and f = fom s (Some plan) in
      match s.Mk_cluster.Scenario.label with
      | "mOS" -> check_bool "mos pays" true (f < h)
      | label -> Alcotest.(check (float 1e-9)) (label ^ " untouched") h f)
    scenarios

(* ------------------------------------------------------------------ *)
(* Determinism: sequential and parallel replays byte-identical *)

let mixed rate = Option.get (Plan.preset_spec "mixed" ~rate)

let replay_deterministic =
  QCheck.Test.make ~name:"fault plan replay: parallel = sequential" ~count:6
    QCheck.(pair small_nat (float_bound_inclusive 2.0))
    (fun (seed, rate) ->
      let plan =
        Plan.generate ~spec:(mixed rate) ~nodes:8 ~iterations:6 ~seed
      in
      let point pool =
        Mk_cluster.Experiment.point ?pool ~faults:plan
          ~scenario:Mk_cluster.Scenario.mckernel ~app:hpcg ~nodes:8 ~runs:3
          ~seed ()
      in
      let pool = Mk_engine.Pool.create ~oversubscribe:true ~num_domains:3 () in
      Fun.protect ~finally:(fun () -> Mk_engine.Pool.shutdown pool) @@ fun () ->
      point None = point (Some pool))

let test_degradation_table_deterministic () =
  let table pool =
    Mk_cluster.Degradation.run ?pool ~app:hpcg ~nodes:16 ~preset:"mixed"
      ~rates:[ 1.0 ] ~runs:3 ~seed:42 ()
  in
  let pool = Mk_engine.Pool.create ~oversubscribe:true ~num_domains:4 () in
  Fun.protect ~finally:(fun () -> Mk_engine.Pool.shutdown pool) @@ fun () ->
  let seq = table None and par = table (Some pool) in
  check_bool "tables identical" true (seq = par);
  Alcotest.(check string)
    "rendered bytes identical"
    (Mk_cluster.Degradation.render seq)
    (Mk_cluster.Degradation.render par)

(* ------------------------------------------------------------------ *)
(* The acceptance demo: fault containment margins *)

let test_isolation_margins () =
  let d = Mk_cluster.Degradation.isolation_demo ~runs:3 () in
  List.iter
    (fun (r : Mk_cluster.Degradation.demo_row) ->
      match r.Mk_cluster.Degradation.label with
      | "Linux" ->
          check_bool "Linux visibly degraded" true
            (r.Mk_cluster.Degradation.delta_pct < -5.0)
      | label ->
          check_bool (label ^ " moves under 1%") true
            (abs_float r.Mk_cluster.Degradation.delta_pct < 1.0))
    d.Mk_cluster.Degradation.hpcg_daemon_hang;
  check_bool "LAMMPS proxy crash visible" true
    (d.Mk_cluster.Degradation.lammps_proxy.Mk_cluster.Degradation.delta_pct
    < -5.0);
  let minife = d.Mk_cluster.Degradation.minife_proxy in
  check_bool "MiniFE within noise" true
    (abs_float minife.Mk_cluster.Degradation.delta_pct
    <= Float.max 0.5 minife.Mk_cluster.Degradation.noise_pct)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "mk_fault"
    [
      ( "retry",
        Alcotest.test_case "backoff delay" `Quick test_backoff_delay
        :: Alcotest.test_case "retry time" `Quick test_retry_time
        :: Alcotest.test_case "give-up time" `Quick test_give_up_time
        :: qsuite [ backoff_qcheck; retry_time_qcheck; give_up_qcheck ] );
      ( "plan",
        Alcotest.test_case "make sorts" `Quick test_plan_make_sorts
        :: Alcotest.test_case "rejects negatives" `Quick
             test_plan_make_rejects_negative
        :: Alcotest.test_case "presets" `Quick test_plan_presets
        :: Alcotest.test_case "demo plans in range" `Quick
             test_demo_plans_in_range
        :: qsuite [ plan_generation_deterministic ] );
      ( "state",
        [
          Alcotest.test_case "transients clear" `Quick test_state_transients_clear;
          Alcotest.test_case "daemon hang ages" `Quick test_state_daemon_hang_ages;
          Alcotest.test_case "crash permanent" `Quick test_state_crash_permanent;
          Alcotest.test_case "skipped iterations apply" `Quick
            test_state_skipped_iterations_apply;
          Alcotest.test_case "out of range ignored" `Quick
            test_state_ignores_out_of_range;
        ] );
      ( "resilient",
        [
          Alcotest.test_case "matches healthy when off" `Quick
            test_resilient_matches_healthy;
          Alcotest.test_case "dead node frozen" `Quick
            test_resilient_dead_node_frozen;
          Alcotest.test_case "detection charged once" `Quick
            test_resilient_detection_charged_once;
          Alcotest.test_case "extra edge surcharge" `Quick
            test_resilient_extra_edge_surcharge;
        ] );
      ( "driver",
        [
          Alcotest.test_case "empty plan is zero-cost" `Quick
            test_empty_plan_is_zero_cost;
          Alcotest.test_case "node crash degrades everyone" `Quick
            test_node_crash_degrades_everyone;
          Alcotest.test_case "proxy crash only hits McKernel" `Slow
            test_proxy_crash_hits_only_mckernel;
          Alcotest.test_case "thread loss only hits mOS" `Slow
            test_thread_loss_hits_only_mos;
        ] );
      ( "determinism",
        Alcotest.test_case "degradation table" `Slow
          test_degradation_table_deterministic
        :: qsuite [ replay_deterministic ] );
      ( "acceptance",
        [ Alcotest.test_case "isolation margins" `Slow test_isolation_margins ] );
    ]
