open Mk_engine

type result = {
  nodes : int;
  total_time : Units.time;
  solve_time : Units.time;
  setup_time : Units.time;
  first_iteration : Units.time;
  steady_iteration : Units.time;
  fom : float;
  mcdram_fraction : float;
  faults : int;
  offloads_per_iteration : int;
  failures : int;
  fault_events : int;
  dead_nodes : int;
  recoveries : int;
}

let max_array a = Array.fold_left Int.max min_int a

(* ------------------------------------------------------------------ *)
(* Per-node setup on the representative node                           *)

let setup_memory node (app : Mk_apps.App.t) ~nodes =
  let os = Mk_kernel.Node.os node in
  let ranks = Mk_kernel.Node.ranks node in
  let linux_ddr =
    app.Mk_apps.App.linux_ddr_only && os.Mk_kernel.Os.kind = Mk_kernel.Os.Linux
  in
  (* MCDRAM sharing under pressure.  Demand paging (Linux first-touch
     and McKernel's fallback) fills MCDRAM in proportion to how fast
     each rank touches it — i.e. in proportion to footprint — whereas
     mOS has already divided it into equal per-rank shares at job
     launch (its strategy carries that quota).  Section IV credits
     McKernel's CCS-QCD edge to exactly this difference. *)
  let footprints = Scratch.int_array ~tag:"driver.footprints" ~len:ranks ~init:0 in
  let demands = Scratch.int_array ~tag:"driver.demands" ~len:ranks ~init:0 in
  for r = 0 to ranks - 1 do
    footprints.(r) <- app.Mk_apps.App.footprint_per_rank ~nodes ~local_rank:r;
    demands.(r) <- footprints.(r) + app.Mk_apps.App.heap_per_rank
  done;
  let total_footprint = Array.fold_left ( + ) 0 demands in
  let mcdram_free =
    Mk_mem.Phys.free_bytes_of_kind os.Mk_kernel.Os.phys Mk_hw.Memory_kind.Mcdram
  in
  if
    (not linux_ddr)
    && total_footprint > mcdram_free
    && os.Mk_kernel.Os.kind <> Mk_kernel.Os.Mos_kind
  then begin
    (* Linux's single-domain preferred policy confines each rank's
       MCDRAM to its own quadrant, so first-touch shares that domain
       among the quadrant's ranks; the LWKs' MCDRAM-first policy
       draws on the whole package. *)
    let numa = Mk_hw.Topology.numa os.Mk_kernel.Os.topo in
    let quadrant_ranks = Hashtbl.create 8 in
    for rank = 0 to ranks - 1 do
      let home = (Mk_kernel.Node.rank_state node rank).Mk_kernel.Node.home in
      Hashtbl.replace quadrant_ranks home
        (1 + Option.value (Hashtbl.find_opt quadrant_ranks home) ~default:0)
    done;
    for rank = 0 to ranks - 1 do
      let share =
        int_of_float
          (float_of_int demands.(rank)
          *. float_of_int mcdram_free /. float_of_int total_footprint)
      in
      let share =
        if os.Mk_kernel.Os.kind <> Mk_kernel.Os.Linux then share
        else begin
          let home = (Mk_kernel.Node.rank_state node rank).Mk_kernel.Node.home in
          let local_cap =
            match
              Mk_hw.Numa.nearest numa ~from:home ~kind:Mk_hw.Memory_kind.Mcdram
            with
            | Some d -> Mk_hw.Numa.capacity numa d
            | None -> 0
          in
          let peers =
            Int.max 1 (Option.value (Hashtbl.find_opt quadrant_ranks home) ~default:1)
          in
          Int.min share (local_cap / peers)
        end
      in
      Mk_mem.Address_space.set_mcdram_quota
        (Mk_kernel.Node.address_space node ~rank)
        (Some share)
    done
  end;
  let worst = ref 0 in
  for rank = 0 to ranks - 1 do
    let st = Mk_kernel.Node.rank_state node rank in
    let asp = Mk_kernel.Node.address_space node ~rank in
    let bytes = footprints.(rank) in
    let policy =
      (* The paper ran this workload's Linux baseline out of DDR4
         (Section III-B): SNC-4 prevents the spill policy. *)
      if app.Mk_apps.App.linux_ddr_only && os.Mk_kernel.Os.kind = Mk_kernel.Os.Linux
      then Some (Mk_mem.Policy.Ddr_only { home = st.Mk_kernel.Node.home })
      else None
    in
    let cost =
      match Mk_mem.Address_space.mmap asp ~bytes ~backing:Mk_mem.Vma.Anonymous ?policy () with
      | Ok (addr, c) ->
          c + Mk_mem.Address_space.touch asp ~addr ~bytes ~concurrency:1
      | Error `Enomem -> 0
    in
    if cost > !worst then worst := cost
  done;
  !worst

(* ------------------------------------------------------------------ *)
(* Compute-phase cost on the representative node (per iteration)       *)

let stream_cost node ~bytes =
  let ranks = Mk_kernel.Node.ranks node in
  let worst = ref 0 in
  for rank = 0 to ranks - 1 do
    let asp = Mk_kernel.Node.address_space node ~rank in
    let placement =
      Mk_hw.Bandwidth.mixed
        ~mcdram_fraction:(Mk_mem.Address_space.mcdram_fraction asp)
    in
    let base = Mk_hw.Bandwidth.stream_time ~bytes placement ~ranks in
    let t =
      int_of_float
        (float_of_int base *. Mk_mem.Address_space.tlb_factor asp)
    in
    if t > !worst then worst := t
  done;
  !worst

let compute_total node phases =
  List.fold_left
    (fun acc phase ->
      match phase with
      | Mk_apps.App.Stream bytes -> acc + stream_cost node ~bytes
      | Mk_apps.App.Cpu t -> acc + t
      | Mk_apps.App.Allreduce _ | Mk_apps.App.Halo _ | Mk_apps.App.Yields _ -> acc)
    0 phases

(* ------------------------------------------------------------------ *)
(* System-call pricing                                                 *)

let syscall_cost os sysno =
  match Mk_kernel.Os.syscall_time os ~core:10 sysno with
  | Ok t -> t
  | Error `Enosys -> 0

(* NIC control-path handling for a halo phase: on Linux every rank
   executes its own control syscalls in parallel; on an LWK they all
   offload and the few Linux-side cores become a service bottleneck —
   the critical path is the larger of per-rank serial latency and the
   queueing delay at the proxy/migration target cores. *)
let halo_control_cost os ~ranks_per_node ~msgs_per_node ~controls =
  if controls = [] || msgs_per_node = 0 then 0
  else begin
    let per_msg = List.fold_left (fun acc s -> acc + syscall_cost os s) 0 controls in
    let per_rank_msgs = (msgs_per_node + ranks_per_node - 1) / ranks_per_node in
    let serial = per_rank_msgs * per_msg in
    match os.Mk_kernel.Os.offload with
    | None -> serial
    | Some _ ->
        let service =
          List.fold_left
            (fun acc s -> acc + Mk_syscall.Cost.local s)
            0 controls
        in
        let linux_cores = max 1 (List.length os.Mk_kernel.Os.os_cores) in
        let queue = msgs_per_node * service / linux_cores in
        Mk_obs.Hook.gauge ~subsystem:"ikc" ~name:"proxy_queue_ns" queue;
        max serial queue
  end

(* ------------------------------------------------------------------ *)
(* Containment semantics (docs/FAULTS.md)                              *)

(* Hung Linux daemons on an LWK node slow the offload *service* —
   the Linux cores that execute proxied/migrated control syscalls are
   busy — but never the LWK compute cores. *)
let daemon_service_factor = 4.0

(* On Linux itself the daemons have nowhere to hide: they spill onto
   the application cores and inflate every compute window. *)
let daemon_spill_factor = 1.35

(* Fault-aware version of [halo_control_cost] for one node.  The
   healthy arithmetic is preserved exactly when the node carries no
   active fault; each fault adds to the side of the serial/queue race
   it physically lives on. *)
let halo_control_cost_faulty os st ~node ~ranks_per_node ~msgs_per_node
    ~controls =
  if controls = [] || msgs_per_node = 0 then 0
  else begin
    let nic_x = Mk_fault.State.nic_extra st node in
    let per_msg =
      List.fold_left (fun acc s -> acc + syscall_cost os s) 0 controls + nic_x
    in
    let per_rank_msgs = (msgs_per_node + ranks_per_node - 1) / ranks_per_node in
    let serial = per_rank_msgs * per_msg in
    match os.Mk_kernel.Os.offload with
    | None -> serial
    | Some off ->
        let mech = Mk_ikc.Offload.mechanism off in
        let proxy_stalled =
          match mech with
          | Mk_ikc.Offload.Proxy _ -> Mk_fault.State.proxy_down st node
          | Mk_ikc.Offload.Migration _ -> false
        in
        let target_lost =
          match mech with
          | Mk_ikc.Offload.Migration _ -> Mk_fault.State.thread_lost st node
          | Mk_ikc.Offload.Proxy _ -> false
        in
        let service =
          let s =
            List.fold_left (fun acc s -> acc + Mk_syscall.Cost.local s) 0 controls
          in
          if Mk_fault.State.daemon_hung st node then
            int_of_float (Float.round (float_of_int s *. daemon_service_factor))
          else s
        in
        let per_offload_extra =
          (if proxy_stalled then
             (* Each offloaded request this iteration stalls for one
                IKC timeout before the retry lands on the respawned
                proxy. *)
             os.Mk_kernel.Os.resilience.Mk_fault.Retry.timeout
           else 0)
          + (if target_lost then Mk_ikc.Offload.failover_cost mech else 0)
          + nic_x
        in
        let linux_cores =
          max 1
            (List.length os.Mk_kernel.Os.os_cores - if target_lost then 1 else 0)
        in
        let queue = msgs_per_node * (service + per_offload_extra) / linux_cores in
        Mk_obs.Hook.gauge ~subsystem:"ikc" ~name:"proxy_queue_ns" queue;
        max serial queue
  end

(* ------------------------------------------------------------------ *)
(* Main run                                                            *)

let with_obs obs f = match obs with None -> () | Some r -> f r

let run_body ?eager_threshold ?faults ~obs ~(scenario : Scenario.t)
    ~(app : Mk_apps.App.t) ~nodes ~seed () =
  if nodes <= 0 then invalid_arg "Driver.run: nodes must be positive";
  (* Attribution cursor: Tier-1 pricing (memory, heap traces, IKC,
     scheduling) executes on the representative node and is charged
     to node 0. *)
  with_obs obs (fun r -> Mk_obs.Recorder.set_node r 0);
  let fstate =
    match faults with
    | None -> None
    | Some plan -> Some (Mk_fault.State.make ~plan ~nodes)
  in
  let os = scenario.Scenario.make () in
  let ranks_per_node = app.Mk_apps.App.ranks_per_node in
  let node =
    Mk_kernel.Node.boot ~os ~ranks:ranks_per_node
      ~threads_per_rank:app.Mk_apps.App.threads_per_rank ~seed
  in
  (* Every busy hardware thread is a straggler candidate: a detour on
     any OpenMP worker delays its whole rank at the next barrier. *)
  let stragglers = ranks_per_node * app.Mk_apps.App.threads_per_rank in
  let root_rng = Rng.create (seed * 7919) in
  let node_rngs = Array.init nodes (fun n -> Rng.split root_rng (1000 + n)) in
  let nic_cfg = Mk_fabric.Nic.make ?eager_threshold () in
  let fabric = Mk_fabric.Fabric.make ~nic:nic_cfg ~nodes () in
  let nic = Mk_fabric.Fabric.nic fabric in
  let profile = os.Mk_kernel.Os.app_noise in

  (* --- Setup ------------------------------------------------------ *)
  let setup_mem = setup_memory node app ~nodes in
  let shm_costs =
    Mk_kernel.Node.shm_window node ~bytes_per_rank:app.Mk_apps.App.shm_bytes_per_rank
  in
  let shm_setup = Array.fold_left Int.max 0 shm_costs in
  (* Heap traces replay on every rank: each process owns its heap, so
     the node pays the cost of the slowest rank. *)
  let replay_trace ops =
    let worst = ref 0 in
    for rank = 0 to ranks_per_node - 1 do
      let c = Mk_kernel.Node.run_ops node ~rank ops in
      if c > !worst then worst := c
    done;
    !worst
  in
  let trace_setup =
    match app.Mk_apps.App.trace with
    | None -> 0
    | Some trace -> replay_trace (trace ~nodes ~iteration:(-1))
  in
  let setup_time = setup_mem + shm_setup + trace_setup in
  with_obs obs (fun r ->
      Mk_obs.Recorder.span r ~ts:0 ~dur:setup_time ~node:0 ~tid:0 ~cat:"phase"
        ~name:"setup" ());

  (* --- Static per-iteration pieces --------------------------------- *)
  let phases = app.Mk_apps.App.iteration ~nodes in
  let yields =
    List.fold_left
      (fun acc -> function Mk_apps.App.Yields n -> acc + n | _ -> acc)
      0 phases
  in
  let yield_cost = yields * syscall_cost os Mk_syscall.Sysno.Sched_yield in
  (* Sync points: each allreduce and each halo absorbs stragglers. *)
  let syncs =
    List.concat_map
      (function
        | Mk_apps.App.Allreduce { bytes; count } ->
            List.init count (fun _ -> `Allreduce bytes)
        | Mk_apps.App.Halo { bytes; neighbors; msgs_per_node } ->
            [ `Halo (bytes, neighbors, msgs_per_node) ]
        | Mk_apps.App.Stream _ | Mk_apps.App.Cpu _ | Mk_apps.App.Yields _ -> [])
      phases
  in
  let nsync = max 1 (List.length syncs) in
  let env =
    {
      Mk_mpi.Collective.fabric;
      syscall_cost = (fun s -> syscall_cost os s);
      intra_ranks = ranks_per_node;
    }
  in
  let halo_env =
    (* Control syscalls for halos are charged explicitly (queueing
       model); the tree edges see only wire time. *)
    { env with Mk_mpi.Collective.syscall_cost = (fun _ -> 0) }
  in
  (* Fault plumbing.  Everything below is gated on [fstate]: with no
     plan the healthy code path runs the exact pre-fault arithmetic. *)
  let mpi_policy = Mk_fault.Retry.default_mpi in
  let renvs =
    match fstate with
    | None -> None
    | Some st ->
        let extra_edge ~src ~dst =
          (* A flapping link drops sends; each failed attempt costs a
             timeout plus backoff under the MPI retry policy. *)
          let f =
            Mk_fault.State.flap_failures st src
            + Mk_fault.State.flap_failures st dst
          in
          if f = 0 then 0 else Mk_fault.Retry.retry_time mpi_policy ~failures:f
        in
        let alive = Mk_fault.State.alive_array st in
        Some
          ( Mk_mpi.Resilient.make ~base:env ~alive ~extra_edge,
            Mk_mpi.Resilient.make ~base:halo_env ~alive ~extra_edge )
  in
  let mechanism = Option.map Mk_ikc.Offload.mechanism os.Mk_kernel.Os.offload in
  let has_proxy =
    match mechanism with Some (Mk_ikc.Offload.Proxy _) -> true | _ -> false
  in
  let node_alive =
    match fstate with
    | None -> fun _ -> true
    | Some st -> fun n -> Mk_fault.State.is_alive st n
  in
  let node_factor =
    match fstate with
    | None -> fun _ -> 1.0
    | Some st ->
        fun n ->
          let f = Mk_fault.State.compute_factor st n in
          if
            os.Mk_kernel.Os.kind = Mk_kernel.Os.Linux
            && Mk_fault.State.daemon_hung st n
          then f *. daemon_spill_factor
          else f
  in
  (* Per-node cost scaling; the [f = 1.0] fast path keeps the healthy
     arithmetic purely integral. *)
  let scaled n t =
    let f = node_factor n in
    if f = 1.0 then t else int_of_float (Float.round (float_of_int t *. f))
  in
  let max_alive a =
    match fstate with
    | None -> max_array a
    | Some st ->
        let m = ref min_int in
        Array.iteri
          (fun i c -> if Mk_fault.State.is_alive st i then m := Int.max !m c)
          a;
        if !m = min_int then max_array a else !m
  in
  let recoveries = ref 0 in
  let offloads_per_iteration =
    if Mk_kernel.Os.is_lwk os then
      List.fold_left
        (fun acc -> function
          | `Halo (bytes, _, msgs) ->
              acc + (msgs * List.length (Mk_fabric.Nic.control_syscalls nic ~bytes))
          | `Allreduce _ -> acc)
        0 syncs
    else 0
  in

  (* --- Iterations --------------------------------------------------- *)
  let clocks = Scratch.int_array ~tag:"driver.clocks" ~len:nodes ~init:setup_time in
  let sim_iters = max 2 (min app.Mk_apps.App.sim_iterations app.Mk_apps.App.iterations) in
  let iter_durations =
    Scratch.int_array ~tag:"driver.iter_durations" ~len:sim_iters ~init:0
  in
  (* Per-node iteration-start clocks, kept only when tracing: spans
     need a start timestamp per node. *)
  let iter_snap =
    match obs with
    | Some r when Mk_obs.Recorder.tracing r -> Some (Array.make nodes 0)
    | _ -> None
  in
  let prev_sync = ref (Units.us) in
  for iter = 0 to sim_iters - 1 do
    let start = max_alive clocks in
    with_obs obs (fun r -> Mk_obs.Recorder.set_node r 0);
    (match iter_snap with
    | Some a -> Array.blit clocks 0 a 0 nodes
    | None -> ());
    (* Unfold the fault plan for this iteration. *)
    (match fstate with
    | None -> ()
    | Some st ->
        Mk_fault.State.begin_iteration st ~iteration:iter;
        for n = 0 to nodes - 1 do
          let f = Mk_fault.State.link_factor st n in
          if f > 1.0 then Mk_fabric.Fabric.set_link_factor fabric ~node:n ~factor:f
        done;
        (* Fresh crashes: every survivor times out on the dead peer
           (retry until give-up under the MPI policy) before the
           collective tree is rebuilt without it. *)
        (match Mk_fault.State.take_newly_crashed st with
        | [] -> ()
        | crashed ->
            recoveries := !recoveries + List.length crashed;
            with_obs obs (fun r ->
                List.iter
                  (fun n ->
                    Mk_obs.Recorder.instant r ~ts:start ~node:n ~tid:0
                      ~cat:"fault" ~name:"node-crash" ())
                  crashed);
            if nodes > 1 then begin
              let detect =
                List.length crashed * Mk_fault.Retry.give_up_time mpi_policy
              in
              Array.iteri
                (fun n c ->
                  if Mk_fault.State.is_alive st n then clocks.(n) <- c + detect)
                clocks
            end);
        (* Proxy crash (McKernel only): the node's offloaded requests
           time out, back off and give up, then the proxy is
           respawned.  A node with no offload traffic this iteration
           never notices — the crash costs nothing (MiniFE at 256
           nodes: halos below the eager threshold, zero control
           syscalls). *)
        if has_proxy && offloads_per_iteration > 0 then
          Array.iteri
            (fun n c ->
              if Mk_fault.State.is_alive st n && Mk_fault.State.proxy_down st n
              then begin
                recoveries := !recoveries + 1;
                with_obs obs (fun r ->
                    Mk_obs.Recorder.instant r ~ts:c ~node:n ~tid:0 ~cat:"fault"
                      ~name:"proxy-respawn" ());
                clocks.(n) <-
                  c
                  + Mk_fault.Retry.give_up_time os.Mk_kernel.Os.resilience
                  + Mk_ikc.Offload.respawn_cost
                      (Option.get mechanism)
              end)
            clocks);
    (* Placement and page-size mix can change between iterations
       (cold shared-memory faults, heap growth), so compute costs are
       re-priced each round. *)
    let compute = compute_total node phases in
    let window = compute / nsync in
    (* Cold shared-memory faults: without premap, the first exchange
       populates the windows with every rank contending. *)
    if iter = 0 && not os.Mk_kernel.Os.options.Mk_kernel.Os.mpol_shm_premap then begin
      let worst = ref 0 in
      for rank = 0 to ranks_per_node - 1 do
        let asp = Mk_kernel.Node.address_space node ~rank in
        let c = Mk_mem.Address_space.touch_all asp ~concurrency:ranks_per_node in
        if c > !worst then worst := c
      done;
      Array.iteri
        (fun n c -> if node_alive n then clocks.(n) <- c + scaled n !worst)
        clocks
    end;
    (* Heap churn replay (Lulesh): every node pays the same cost, but
       the cost differs radically between kernels and iterations. *)
    let trace_cost =
      match app.Mk_apps.App.trace with
      | None -> 0
      | Some trace -> replay_trace (trace ~nodes ~iteration:iter)
    in
    let fixed = trace_cost + yield_cost in
    Array.iteri
      (fun n c -> if node_alive n then clocks.(n) <- c + scaled n fixed)
      clocks;
    (* Compute windows interleaved with synchronisation points. *)
    let sync_cost_acc = ref 0 in
    let apply_sync sync =
      (* Advance every node through its compute window plus its
         sampled straggler delay, then synchronise. *)
      let max_skew = ref (-1) and straggler = ref (-1) in
      (* A loop matching [obs] directly: [with_obs] would allocate a
         closure capturing [n] for every node at every sync point, with
         or without a recorder. *)
      for n = 0 to nodes - 1 do
        if node_alive n then begin
          (match obs with Some r -> Mk_obs.Recorder.set_node r n | None -> ());
          let w = scaled n window in
          let skew =
            Mk_noise.Injector.max_delay profile node_rngs.(n)
              ~dur:(w + !prev_sync) ~ranks:stragglers
          in
          if skew > !max_skew then begin
            max_skew := skew;
            straggler := n
          end;
          clocks.(n) <- clocks.(n) + w + skew
        end
      done;
      with_obs obs (fun r ->
          Mk_obs.Recorder.set_node r 0;
          if !max_skew > 0 then
            Mk_obs.Recorder.count_node r ~node:!straggler ~subsystem:"mpi"
              ~name:"straggler" 1);
      let before = max_alive clocks in
      (match (renvs, fstate) with
      | None, _ | _, None -> (
          match sync with
          | `Allreduce bytes -> Mk_mpi.Collective.allreduce env ~clocks ~bytes
          | `Halo (bytes, neighbors, msgs_per_node) ->
              Mk_mpi.P2p.halo halo_env ~clocks ~bytes ~neighbors;
              (* On one node there are no internode messages, hence no
                 NIC control traffic. *)
              if nodes > 1 then begin
                let control =
                  halo_control_cost os ~ranks_per_node ~msgs_per_node
                    ~controls:(Mk_fabric.Nic.control_syscalls nic ~bytes)
                in
                Array.iteri (fun n c -> clocks.(n) <- c + control) clocks
              end)
      | Some (renv, renv_halo), Some st -> (
          match sync with
          | `Allreduce bytes -> Mk_mpi.Resilient.allreduce renv ~clocks ~bytes
          | `Halo (bytes, neighbors, msgs_per_node) ->
              Mk_mpi.Resilient.halo renv_halo ~clocks ~bytes ~neighbors;
              if nodes > 1 then begin
                let controls = Mk_fabric.Nic.control_syscalls nic ~bytes in
                Array.iteri
                  (fun n c ->
                    if Mk_fault.State.is_alive st n then
                      clocks.(n) <-
                        c
                        + halo_control_cost_faulty os st ~node:n ~ranks_per_node
                            ~msgs_per_node ~controls)
                  clocks
              end));
      let sync_cost = max_alive clocks - before in
      with_obs obs (fun r ->
          (* Constant names: a sync span allocates no name. *)
          let name, metric =
            match sync with
            | `Allreduce _ -> ("allreduce", "allreduce_ns")
            | `Halo _ -> ("halo", "halo_ns")
          in
          Mk_obs.Recorder.observe r ~subsystem:"mpi" ~name:metric sync_cost;
          Mk_obs.Recorder.span r ~ts:before ~dur:sync_cost ~node:0 ~tid:1
            ~cat:"mpi" ~name ());
      sync_cost_acc := !sync_cost_acc + sync_cost
    in
    List.iter apply_sync syncs;
    if syncs = [] then begin
      (* No synchronisation: pure per-node progress. *)
      for n = 0 to nodes - 1 do
        if node_alive n then begin
          (match obs with Some r -> Mk_obs.Recorder.set_node r n | None -> ());
          let w = scaled n window in
          let skew =
            Mk_noise.Injector.max_delay profile node_rngs.(n) ~dur:w
              ~ranks:stragglers
          in
          clocks.(n) <- clocks.(n) + w + skew
        end
      done;
      with_obs obs (fun r -> Mk_obs.Recorder.set_node r 0)
    end;
    (* Remainder of the compute that integer division dropped. *)
    let remainder = compute - (window * nsync) in
    if remainder > 0 then
      Array.iteri
        (fun n c -> if node_alive n then clocks.(n) <- c + scaled n remainder)
        clocks;
    prev_sync := !sync_cost_acc / nsync;
    (match (iter_snap, obs) with
    | Some a, Some r ->
        let name = "iter " ^ string_of_int iter in
        for n = 0 to nodes - 1 do
          let dur = clocks.(n) - a.(n) in
          if dur > 0 then
            Mk_obs.Recorder.span r ~ts:a.(n) ~dur ~node:n ~tid:0 ~cat:"iter"
              ~name ()
        done
    | _ -> ());
    iter_durations.(iter) <- max_alive clocks - start
  done;

  (* --- Extrapolation ------------------------------------------------ *)
  let first_iteration = iter_durations.(0) in
  let steady_sum = ref 0 in
  for i = 1 to sim_iters - 1 do
    steady_sum := !steady_sum + iter_durations.(i)
  done;
  let steady_iteration = !steady_sum / max 1 (sim_iters - 1) in
  (* Benchmarks report their figure of merit over the timed solver
     region; start-up (allocation, first touch, window creation) is
     excluded, exactly as the real benchmarks do. *)
  let solve_time =
    first_iteration + (steady_iteration * (app.Mk_apps.App.iterations - 1))
  in
  let total_time = setup_time + solve_time in
  (* --- Aggregates --------------------------------------------------- *)
  let backed = ref 0 and mcdram = ref 0 and faults = ref 0 in
  for rank = 0 to ranks_per_node - 1 do
    let asp = Mk_kernel.Node.address_space node ~rank in
    backed := !backed + Mk_mem.Address_space.backed_bytes asp;
    mcdram := !mcdram + Mk_mem.Address_space.mcdram_bytes asp;
    faults := !faults + (Mk_mem.Address_space.stats asp).Mk_mem.Address_space.faults
  done;
  {
    nodes;
    total_time;
    solve_time;
    setup_time;
    first_iteration;
    steady_iteration;
    fom = Mk_apps.App.fom app ~nodes ~total_time:solve_time;
    mcdram_fraction =
      (if !backed = 0 then 1.0 else float_of_int !mcdram /. float_of_int !backed);
    faults = !faults;
    offloads_per_iteration;
    failures = Mk_kernel.Node.failures node;
    fault_events =
      (match fstate with
      | None -> 0
      | Some st -> Mk_fault.State.events_applied st);
    dead_nodes =
      (match fstate with None -> 0 | Some st -> Mk_fault.State.dead_count st);
    recoveries = !recoveries;
  }

let run ?eager_threshold ?faults ?obs ~scenario ~app ~nodes ~seed () =
  match obs with
  | None ->
      run_body ?eager_threshold ?faults ~obs:None ~scenario ~app ~nodes ~seed ()
  | Some r ->
      (* Install the recorder in the domain-local hook slot so the
         Tier-1 layers (mem, ikc, noise, fault, mpi, sched) reach it
         without threading it through their APIs. *)
      Mk_obs.Hook.with_recorder r (fun () ->
          run_body ?eager_threshold ?faults ~obs ~scenario ~app ~nodes ~seed ())

let pp_result ppf r =
  Format.fprintf ppf
    "@[<v>nodes %d: total %a (setup %a, first %a, steady %a)@ fom %.4g, mcdram %.2f, faults %d, offloads/iter %d, failures %d@]"
    r.nodes Units.pp_time r.total_time Units.pp_time r.setup_time Units.pp_time
    r.first_iteration Units.pp_time r.steady_iteration r.fom r.mcdram_fraction
    r.faults r.offloads_per_iteration r.failures
