open Mk_engine

type result = { completion : Units.time; messages : int }

(* Both formulations share the same tree and the same edge pricing so
   that the silent-profile case agrees bit for bit. *)
let edge_cost fabric ~src ~dst ~bytes =
  Mk_fabric.Fabric.wire_time fabric ~src ~dst ~bytes

let intra_halves ~ranks_per_node ~bytes =
  let intra = Mk_mpi.Shm.intra_allreduce ~ranks:ranks_per_node ~bytes in
  (intra / 2, intra - (intra / 2))

(* Reduce/broadcast round structure of Mk_mpi.Collective.allreduce:
   in reduce round k (1,2,4,...), node i with i mod 2k = 0 receives
   from i+k; broadcast reverses. *)
let reduce_rounds nodes =
  let rec go k acc = if k < nodes then go (2 * k) (k :: acc) else acc in
  List.rev (go 1 [])

let allreduce_loop ~nodes ~ranks_per_node ~threads_per_rank ~window ~iterations
    ~bytes ~profile ~fabric ~seed =
  if nodes <= 0 || iterations <= 0 then
    invalid_arg "Cluster_des.allreduce_loop: positive sizes required";
  let stragglers = ranks_per_node * threads_per_rank in
  let rngs = Array.init nodes (fun n -> Rng.split (Rng.create (seed * 7919)) (1000 + n)) in
  let half1, half2 = intra_halves ~ranks_per_node ~bytes in
  let rounds = Array.of_list (reduce_rounds nodes) in
  let depth = Array.length rounds in
  (* An iteration runs in phases: 0 is every node's arrival, 1 to
     [depth] the reduce rounds (k ascending), [depth + 1] to
     [2 * depth] the broadcast rounds (k descending).  Each phase's
     events all fire before the next phase is scheduled, so an event
     is just the node it lands on: [arrival.(n)] is when, and the
     phase says what it means. *)
  let phase = ref 0 and outstanding = ref 0 and iter = ref 0 in
  let messages = ref 0 in
  let arrival = Array.make nodes 0 in
  (* ready.(n): when node n finished its local reduce half, then the
     latest value it has received. *)
  let ready = Array.make nodes 0 in
  (* When node n left the last iteration, so may begin the next. *)
  let exit_time = Array.make nodes 0 in
  let deliver sim n at =
    arrival.(n) <- at;
    incr outstanding;
    Sim.schedule sim ~at:(Int.max (Sim.now sim) at) n
  in
  (* Arrival events: compute window + straggler delay + local reduce
     half. *)
  let arrivals sim =
    for n = 0 to nodes - 1 do
      let skew =
        Mk_noise.Injector.max_delay profile rngs.(n) ~dur:window
          ~ranks:stragglers
      in
      deliver sim n (exit_time.(n) + window + skew + half1)
    done
  in
  (* All pairs of a round exchange concurrently; the round completes
     when the last message lands. *)
  let round sim k ~up =
    let i = ref 0 in
    while !i + k < nodes do
      let src, dst = if up then (!i + k, !i) else (!i, !i + k) in
      incr messages;
      deliver sim dst (ready.(src) + edge_cost fabric ~src ~dst ~bytes);
      i := !i + (2 * k)
    done
  in
  (* The phase that just drained is over: schedule the next one that
     has events, closing the iteration after its last broadcast. *)
  let rec advance sim =
    if !phase = 2 * depth then begin
      for n = 0 to nodes - 1 do
        exit_time.(n) <- ready.(n) + half2
      done;
      incr iter;
      phase := 0;
      if !iter < iterations then arrivals sim
    end
    else begin
      incr phase;
      if !phase <= depth then round sim rounds.(!phase - 1) ~up:true
      else round sim rounds.((2 * depth) - !phase) ~up:false;
      if !outstanding = 0 then advance sim
    end
  in
  let sim =
    Sim.create (fun sim n ->
        let at = arrival.(n) in
        if !phase = 0 || at > ready.(n) then ready.(n) <- at;
        decr outstanding;
        if !outstanding = 0 then advance sim)
  in
  arrivals sim;
  Sim.run sim;
  { completion = Array.fold_left Int.max 0 exit_time; messages = !messages }

(* ------------------------------------------------------------------ *)
(* Sharded parallel path.                                             *)
(*                                                                    *)
(* Same tree, same edge pricing, different execution: nodes are       *)
(* partitioned by fabric region onto [shards] independent event heaps *)
(* ({!Mk_engine.Shard}), and the global round barriers of the serial  *)
(* loop are replaced by per-node dataflow.  Node j's reduce value is  *)
(* final once its start and its statically known inputs (j + k for    *)
(* rounds k with 2k | j, j + k < nodes) have arrived — in the serial  *)
(* loop too, j's sender in round k has received everything it ever    *)
(* will before that round is scheduled, so the value read per edge is *)
(* identical and only the firing *times* of events differ, which the  *)
(* result cannot observe.  A node's broadcast arrival is stamped      *)
(* strictly later than all its reduce inputs (the parent's value      *)
(* already dominates the node's own), so a two-phase counter per node *)
(* is enough: no event can arrive out of phase.                       *)
(*                                                                    *)
(* Cross-shard messages are cross-region by construction (a shard     *)
(* owns whole regions), so every one costs at least the healthy       *)
(* 3-hop wire time — Fabric.min_cross_region_time, the lookahead.    *)

type sharding = {
  shard_events : int;  (** DES events fired, summed over shards *)
  cross_messages : int;  (** node messages that crossed a shard boundary *)
  null_messages : int;  (** CMB null promises exchanged *)
  horizon_stalls : int;  (** shard-epochs spent waiting on the horizon *)
  epochs : int;  (** conservative synchronisation rounds *)
  fast_forwarded : int;  (** iterations advanced in closed form *)
}

let sharded_allreduce_loop ?pool ?observer ?(fast_forward = true) ~shards
    ~nodes ~ranks_per_node ~threads_per_rank ~window ~iterations ~bytes
    ~profile ~fabric ~seed () =
  if nodes <= 0 || iterations <= 0 then
    invalid_arg "Cluster_des.sharded_allreduce_loop: positive sizes required";
  if shards <= 0 then
    invalid_arg "Cluster_des.sharded_allreduce_loop: shards must be positive";
  let stragglers = ranks_per_node * threads_per_rank in
  let rngs =
    Array.init nodes (fun n -> Rng.split (Rng.create (seed * 7919)) (1000 + n))
  in
  let half1, half2 = intra_halves ~ranks_per_node ~bytes in
  let topo = Mk_fabric.Fabric.topology fabric in
  let shard_of = Array.init nodes (fun n -> Mk_fabric.Topology.region topo n mod shards) in
  let members = Array.make shards [] in
  for n = nodes - 1 downto 0 do
    members.(shard_of.(n)) <- n :: members.(shard_of.(n))
  done;
  let lookahead = Mk_fabric.Fabric.min_cross_region_time fabric ~bytes in
  let rounds_desc = List.rev (reduce_rounds nodes) in
  (* Broadcast sends of node j, in the serial round order (descending
     k); by symmetry the same list read backwards is j's reduce input
     set, so one table serves both directions. *)
  let children =
    Array.init nodes (fun j ->
        List.filter (fun k -> j mod (2 * k) = 0 && j + k < nodes) rounds_desc)
  in
  let fan_in = Array.map List.length children in
  let lsb j = j land -j in
  (* Per-node state, touched only by the owning shard's current
     domain; epoch barriers order the handoffs. *)
  let value = Array.make nodes 0 in
  let await = Array.make nodes 0 in
  let bcast = Array.make nodes false in
  let exits = Array.make nodes 0 in
  let sent = Array.make shards 0 in
  let edge src dst = edge_cost fabric ~src ~dst ~bytes in
  let rec arrive sh n v =
    if v > value.(n) then value.(n) <- v;
    await.(n) <- await.(n) - 1;
    if await.(n) = 0 then
      if bcast.(n) then emit sh n
      else if n = 0 then emit sh 0
      else begin
        bcast.(n) <- true;
        await.(n) <- 1;
        post sh n (n - lsb n)
      end
  and emit sh n =
    broadcast sh n children.(n);
    exits.(n) <- value.(n) + half2
  and broadcast sh n = function
    | [] -> ()
    | k :: ks ->
        post sh n (n + k);
        broadcast sh n ks
  and post sh src dst =
    sent.(Mk_engine.Shard.id sh) <- sent.(Mk_engine.Shard.id sh) + 1;
    let at = value.(src) + edge src dst in
    Mk_engine.Shard.send sh ~shard:shard_of.(dst) ~at dst
  in
  (* Every event is a node id, its arrival or a message to it alike:
     both carry their value as their time. *)
  let receive sh dst = arrive sh dst (Mk_engine.Shard.now sh) in
  (* [exits] doubles as next-iteration start times (zero initially). *)
  let init sh =
    List.iter
      (fun n ->
        (* mklint: allow R8 — the per-node arrays are partitioned, not
           shared: node [n] belongs to exactly one shard (members /
           shard_of), so each cell is only ever written by the domain
           running that shard, and the epoch barrier in Shard.run
           orders the cross-iteration handoff of [exits]. *)
        value.(n) <- 0; bcast.(n) <- false; await.(n) <- fan_in.(n) + 1;
        let skew =
          Mk_noise.Injector.max_delay profile rngs.(n) ~dur:window
            ~ranks:stragglers
        in
        Mk_engine.Shard.send sh ~shard:(Mk_engine.Shard.id sh)
          ~at:(exits.(n) + window + skew + half1)
          n)
      members.(Mk_engine.Shard.id sh)
  in
  let events = ref 0 and crossings = ref 0 and nulls = ref 0 in
  let stalls = ref 0 and epochs = ref 0 in
  let per_shard_events = Array.make shards 0 in
  let per_shard_nulls = Array.make shards 0 in
  let per_shard_stalls = Array.make shards 0 in
  (* Closed-form fast-forward.  With a silent profile the iteration
     map on exit vectors is max-plus rank-one: e'(j) = half2 + down(j)
     + max_n (e(n) + window + half1 + up(n)), so adding a constant to
     every exit adds the same constant to every next exit.  Once two
     consecutive iterations differ by a uniform delta d (and moved the
     same message count, as a cross-check), all remaining iterations
     provably replay shifted by d — advance the population in O(nodes)
     and skip the events entirely. *)
  let silent = profile.Mk_noise.Profile.sources = [] in
  let prev_exits = Array.make nodes 0 in
  let prev_sent = ref (-1) in
  let have_prev = ref false in
  let skipped = ref 0 in
  let iter = ref 0 in
  let running = ref true in
  while !running && !iter < iterations do
    let sent_before = Array.fold_left ( + ) 0 sent in
    Array.blit exits 0 prev_exits 0 nodes;
    let stats =
      Mk_engine.Shard.run ?pool ?observer ~shards ~lookahead ~init ~receive ()
    in
    Array.iteri
      (fun s n ->
        per_shard_events.(s) <- per_shard_events.(s) + n;
        events := !events + n)
      stats.Mk_engine.Shard.events;
    Array.iter (fun n -> crossings := !crossings + n)
      stats.Mk_engine.Shard.cross_messages;
    Array.iteri
      (fun s n ->
        per_shard_nulls.(s) <- per_shard_nulls.(s) + n;
        nulls := !nulls + n)
      stats.Mk_engine.Shard.null_messages;
    Array.iteri
      (fun s n ->
        per_shard_stalls.(s) <- per_shard_stalls.(s) + n;
        stalls := !stalls + n)
      stats.Mk_engine.Shard.horizon_stalls;
    epochs := !epochs + stats.Mk_engine.Shard.epochs;
    incr iter;
    let m_iter = Array.fold_left ( + ) 0 sent - sent_before in
    if fast_forward && silent && !iter < iterations then begin
      if !have_prev then begin
        let d = exits.(0) - prev_exits.(0) in
        let uniform = ref (d > 0) in
        for n = 1 to nodes - 1 do
          if exits.(n) - prev_exits.(n) <> d then uniform := false
        done;
        if !uniform && m_iter = !prev_sent then begin
          let remaining = iterations - !iter in
          skipped := remaining;
          for n = 0 to nodes - 1 do
            exits.(n) <- exits.(n) + (remaining * d)
          done;
          sent.(0) <- sent.(0) + (remaining * m_iter);
          running := false
        end
      end;
      have_prev := true;
      prev_sent := m_iter
    end
  done;
  for s = 0 to shards - 1 do
    if per_shard_events.(s) > 0 then
      Mk_obs.Hook.count_node ~node:s ~subsystem:"des" ~name:"events"
        per_shard_events.(s);
    if per_shard_nulls.(s) > 0 then
      Mk_obs.Hook.count_node ~node:s ~subsystem:"des" ~name:"null_messages"
        per_shard_nulls.(s);
    if per_shard_stalls.(s) > 0 then
      Mk_obs.Hook.count_node ~node:s ~subsystem:"des" ~name:"horizon_stalls"
        per_shard_stalls.(s)
  done;
  if !epochs > 0 then Mk_obs.Hook.count ~subsystem:"des" ~name:"epochs" !epochs;
  if !skipped > 0 then
    Mk_obs.Hook.count ~subsystem:"des" ~name:"fast_forward_iters" !skipped;
  ( {
      completion = Array.fold_left Int.max 0 exits;
      messages = Array.fold_left ( + ) 0 sent;
    },
    {
      shard_events = !events;
      cross_messages = !crossings;
      null_messages = !nulls;
      horizon_stalls = !stalls;
      epochs = !epochs;
      fast_forwarded = !skipped;
    } )

let analytic_allreduce_loop ~nodes ~ranks_per_node ~threads_per_rank ~window
    ~iterations ~bytes ~profile ~fabric ~seed =
  let stragglers = ranks_per_node * threads_per_rank in
  let rngs = Array.init nodes (fun n -> Rng.split (Rng.create (seed * 7919)) (1000 + n)) in
  let env =
    {
      Mk_mpi.Collective.fabric;
      syscall_cost = (fun _ -> 0);
      intra_ranks = ranks_per_node;
    }
  in
  let clocks = Array.make nodes 0 in
  for _ = 1 to iterations do
    Array.iteri
      (fun n c ->
        let skew =
          Mk_noise.Injector.max_delay profile rngs.(n) ~dur:window ~ranks:stragglers
        in
        clocks.(n) <- c + window + skew)
      clocks;
    Mk_mpi.Collective.allreduce env ~clocks ~bytes
  done;
  Array.fold_left Int.max 0 clocks
