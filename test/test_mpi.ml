(* Tests for the MPI runtime: communicators, shared-memory transport,
   collectives over node clocks and halo exchanges. *)

open Mk_mpi

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_comm_geometry () =
  let c = Comm.make ~nodes:4 ~ranks_per_node:64 in
  check_int "size" 256 (Comm.size c);
  check_int "node of 130" 2 (Comm.node_of_rank c 130);
  check_int "local of 130" 2 (Comm.local_of_rank c 130);
  check_int "roundtrip" 130 (Comm.rank_of c ~node:2 ~local:2);
  check_bool "same node" true (Comm.same_node c 128 130);
  check_bool "different node" false (Comm.same_node c 64 130)

let test_comm_bad_rank () =
  let c = Comm.make ~nodes:2 ~ranks_per_node:4 in
  check_bool "out of range rejected" true
    (try
       ignore (Comm.node_of_rank c 8);
       false
     with Invalid_argument _ -> true)

let test_shm_message_time () =
  check_bool "latency floor" true (Shm.message_time ~bytes:0 >= Shm.latency);
  check_bool "monotone" true
    (Shm.message_time ~bytes:(1024 * 1024) > Shm.message_time ~bytes:1024)

let test_shm_reduce_steps () =
  check_int "1 rank" 0 (Shm.reduce_steps ~ranks:1);
  check_int "2 ranks" 1 (Shm.reduce_steps ~ranks:2);
  check_int "64 ranks" 6 (Shm.reduce_steps ~ranks:64);
  check_int "65 ranks" 7 (Shm.reduce_steps ~ranks:65)

let mk_env ?(nodes = 16) () =
  {
    Collective.fabric = Mk_fabric.Fabric.make ~nodes ();
    syscall_cost = (fun _ -> 0);
    intra_ranks = 64;
  }

let test_allreduce_synchronises () =
  let env = mk_env () in
  let clocks = Array.init 16 (fun i -> i * 1000) in
  Collective.allreduce env ~clocks ~bytes:8;
  (* After an allreduce everyone has at least the straggler's time
     plus communication. *)
  let mx = Array.fold_left max 0 clocks in
  let mn = Array.fold_left min max_int clocks in
  check_bool "everyone past the straggler" true (mn >= 15_000);
  (* Tree broadcast skew is bounded by depth * edge cost. *)
  check_bool "bounded skew" true (mx - mn < 100_000)

let test_allreduce_cost_grows_with_scale () =
  let cost nodes =
    let env = mk_env ~nodes () in
    let clocks = Array.make nodes 0 in
    Collective.allreduce env ~clocks ~bytes:8;
    Array.fold_left max 0 clocks
  in
  check_bool "1024 dearer than 16" true (cost 1024 > cost 16);
  check_bool "log-ish growth" true (cost 1024 < 4 * cost 16)

let test_allreduce_straggler_gates_everyone () =
  let env = mk_env () in
  let clocks = Array.make 16 0 in
  clocks.(7) <- 1_000_000;
  Collective.allreduce env ~clocks ~bytes:8;
  Array.iteri
    (fun i c -> check_bool (Printf.sprintf "node %d waited" i) true (c >= 1_000_000))
    clocks

let test_allreduce_single_node () =
  let env = mk_env ~nodes:1 () in
  let clocks = [| 500 |] in
  Collective.allreduce env ~clocks ~bytes:8;
  (* Only the intra-node reduction applies. *)
  check_int "intra cost only" (500 + Shm.intra_allreduce ~ranks:64 ~bytes:8) clocks.(0)

let test_allreduce_syscall_cost_charged () =
  (* With a fat payload the edges charge the sender's control calls. *)
  let base = mk_env () in
  let env = { base with Collective.syscall_cost = (fun _ -> 10_000) } in
  let free = mk_env () in
  let c1 = Array.make 16 0 and c2 = Array.make 16 0 in
  Collective.allreduce env ~clocks:c1 ~bytes:(256 * 1024);
  Collective.allreduce free ~clocks:c2 ~bytes:(256 * 1024);
  check_bool "syscalls on the critical path" true
    (Array.fold_left max 0 c1 > Array.fold_left max 0 c2)

let test_barrier_is_small_allreduce () =
  let env = mk_env () in
  let a = Array.make 16 0 and b = Array.make 16 0 in
  Collective.barrier env ~clocks:a;
  Collective.allreduce env ~clocks:b ~bytes:8;
  Alcotest.(check (array int)) "barrier = 8-byte allreduce" b a

let test_synchronise () =
  let clocks = [| 5; 9; 1 |] in
  Collective.synchronise ~clocks;
  Alcotest.(check (array int)) "all at max" [| 9; 9; 9 |] clocks

let test_neighbor_offsets () =
  let offsets = P2p.neighbor_offsets ~nodes:64 ~neighbors:6 in
  check_int "six offsets" 6 (List.length offsets);
  (* 3D decomposition of 64 nodes: side 4. *)
  Alcotest.(check (list int)) "stencil offsets" [ 1; -1; 4; -4; 16; -16 ] offsets

let test_halo_waits_for_neighbors () =
  let env = mk_env () in
  let clocks = Array.make 16 0 in
  clocks.(1) <- 500_000;
  P2p.halo env ~clocks ~bytes:1024 ~neighbors:2;
  (* Node 0 talks to 1 (offset +-1): it must wait for node 1. *)
  check_bool "node 0 waited for 1" true (clocks.(0) > 500_000);
  (* A node far from the straggler in the ring is unaffected. *)
  check_bool "node 8 oblivious" true (clocks.(8) < 100_000)

let test_halo_single_node_noop () =
  let env = mk_env ~nodes:1 () in
  let clocks = [| 42 |] in
  P2p.halo env ~clocks ~bytes:1024 ~neighbors:6;
  check_int "unchanged" 42 clocks.(0)


(* The fold-based halo [P2p.halo] replaced, kept as its oracle: one
   closure per node, both offsets reduced with two [mod]s per edge
   (a fresh copy stands in for the scratch array). *)
module Halo_reference = struct
  let halo env ~clocks ~bytes ~neighbors =
    let n = Array.length clocks in
    if n > 1 && neighbors > 0 then begin
      let offsets = P2p.neighbor_offsets ~nodes:n ~neighbors in
      let send_cost = List.length offsets * List.fold_left
                        (fun acc s -> acc + env.Collective.syscall_cost s)
                        0
                        (Mk_fabric.Nic.control_syscalls
                           (Mk_fabric.Fabric.nic env.Collective.fabric)
                           ~bytes)
      in
      let before = Array.copy clocks in
      Array.iteri
        (fun i c ->
          let arrival =
            List.fold_left
              (fun acc off ->
                let j = ((i + off) mod n + n) mod n in
                let wire =
                  Mk_fabric.Fabric.wire_time env.Collective.fabric ~src:j ~dst:i
                    ~bytes
                in
                max acc (before.(j) + send_cost + wire))
              (c + send_cost) offsets
          in
          clocks.(i) <- arrival)
        before
    end
end

(* Tiny node counts matter most: there the offsets reach +-n; others
   straddle the 24-node edge switches.  Byte counts straddle the NIC's
   eager threshold, so rendezvous control calls are charged on one
   side. *)
let test_halo_matches_reference () =
  let eager = Mk_fabric.Nic.eager_threshold (Mk_fabric.Nic.make ()) in
  let rng = Mk_engine.Rng.create 17 in
  List.iter
    (fun nodes ->
      let env =
        { (mk_env ~nodes ()) with Collective.syscall_cost = (fun _ -> 700) }
      in
      for neighbors = 1 to 26 do
        List.iter
          (fun bytes ->
            let clocks = Array.init nodes (fun _ -> Mk_engine.Rng.int rng 50_000) in
            let expected = Array.copy clocks in
            P2p.halo env ~clocks ~bytes ~neighbors;
            Halo_reference.halo env ~clocks:expected ~bytes ~neighbors;
            Alcotest.(check (array int))
              (Printf.sprintf "%d nodes, %d neighbors, %d bytes" nodes neighbors
                 bytes)
              expected clocks)
          [ 8; eager; eager + 1; 1024 * 1024 ]
      done)
    [ 1; 2; 3; 4; 5; 8; 9; 23; 24; 25; 27; 48; 49; 64; 1000; 2048 ]

(* A halo runs once per sync point per iteration, so at the paper's
   largest job a closure per node would cost ~20,000 words a call. *)
let test_halo_alloc_budget () =
  if Sys.backend_type <> Sys.Native then Alcotest.skip ();
  let env = mk_env ~nodes:2048 () in
  let clocks = Array.make 2048 0 in
  let calls = 100 in
  P2p.halo env ~clocks ~bytes:(180 * 1024) ~neighbors:26;
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    P2p.halo env ~clocks ~bytes:(180 * 1024) ~neighbors:26
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int calls in
  if words > 128.0 then Alcotest.failf "2048 nodes: %.1f words/halo > 128" words

(* The allreduce before it priced its edges from two wire values per
   call, kept as its oracle: [Collective.edge_cost] (hops, serialisation
   and control syscalls) on every tree edge. *)
module Allreduce_reference = struct
  let allreduce env ~clocks ~bytes =
    let n = Array.length clocks in
    let intra = Shm.intra_allreduce ~ranks:env.Collective.intra_ranks ~bytes in
    let half = intra / 2 in
    Array.iteri (fun i c -> clocks.(i) <- c + half) clocks;
    let k = ref 1 in
    while !k < n do
      let i = ref 0 in
      while !i < n do
        let j = !i + !k in
        if j < n then begin
          let c = Collective.edge_cost env ~src:j ~dst:!i ~bytes in
          clocks.(!i) <- max clocks.(!i) (clocks.(j) + c)
        end;
        i := !i + (2 * !k)
      done;
      k := !k * 2
    done;
    let k = ref 1 in
    while !k * 2 < n do
      k := !k * 2
    done;
    while !k >= 1 do
      let i = ref 0 in
      while !i < n do
        let j = !i + !k in
        if j < n then begin
          let c = Collective.edge_cost env ~src:!i ~dst:j ~bytes in
          clocks.(j) <- max clocks.(j) (clocks.(!i) + c)
        end;
        i := !i + (2 * !k)
      done;
      k := !k / 2
    done;
    Array.iteri (fun i c -> clocks.(i) <- c + (intra - half)) clocks
end

(* Node counts straddle the 24-node edge switches; byte counts straddle
   the eager threshold, so rendezvous edges price (and, on an LWK,
   count) their control syscalls.  Each side's syscall pricer counts
   its calls, and the counts must agree too. *)
let test_allreduce_matches_reference () =
  let eager = Mk_fabric.Nic.eager_threshold (Mk_fabric.Nic.make ()) in
  let rng = Mk_engine.Rng.create 23 in
  List.iter
    (fun nodes ->
      let fabric = Mk_fabric.Fabric.make ~nodes () in
      List.iter
        (fun bytes ->
          let counted () =
            let calls = ref 0 in
            ( {
                Collective.fabric;
                syscall_cost =
                  (fun _ ->
                    incr calls;
                    700);
                intra_ranks = 64;
              },
              calls )
          in
          let env, calls = counted () and ref_env, ref_calls = counted () in
          let what = Printf.sprintf "%d nodes, %d bytes" nodes bytes in
          let clocks = Array.init nodes (fun _ -> Mk_engine.Rng.int rng 50_000) in
          let expected = Array.copy clocks in
          Collective.allreduce env ~clocks ~bytes;
          Allreduce_reference.allreduce ref_env ~clocks:expected ~bytes;
          Alcotest.(check (array int)) what expected clocks;
          check_int (what ^ ", syscall pricings") !ref_calls !calls)
        [ 8; eager; eager + 1; 1024 * 1024 ])
    [ 1; 2; 23; 24; 25; 48; 49; 1000; 2048 ]

(* An allreduce runs at every sync point of every iteration; at the
   paper's largest job its 4,094 edges must not allocate. *)
let test_allreduce_alloc_budget () =
  if Sys.backend_type <> Sys.Native then Alcotest.skip ();
  let env = mk_env ~nodes:2048 () in
  let clocks = Array.make 2048 0 in
  let calls = 100 in
  Collective.allreduce env ~clocks ~bytes:8;
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    Collective.allreduce env ~clocks ~bytes:8
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int calls in
  if words > 16.0 then Alcotest.failf "2048 nodes: %.1f words/allreduce > 16" words

(* ------------------------------------------------------------------ *)
(* Event-driven intra-node collective *)

let test_intranode_single_rank () =
  let r = Intranode.allreduce ~ranks:1 ~bytes:8 ~wait:Intranode.Spin () in
  check_int "no messages" 0 r.Intranode.messages;
  check_int "instant" 0 r.Intranode.completion

let test_intranode_message_count () =
  (* A binomial reduce + broadcast over R ranks moves 2(R-1) messages. *)
  List.iter
    (fun ranks ->
      let r = Intranode.allreduce ~ranks ~bytes:8 ~wait:Intranode.Spin () in
      check_int (Printf.sprintf "%d ranks" ranks) (2 * (ranks - 1)) r.Intranode.messages)
    [ 2; 3; 8; 17; 64 ]

let test_intranode_log_depth () =
  (* Completion grows with the tree depth, not the rank count. *)
  let time ranks =
    (Intranode.allreduce ~ranks ~bytes:8 ~wait:Intranode.Spin ()).Intranode.completion
  in
  let t2 = time 2 and t64 = time 64 in
  check_bool "64 ranks only ~6x deeper" true (t64 <= 6 * t2 + 1)

let test_intranode_futex_dearer () =
  let spin = Intranode.allreduce ~ranks:64 ~bytes:8 ~wait:Intranode.Spin () in
  let futex =
    Intranode.allreduce ~ranks:64 ~bytes:8 ~wait:(Intranode.Futex_wake 4_000) ()
  in
  check_bool "futex wakes cost" true
    (futex.Intranode.completion > spin.Intranode.completion);
  check_int "every message wakes someone" futex.Intranode.messages
    futex.Intranode.wakeups;
  check_int "spin never wakes" 0 spin.Intranode.wakeups

let test_intranode_straggler_gates () =
  let skew rank = if rank = 33 then 1_000_000 else 0 in
  let r = Intranode.allreduce ~ranks:64 ~bytes:8 ~wait:Intranode.Spin ~skew () in
  check_bool "held by the straggler" true (r.Intranode.completion > 1_000_000)

let test_intranode_matches_analytic_shape () =
  (* The DES and the analytic intra-node cost agree within a small
     factor (the analytic model charges 2 log2 R full steps). *)
  let des =
    (Intranode.allreduce ~ranks:64 ~bytes:8 ~wait:Intranode.Spin ()).Intranode.completion
  in
  let analytic = Shm.intra_allreduce ~ranks:64 ~bytes:8 in
  check_bool "same order of magnitude" true (analytic / 3 < des && des < analytic * 3)

let test_intranode_sweep_monotone () =
  let sweep =
    Intranode.latency_sweep ~ranks:16 ~wait:Intranode.Spin [ 8; 1024; 65536; 1048576 ]
  in
  let rec monotone = function
    | (_, a) :: ((_, b) :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  check_bool "latency grows with size" true (monotone sweep)

(* Exact outcomes of the event-driven collective, recorded from the
   closure-per-event engine it used to run on: the int-event engine
   must fire the same events at the same times.  The straggler skew
   holds the last rank back 1 ms and staggers the rest by 0-3 us, so
   arrivals interleave with tree messages. *)
let test_intranode_pinned () =
  let straggler ranks r = if r = ranks - 1 then 1_000_000 else r mod 3 * 1_500 in
  List.iter
    (fun (ranks, wait, straggles, completion, messages, wakeups) ->
      let skew = if straggles then straggler ranks else fun _ -> 0 in
      let r = Intranode.allreduce ~ranks ~bytes:8 ~wait ~skew () in
      let at what =
        Printf.sprintf "%s: %d ranks, %s%s" what ranks
          (match wait with
          | Intranode.Spin -> "spin"
          | Intranode.Futex_wake w -> Printf.sprintf "futex %d" w)
          (if straggles then ", straggler" else "")
      in
      check_int (at "completion") completion r.Intranode.completion;
      check_int (at "messages") messages r.Intranode.messages;
      check_int (at "wakeups") wakeups r.Intranode.wakeups)
    (let spin = Intranode.Spin and futex = Intranode.Futex_wake 4_000 in
     [
       (1, spin, false, 0, 0, 0);
       (1, spin, true, 1_000_000, 0, 0);
       (1, futex, false, 0, 0, 0);
       (1, futex, true, 1_000_000, 0, 0);
       (2, spin, false, 1_106, 2, 0);
       (2, spin, true, 1_001_106, 2, 0);
       (2, futex, false, 9_106, 2, 2);
       (2, futex, true, 1_009_106, 2, 2);
       (17, spin, false, 4_424, 32, 0);
       (17, spin, true, 1_002_765, 32, 0);
       (17, futex, false, 36_424, 32, 32);
       (17, futex, true, 1_022_765, 32, 32);
       (64, spin, false, 6_636, 126, 0);
       (64, spin, true, 1_006_636, 126, 0);
       (64, futex, false, 54_636, 126, 126);
       (64, futex, true, 1_054_636, 126, 126);
     ])

let allreduce_preserves_order =
  QCheck.Test.make ~name:"allreduce never rewinds a clock" ~count:50
    QCheck.(list_of_size (Gen.return 16) (int_range 0 1_000_000))
    (fun starts ->
      let clocks = Array.of_list starts in
      let before = Array.copy clocks in
      let env = mk_env () in
      Collective.allreduce env ~clocks ~bytes:8;
      Array.for_all2 (fun a b -> b >= a) before clocks)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "mk_mpi"
    [
      ( "comm",
        [
          Alcotest.test_case "geometry" `Quick test_comm_geometry;
          Alcotest.test_case "bad rank" `Quick test_comm_bad_rank;
        ] );
      ( "shm",
        [
          Alcotest.test_case "message time" `Quick test_shm_message_time;
          Alcotest.test_case "reduce steps" `Quick test_shm_reduce_steps;
        ] );
      ( "collective",
        Alcotest.test_case "synchronises" `Quick test_allreduce_synchronises
        :: Alcotest.test_case "cost grows with scale" `Quick
             test_allreduce_cost_grows_with_scale
        :: Alcotest.test_case "straggler gates" `Quick
             test_allreduce_straggler_gates_everyone
        :: Alcotest.test_case "single node" `Quick test_allreduce_single_node
        :: Alcotest.test_case "syscalls charged" `Quick
             test_allreduce_syscall_cost_charged
        :: Alcotest.test_case "barrier" `Quick test_barrier_is_small_allreduce
        :: Alcotest.test_case "synchronise" `Quick test_synchronise
        :: qsuite [ allreduce_preserves_order ]
        @ [
            Alcotest.test_case "matches per-edge reference" `Quick
              test_allreduce_matches_reference;
            Alcotest.test_case "allreduce allocation budget" `Quick
              test_allreduce_alloc_budget;
          ] );
      ( "intranode",
        [
          Alcotest.test_case "single rank" `Quick test_intranode_single_rank;
          Alcotest.test_case "message count" `Quick test_intranode_message_count;
          Alcotest.test_case "log depth" `Quick test_intranode_log_depth;
          Alcotest.test_case "futex dearer" `Quick test_intranode_futex_dearer;
          Alcotest.test_case "straggler gates" `Quick test_intranode_straggler_gates;
          Alcotest.test_case "matches analytic" `Quick
            test_intranode_matches_analytic_shape;
          Alcotest.test_case "sweep monotone" `Quick test_intranode_sweep_monotone;
          Alcotest.test_case "pinned outcomes" `Quick test_intranode_pinned;
        ] );
      ( "p2p",
        [
          Alcotest.test_case "neighbor offsets" `Quick test_neighbor_offsets;
          Alcotest.test_case "waits for neighbors" `Quick test_halo_waits_for_neighbors;
          Alcotest.test_case "single node noop" `Quick test_halo_single_node_noop;
          Alcotest.test_case "matches fold-based reference" `Quick
            test_halo_matches_reference;
          Alcotest.test_case "halo allocation budget" `Quick test_halo_alloc_budget;
        ] );
    ]
