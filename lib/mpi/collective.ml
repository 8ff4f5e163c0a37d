type cost_env = {
  fabric : Mk_fabric.Fabric.t;
  syscall_cost : Mk_syscall.Sysno.t -> Mk_engine.Units.time;
  intra_ranks : int;
}

(* Top-level recursion rather than a fold with a capturing closure:
   edge costing runs once per tree edge per collective, and at 2048
   nodes the closure and the (wire, control) tuple of
   [Fabric.message] were the simulator's hottest allocations. *)
let rec add_control_costs env acc = function
  | [] -> acc
  | s :: rest -> add_control_costs env (acc + env.syscall_cost s) rest

let edge_cost env ~src ~dst ~bytes =
  let wire = Mk_fabric.Fabric.wire_time env.fabric ~src ~dst ~bytes in
  if src = dst then wire
  else
    add_control_costs env wire
      (Mk_fabric.Nic.control_syscalls
         (Mk_fabric.Fabric.nic env.fabric)
         ~bytes)

(* [region.(x)]: node x's edge switch, for the [n] nodes of one call;
   domain-local scratch, filled without a division per node. *)
let regions fabric n =
  let region = Mk_engine.Scratch.int_array ~tag:"mpi.region" ~len:n ~init:0 in
  Mk_fabric.Topology.fill_regions (Mk_fabric.Fabric.topology fabric) region;
  region

(* One tree edge's price, from the two wire prices of the call: [near]
   within an edge switch (1 hop), [far] through a spine (3 hops), the
   split {!Mk_fabric.Topology.hops} makes.  Control syscalls are
   priced per edge, as before: on an LWK each one is an offload the
   transport counts. *)
let[@inline] edge_price env ~(region : int array) ~near ~far ~controls ~src ~dst =
  let wire = if region.(src) = region.(dst) then near else far in
  match controls with [] -> wire | _ -> add_control_costs env wire controls

let allreduce env ~clocks ~bytes =
  let n = Array.length clocks in
  if n = 0 then invalid_arg "Collective.allreduce: no nodes";
  Mk_obs.Hook.count ~subsystem:"mpi" ~name:"allreduce_calls" 1;
  let intra = Shm.intra_allreduce ~ranks:env.intra_ranks ~bytes in
  let half = intra / 2 in
  let region = regions env.fabric n in
  let near = Mk_fabric.Fabric.hop_time ~hops:1 ~bytes
  and far = Mk_fabric.Fabric.hop_time ~hops:3 ~bytes in
  let controls =
    Mk_fabric.Nic.control_syscalls (Mk_fabric.Fabric.nic env.fabric) ~bytes
  in
  (* Local reduction to each node's leader. *)
  for i = 0 to n - 1 do
    clocks.(i) <- clocks.(i) + half
  done;
  (* Binomial-tree reduce towards node 0. *)
  let k = ref 1 in
  while !k < n do
    let i = ref 0 in
    while !i < n do
      let j = !i + !k in
      if j < n then begin
        let c = edge_price env ~region ~near ~far ~controls ~src:j ~dst:!i in
        clocks.(!i) <- Int.max clocks.(!i) (clocks.(j) + c)
      end;
      i := !i + (2 * !k)
    done;
    k := !k * 2
  done;
  (* Broadcast back down the same tree. *)
  let k = ref 1 in
  while !k * 2 < n do
    k := !k * 2
  done;
  while !k >= 1 do
    let i = ref 0 in
    while !i < n do
      let j = !i + !k in
      if j < n then begin
        let c = edge_price env ~region ~near ~far ~controls ~src:!i ~dst:j in
        clocks.(j) <- Int.max clocks.(j) (clocks.(!i) + c)
      end;
      i := !i + (2 * !k)
    done;
    k := !k / 2
  done;
  (* Local broadcast to the node's ranks. *)
  for i = 0 to n - 1 do
    clocks.(i) <- clocks.(i) + (intra - half)
  done

let barrier env ~clocks = allreduce env ~clocks ~bytes:8

let synchronise ~clocks =
  let m = Array.fold_left Int.max min_int clocks in
  Array.iteri (fun i _ -> clocks.(i) <- m) clocks
