let neighbor_offsets ~nodes ~neighbors =
  if neighbors <= 0 then []
  else begin
    let side =
      int_of_float (Float.round (Float.cbrt (float_of_int (max 1 nodes))))
    in
    let side = max 1 side in
    let candidates = [ 1; side; side * side ] in
    let rec take n = function
      | [] -> []
      | x :: rest -> if n <= 0 then [] else x :: take (n - 1) rest
    in
    let pos = take ((neighbors + 1) / 2) candidates in
    List.concat_map (fun o -> [ o; -o ]) pos
    |> fun l -> take neighbors l
  end

let messages_per_node ~neighbors = neighbors

let halo env ~clocks ~bytes ~neighbors =
  let n = Array.length clocks in
  if n > 1 && neighbors > 0 then begin
    Mk_obs.Hook.count ~subsystem:"mpi" ~name:"halo_calls" 1;
    let offsets =
      Array.of_list
        (List.map
           (fun off -> ((off mod n) + n) mod n)
           (neighbor_offsets ~nodes:n ~neighbors))
    in
    let send_cost = Array.length offsets * List.fold_left
                      (fun acc s -> acc + env.Collective.syscall_cost s)
                      0
                      (Mk_fabric.Nic.control_syscalls
                         (Mk_fabric.Fabric.nic env.Collective.fabric)
                         ~bytes)
    in
    (* Domain-local scratch instead of a fresh copy: the halo runs
       once per sync point per iteration per run, and the copy of a
       2048-node clock array was pure minor-heap churn. *)
    let before = Mk_engine.Scratch.int_array ~tag:"p2p.halo.before" ~len:n ~init:0 in
    Array.blit clocks 0 before 0 n;
    (* Every message of the call costs one of two wire prices: [near]
       within an edge switch, [far] through a spine.  Only a degraded
       fabric scales them per edge. *)
    let fabric = env.Collective.fabric in
    let region = Collective.regions fabric n in
    let near = Mk_fabric.Fabric.hop_time ~hops:1 ~bytes
    and far = Mk_fabric.Fabric.hop_time ~hops:3 ~bytes in
    let degraded = Mk_fabric.Fabric.degraded fabric in
    for i = 0 to n - 1 do
      (* Node [i] proceeds when the last of its own send and its
         neighbours' messages is done.  The offsets are already in
         [0, n), so finding a neighbour costs one add and one
         conditional subtract. *)
      let arrival = ref (before.(i) + send_cost) in
      for o = 0 to Array.length offsets - 1 do
        let j = i + offsets.(o) in
        let j = if j >= n then j - n else j in
        let wire =
          if j = i then 0
          else begin
            let w = if region.(i) = region.(j) then near else far in
            if degraded then Mk_fabric.Fabric.scale_link fabric ~src:j ~dst:i w else w
          end
        in
        arrival := Int.max !arrival (before.(j) + send_cost + wire)
      done;
      clocks.(i) <- !arrival
    done
  end
