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

(* When node [i]'s last neighbour message lands: the latest of its own
   send completion [acc] and each neighbour's.  A top-level recursion
   over offsets already normalised into [0, n), so an edge costs one
   add and one conditional subtract, and no node allocates a closure. *)
let rec arrival env ~before ~send_cost ~bytes ~n i acc = function
  | [] -> acc
  | off :: rest ->
      let j = i + off in
      let j = if j >= n then j - n else j in
      let wire =
        Mk_fabric.Fabric.wire_time env.Collective.fabric ~src:j ~dst:i ~bytes
      in
      arrival env ~before ~send_cost ~bytes ~n i
        (Int.max acc (before.(j) + send_cost + wire))
        rest

let halo env ~clocks ~bytes ~neighbors =
  let n = Array.length clocks in
  if n > 1 && neighbors > 0 then begin
    Mk_obs.Hook.count ~subsystem:"mpi" ~name:"halo_calls" 1;
    let offsets =
      List.map
        (fun off -> ((off mod n) + n) mod n)
        (neighbor_offsets ~nodes:n ~neighbors)
    in
    let send_cost = List.length offsets * List.fold_left
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
    for i = 0 to n - 1 do
      clocks.(i) <-
        arrival env ~before ~send_cost ~bytes ~n i (before.(i) + send_cost) offsets
    done
  end
