(* An event is the int its caller scheduled, and one handler per
   simulation fires them all: the queue holds ints only, so scheduling
   and firing an event allocate nothing. *)
type t = {
  mutable clock : Units.time;
  queue : Heap.t;
  fire : t -> int -> unit;
}

let create fire = { clock = 0; queue = Heap.create (); fire }
let now t = t.clock

let schedule t ~at ev =
  if at < t.clock then
    invalid_arg
      (Printf.sprintf "Sim.schedule: time %d precedes clock %d" at t.clock);
  Heap.push t.queue ~key:at ev

let schedule_after t ~delay ev =
  if delay < 0 then invalid_arg "Sim.schedule_after: negative delay";
  schedule t ~at:(t.clock + delay) ev

let pending t = Heap.length t.queue

(* Read the root's key, then take its event: neither allocates, so
   firing an event costs only what the handler does. *)
let[@inline] fire_next t q =
  t.clock <- Heap.top_key q;
  t.fire t (Heap.take q)

let run ?until t =
  let q = t.queue in
  match until with
  | None ->
      while not (Heap.is_empty q) do
        fire_next t q
      done
  | Some limit ->
      let continue = ref true in
      while !continue do
        if Heap.is_empty q then continue := false
        else if Heap.top_key q <= limit then fire_next t q
        else begin
          (* A pending event past [limit] drags the clock up to the
             limit; an empty queue leaves it where the last event put
             it. *)
          t.clock <- Int.max t.clock limit;
          continue := false
        end
      done

let next_time t =
  if Heap.is_empty t.queue then None else Some (Heap.top_key t.queue)
