open Mk_engine

type wait_mode = Spin | Futex_wake of Units.time

type result = {
  completion : Units.time;
  messages : int;
  wakeups : int;
}

(* Binomial tree over rank ids: rank i's parent strips the lowest set
   bit; its children are i + 2^j for the js below its own lowest set
   bit (or all powers of two for rank 0). *)
let parent rank = rank land (rank - 1)

let children ~ranks rank =
  let lowest_set r =
    let rec go j = if r land (1 lsl j) <> 0 then j else go (j + 1) in
    go 0
  in
  let limit = if rank = 0 then 30 else lowest_set rank in
  let rec gather j acc =
    if j >= limit then List.rev acc
    else begin
      let c = rank + (1 lsl j) in
      if c < ranks then gather (j + 1) (c :: acc) else List.rev acc
    end
  in
  gather 0 []

(* An event is the rank it happens to and what happens there, packed
   into one int. *)
let arrive = 0 (* the rank reaches the collective *)
let heard = 1 (* a child's reduce message reaches the rank *)
let release = 2 (* the parent's broadcast reaches the rank *)
let event rank kind = (rank * 3) + kind

let allreduce ~ranks ~bytes ~wait ?(skew = fun _ -> 0) () =
  if ranks <= 0 then invalid_arg "Intranode.allreduce: ranks must be positive";
  let msg = Shm.message_time ~bytes in
  let wake = match wait with Spin -> 0 | Futex_wake w -> w in
  let messages = ref 0 in
  let wakeups = ref 0 in
  (* Reduce state: children remaining per rank; when a rank has heard
     from all children (and has arrived itself) it sends upward. *)
  let missing = Array.init ranks (fun r -> List.length (children ~ranks r)) in
  let arrived = Array.make ranks false in
  let finish = Array.make ranks 0 in
  let send sim rank kind =
    incr messages;
    if wake > 0 then incr wakeups;
    Sim.schedule_after sim ~delay:(msg + wake) (event rank kind)
  in
  let broadcast sim rank =
    finish.(rank) <- Sim.now sim;
    List.iter (fun c -> send sim c release) (children ~ranks rank)
  in
  let maybe_up sim rank =
    if arrived.(rank) && missing.(rank) = 0 then
      if rank = 0 then broadcast sim 0 else send sim (parent rank) heard
  in
  let sim =
    Sim.create (fun sim ev ->
        let rank = ev / 3 and kind = ev mod 3 in
        if kind = arrive then begin
          arrived.(rank) <- true;
          maybe_up sim rank
        end
        else if kind = heard then begin
          missing.(rank) <- missing.(rank) - 1;
          maybe_up sim rank
        end
        else broadcast sim rank)
  in
  for rank = 0 to ranks - 1 do
    Sim.schedule sim ~at:(skew rank) (event rank arrive)
  done;
  Sim.run sim;
  let completion = Array.fold_left max 0 finish in
  { completion; messages = !messages; wakeups = !wakeups }

let latency_sweep ~ranks ~wait sizes =
  List.map
    (fun bytes -> (bytes, (allreduce ~ranks ~bytes ~wait ()).completion))
    sizes
