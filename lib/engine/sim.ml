(* An event handle doubles as the cancellation token: [cancel] flips
   the state in place, so the hot path never touches a hashtable —
   cancelled events are dropped lazily when the queue reaches them. *)
type state = Pending | Cancelled | Fired

type event = { mutable state : state; handler : t -> unit }

and t = {
  mutable clock : Units.time;
  queue : event Heap.t;
  mutable live : int;
}

type event_id = event

(* The queue's filler for vacated slots is an event of its own: never
   scheduled, so never fired or cancelled. *)
let create () =
  let sentinel = { state = Fired; handler = ignore } in
  { clock = 0; queue = Heap.create ~dummy:sentinel (); live = 0 }

let now t = t.clock

let schedule t ~at handler =
  if at < t.clock then
    invalid_arg
      (Printf.sprintf "Sim.schedule: time %d precedes clock %d" at t.clock);
  let ev = { state = Pending; handler } in
  Heap.push t.queue ~key:at ev;
  t.live <- t.live + 1;
  ev

let schedule_after t ~delay handler =
  if delay < 0 then invalid_arg "Sim.schedule_after: negative delay";
  schedule t ~at:(t.clock + delay) handler

(* Only a genuinely pending event counts against [live]: cancelling
   an already-fired or already-cancelled handle is a no-op. *)
let cancel t ev =
  match ev.state with
  | Pending ->
      ev.state <- Cancelled;
      t.live <- t.live - 1
  | Cancelled | Fired -> ()

let pending t = t.live

let fire t ~at ev =
  t.clock <- at;
  ev.state <- Fired;
  t.live <- t.live - 1;
  ev.handler t

(* The loops below read the root's key, then take its event: neither
   allocates, so firing an event costs only what its handler does. *)
let rec step t =
  let q = t.queue in
  if Heap.is_empty q then false
  else begin
    let at = Heap.top_key q in
    let ev = Heap.take q in
    match ev.state with
    | Cancelled -> step t
    | Pending | Fired ->
        fire t ~at ev;
        true
  end

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some limit ->
      let q = t.queue in
      let continue = ref true in
      while !continue do
        if Heap.is_empty q then continue := false
        else begin
          let at = Heap.top_key q in
          if at <= limit then begin
            let ev = Heap.take q in
            match ev.state with
            | Cancelled -> ()
            | Pending | Fired -> fire t ~at ev
          end
          else begin
            (* A pending event past [limit] drags the clock up to the
               limit; an empty queue leaves it where the last event
               put it. *)
            t.clock <- Int.max t.clock limit;
            continue := false
          end
        end
      done

let rec drop_cancelled q =
  if not (Heap.is_empty q) then
    match (Heap.top q).state with
    | Cancelled ->
        ignore (Heap.take q);
        drop_cancelled q
    | Pending | Fired -> ()

let next_time t =
  drop_cancelled t.queue;
  if Heap.is_empty t.queue then None else Some (Heap.top_key t.queue)

let advance_to t target =
  if target < t.clock then invalid_arg "Sim.advance_to: target in the past";
  drop_cancelled t.queue;
  if (not (Heap.is_empty t.queue)) && Heap.top_key t.queue < target then
    invalid_arg "Sim.advance_to: pending event precedes target";
  t.clock <- target
