(* Conservative (Chandy–Misra–Bryant-style) parallel DES.

   The event population is partitioned into [shards], each owning a
   private {!Sim} heap.  Shards advance in lockstep *epochs*: before
   an epoch the coordinator computes the globally earliest pending
   timestamp [g] — over every heap and every in-flight mailbox message
   — and hands all shards the horizon [g + lookahead - 1].  Processing
   an event at time [t] may only send a cross-shard message stamped
   [>= t + lookahead >= g + lookahead], i.e. strictly past the
   horizon, so no message generated during an epoch can land inside
   it: every shard fires its own events in timestamp order and drains
   each inbox FIFO, which makes the parallel run a deterministic
   interleaving — identical for any shard-to-domain placement, pool
   size, or no pool at all.

   What a shard drains is fixed at the barrier, not by what it finds:
   peers run the same epoch concurrently and keep posting into its
   inboxes, so "drain until empty" would merge some of that mail now
   and some next epoch depending on domain timing.  The coordinator
   instead records each mailbox's cumulative post count after every
   barrier, and each shard drains exactly up to that count; mail
   posted during an epoch is always merged in the next one.

   Cross-shard messages travel through per-ordered-pair SPSC
   {!Mailbox}es.  A shard that sent a peer nothing during an epoch
   pushes a *null message* instead: a promise that nothing earlier
   than [now + lookahead] will ever arrive on that pair.  The epoch
   barrier already carries the global bound, so the nulls are not
   needed for progress here — they are the per-pair safety net: each
   receiver checks every real message against the last promise and
   fails loudly on a protocol violation rather than reordering
   events. *)

type t = {
  id : int;
  shards : int;
  sim : Sim.t;
  lookahead : Units.time;
  inboxes : packet Mailbox.t array;  (* indexed by source shard *)
  outboxes : packet Mailbox.t array;  (* indexed by destination shard *)
  sent_to : bool array;  (* real traffic per destination, this epoch *)
  promise : Units.time array;  (* per-source null-message bound *)
  (* Mail counters, cumulative.  Each has one writer, so none is
     shared across domains within an epoch: [posted] (per destination)
     and [taken] (per source) belong to this shard, [quota] (per
     source: that peer's [posted] at the last barrier) to the
     coordinator, which writes it only while the workers are parked. *)
  posted : int array;
  taken : int array;
  quota : int array;
  mutable events : int;
  mutable cross_sent : int;
  mutable nulls_sent : int;
  mutable stalls : int;
  mutable min_sent : Units.time;  (* earliest real send this epoch *)
}

and packet = Msg of { at : Units.time; payload : int } | Null of { bound : Units.time }

type stats = {
  shards : int;
  epochs : int;
  events : int array;
  cross_messages : int array;
  null_messages : int array;
  horizon_stalls : int array;
}

(* Per-epoch self-profiler sample.  Every field is computed on the
   coordinator after the epoch barrier from per-shard counters that
   the protocol itself makes deterministic (identical for any pool
   size or shard placement), so a profile built from these samples
   obeys the same byte-identity contract as the simulation output. *)
type sample = {
  sample_epoch : int;
  sample_bound : Units.time;
  sample_horizon : Units.time;
  sample_events : int;
  sample_cross : int;
  sample_nulls : int;
  sample_stalls : int;
  sample_backlog : int;
}

let id (t : t) = t.id
let shard_count (t : t) = t.shards
let now (t : t) = Sim.now t.sim
let lookahead (t : t) = t.lookahead

(* Both operands are non-negative; [max_int] means "never". *)
let sat_add a b = if a >= max_int - b then max_int else a + b

let post (t : t) ~dst packet =
  Mailbox.push t.outboxes.(dst) packet;
  t.posted.(dst) <- t.posted.(dst) + 1

let send (t : t) ~shard ~at payload =
  if shard < 0 || shard >= t.shards then
    invalid_arg "Shard.send: destination shard out of range";
  if shard = t.id then Sim.schedule t.sim ~at payload
  else begin
    if at < sat_add (Sim.now t.sim) t.lookahead then
      invalid_arg "Shard.send: cross-shard message inside the lookahead window";
    post t ~dst:shard (Msg { at; payload });
    t.sent_to.(shard) <- true;
    t.cross_sent <- t.cross_sent + 1;
    if at < t.min_sent then t.min_sent <- at
  end

(* Merge the mail [src] posted before the last barrier: exactly
   [quota.(src) - taken.(src)] packets, FIFO. *)
let drain (t : t) ~src =
  let box = t.inboxes.(src) in
  for _ = t.taken.(src) + 1 to t.quota.(src) do
    match Mailbox.pop box with
    | None -> failwith "Shard: a packet posted before the barrier is missing"
    | Some (Msg { at; payload }) ->
        if at < t.promise.(src) then
          invalid_arg "Shard: message arrived before its null promise";
        Sim.schedule t.sim ~at payload
    | Some (Null { bound }) ->
        if bound > t.promise.(src) then t.promise.(src) <- bound
  done;
  t.taken.(src) <- t.quota.(src)

(* One shard's share of an epoch: merge the mail posted before the
   barrier (in source-shard order — the deterministic merge), fire
   everything up to the horizon, then promise every silent peer a
   bound for the next epoch.  Returns (next local timestamp, earliest
   real send), the shard's contribution to the next global bound. *)
let epoch (t : t) ~horizon =
  for src = 0 to t.shards - 1 do
    if src <> t.id then drain t ~src
  done;
  let before = t.events in
  Array.fill t.sent_to 0 t.shards false;
  t.min_sent <- max_int;
  Sim.run ~until:horizon t.sim;
  let next = Sim.next_time t.sim in
  if t.events = before && next <> None then t.stalls <- t.stalls + 1;
  let bound = sat_add (Sim.now t.sim) t.lookahead in
  for dst = 0 to t.shards - 1 do
    if dst <> t.id && not t.sent_to.(dst) then begin
      post t ~dst (Null { bound });
      t.nulls_sent <- t.nulls_sent + 1
    end
  done;
  (next, (if t.min_sent = max_int then None else Some t.min_sent))

let run ?pool ?observer ~shards ~lookahead ~init ~receive () =
  if shards <= 0 then invalid_arg "Shard.run: shards must be positive";
  if lookahead <= 0 then invalid_arg "Shard.run: lookahead must be positive";
  let boxes =
    Array.init shards (fun _ -> Array.init shards (fun _ -> Mailbox.create ()))
  in
  (* A shard holds its heap, and the heap's handler hands [receive]
     the shard: the handler reaches it through [shards_of], filled as
     soon as the shards exist and never changed after. *)
  let shards_of = ref [||] in
  let fire i _ payload =
    let t : t = !shards_of.(i) in
    t.events <- t.events + 1;
    receive t payload
  in
  let ts =
    Array.init shards (fun i ->
        {
          id = i;
          shards;
          sim = Sim.create (fire i);
          lookahead;
          inboxes = Array.init shards (fun src -> boxes.(src).(i));
          outboxes = boxes.(i);
          sent_to = Array.make shards false;
          promise = Array.make shards 0;
          posted = Array.make shards 0;
          taken = Array.make shards 0;
          quota = Array.make shards 0;
          events = 0;
          cross_sent = 0;
          nulls_sent = 0;
          stalls = 0;
          min_sent = max_int;
        })
  in
  shards_of := ts;
  let ids = List.init shards (fun i -> i) in
  let global_bound reports =
    List.fold_left
      (fun acc (next, sent) ->
        let acc = match next with Some v -> min acc v | None -> acc in
        match sent with Some v -> min acc v | None -> acc)
      max_int reports
  in
  (* Run on the coordinator after every barrier: fix what each shard
     drains next epoch at the mail its peers have posted so far.  The
     workers are parked, so every post is visible here, and the next
     fan-out publishes the quotas to them. *)
  let seal () =
    for dst = 0 to shards - 1 do
      for src = 0 to shards - 1 do
        ts.(dst).quota.(src) <- ts.(src).posted.(dst)
      done
    done
  in
  (* Round zero populates the heaps (in parallel: [init] may be the
     expensive part, e.g. per-node noise draws); every later round is
     one epoch under the freshly computed horizon. *)
  let epochs = ref 0 in
  let reports =
    ref
      (Pool.parallel_map ?pool
         (fun i ->
           let t = ts.(i) in
           init t;
           (Sim.next_time t.sim, None))
         ids)
  in
  seal ();
  (* The observer fires on the coordinator, after the epoch barrier:
     the parked workers' writes to the shard counters happen-before
     these reads, and since each epoch drains exactly the mail sealed
     at the barrier before it, the values are protocol-determined and
     the sample stream is identical for sequential and [-j N] runs. *)
  let observe =
    match observer with
    | None -> fun ~g:_ ~horizon:_ -> ()
    | Some f ->
        let sum field = Array.fold_left (fun acc t -> acc + field t) 0 ts in
        let prev_events = ref 0
        and prev_cross = ref 0
        and prev_nulls = ref 0
        and prev_stalls = ref 0 in
        fun ~g ~horizon ->
          let events = sum (fun t -> t.events)
          and cross = sum (fun t -> t.cross_sent)
          and nulls = sum (fun t -> t.nulls_sent)
          and stalls = sum (fun t -> t.stalls) in
          let total a = Array.fold_left ( + ) 0 a in
          let backlog =
            sum (fun t -> total t.posted) - sum (fun t -> total t.taken)
          in
          f
            {
              sample_epoch = !epochs;
              sample_bound = g;
              sample_horizon = horizon;
              sample_events = events - !prev_events;
              sample_cross = cross - !prev_cross;
              sample_nulls = nulls - !prev_nulls;
              sample_stalls = stalls - !prev_stalls;
              sample_backlog = backlog;
            };
          prev_events := events;
          prev_cross := cross;
          prev_nulls := nulls;
          prev_stalls := stalls
  in
  let continue = ref true in
  while !continue do
    let g = global_bound !reports in
    if g = max_int then continue := false
    else begin
      incr epochs;
      let horizon = sat_add g (lookahead - 1) in
      reports :=
        Pool.parallel_map ?pool (fun i -> epoch ts.(i) ~horizon) ids;
      seal ();
      observe ~g ~horizon
    end
  done;
  {
    shards;
    epochs = !epochs;
    events = Array.map (fun (t : t) -> t.events) ts;
    cross_messages = Array.map (fun (t : t) -> t.cross_sent) ts;
    null_messages = Array.map (fun (t : t) -> t.nulls_sent) ts;
    horizon_stalls = Array.map (fun (t : t) -> t.stalls) ts;
  }
