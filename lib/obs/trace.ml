open Mk_engine

type event = {
  ts : Units.time;
  dur : Units.time option;
  pid : int;
  tid : int;
  cat : string;
  name : string;
  args : (string * Json.t) list;
  seq : int;
}

(* Unbounded: every event, newest first.  Bounded: a ring in which
   event [seq] lives in slot [seq mod capacity], so which events
   survive wraparound is a pure function of the record count — the
   same for sequential and -j N runs.  The ring is stored column by
   column, in arrays of ints and shared strings: recording into it
   allocates nothing, and a ring that has reached the major heap keeps
   no young event records alive.  Events are rebuilt only when read. *)
type ring = {
  r_ts : int array;
  r_dur : int array;  (** [no_dur] for an instant *)
  r_pid : int array;
  r_tid : int array;
  r_cat : string array;
  r_name : string array;
  r_args : (string * Json.t) list array;
}

type store = All of { mutable rev : event list } | Ring of ring
type t = { store : store; mutable next_seq : int }

let no_dur = min_int

let create ?capacity () =
  let store =
    match capacity with
    | None -> All { rev = [] }
    | Some c when c <= 0 -> invalid_arg "Trace.create: capacity must be positive"
    | Some c ->
        let ints () = Array.make c 0 and strings () = Array.make c "" in
        Ring
          {
            r_ts = ints ();
            r_dur = ints ();
            r_pid = ints ();
            r_tid = ints ();
            r_cat = strings ();
            r_name = strings ();
            r_args = Array.make c [];
          }
  in
  { store; next_seq = 0 }

let record t ~ts ~dur ~pid ~tid ~cat ~name ~args =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  match t.store with
  | All a ->
      let dur = if dur = no_dur then None else Some dur in
      a.rev <- { ts; dur; pid; tid; cat; name; args; seq } :: a.rev
  | Ring r ->
      let i = seq mod Array.length r.r_ts in
      r.r_ts.(i) <- ts;
      r.r_dur.(i) <- dur;
      r.r_pid.(i) <- pid;
      r.r_tid.(i) <- tid;
      r.r_cat.(i) <- cat;
      r.r_name.(i) <- name;
      r.r_args.(i) <- args

let span t ~ts ~dur ~pid ~tid ~cat ~name ?(args = []) () =
  record t ~ts ~dur ~pid ~tid ~cat ~name ~args

let instant t ~ts ~pid ~tid ~cat ~name ?(args = []) () =
  record t ~ts ~dur:no_dur ~pid ~tid ~cat ~name ~args

let events t =
  match t.store with
  | All a -> List.rev a.rev
  | Ring r ->
      let cap = Array.length r.r_ts in
      let kept = min t.next_seq cap in
      List.init kept (fun k ->
          let seq = t.next_seq - kept + k in
          let i = seq mod cap in
          {
            ts = r.r_ts.(i);
            dur = (if r.r_dur.(i) = no_dur then None else Some r.r_dur.(i));
            pid = r.r_pid.(i);
            tid = r.r_tid.(i);
            cat = r.r_cat.(i);
            name = r.r_name.(i);
            args = r.r_args.(i);
            seq;
          })

let length t = t.next_seq
let capacity t = match t.store with All _ -> None | Ring r -> Some (Array.length r.r_ts)

(* Merge order: simulated time, then the stable per-event sequence
   number assigned at record (or re-assigned at Collect.add) time.
   Wall clock never participates, so the sorted stream is identical
   for sequential, -j N and fault-replay runs. *)
let compare_event a b =
  let c = Int.compare a.ts b.ts in
  if c <> 0 then c else Int.compare a.seq b.seq

(* In an array: a list sort conses a new list at each of its
   ~log2 n merge levels. *)
let sort evs =
  let a = Array.of_list evs in
  Array.stable_sort compare_event a;
  Array.to_list a

(* Chrome trace-event JSON (the "JSON Array Format" with a
   [traceEvents] wrapper), loadable by Perfetto and chrome://tracing.
   [ts]/[dur] are microseconds by convention; the DES clock is in
   nanoseconds, so values are scaled by 1e-3. *)
let us_of_ns ns = Json.Float (Int.to_float ns /. 1000.)

(* Fields every event of a kind shares, built once. *)
let ph_meta = ("ph", Json.String "M")
let ph_span = ("ph", Json.String "X")
let ph_instant = ("ph", Json.String "i")
let thread_scope = ("s", Json.String "t")

let meta ~pid ?tid ~name ~value () =
  let args = [ ("args", Json.Obj [ ("name", Json.String value) ]) ] in
  Json.Obj
    (("name", Json.String name)
    :: ph_meta
    :: ("pid", Json.Int pid)
    :: (match tid with None -> args | Some tid -> ("tid", Json.Int tid) :: args))

let event_to_json e =
  let tail =
    ("pid", Json.Int e.pid)
    :: ("tid", Json.Int e.tid)
    :: (match e.args with [] -> [] | args -> [ ("args", Json.Obj args) ])
  in
  let ts = ("ts", us_of_ns e.ts) in
  Json.Obj
    (("name", Json.String e.name)
    :: ("cat", Json.String e.cat)
    ::
    (match e.dur with
    | Some d -> ph_span :: ts :: ("dur", us_of_ns d) :: tail
    | None -> ph_instant :: ts :: thread_scope :: tail))

let to_json ~processes ~threads evs =
  let process (pid, name) = meta ~pid ~name:"process_name" ~value:name () in
  let thread (pid, tid, name) = meta ~pid ~tid ~name:"thread_name" ~value:name () in
  Json.Obj
    [
      ( "traceEvents",
        Json.List
          (List.map process processes
          @ List.map thread threads
          @ List.map event_to_json (sort evs)) );
      ("displayTimeUnit", Json.String "ns");
    ]
