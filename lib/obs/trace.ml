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

(* Every event, newest first. *)
type t = { mutable rev : event list; mutable next_seq : int }

let create () = { rev = []; next_seq = 0 }

let record t ~ts ~dur ~pid ~tid ~cat ~name ~args =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.rev <- { ts; dur; pid; tid; cat; name; args; seq } :: t.rev

let span t ~ts ~dur ~pid ~tid ~cat ~name ?(args = []) () =
  record t ~ts ~dur:(Some dur) ~pid ~tid ~cat ~name ~args

let instant t ~ts ~pid ~tid ~cat ~name ?(args = []) () =
  record t ~ts ~dur:None ~pid ~tid ~cat ~name ~args

let events t = List.rev t.rev
let length t = t.next_seq

(* Merge order: simulated time, then the stable per-event sequence
   number assigned at record (or re-assigned at Collect.add) time.
   Wall clock never participates, so the sorted stream is identical
   for sequential and -j N runs. *)
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
