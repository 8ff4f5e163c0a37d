open Mk_engine

type t = {
  label : string;
  nodes : int;
  seed : int;
  meters : bool;
  metrics : Metrics.t;
  trace : Trace.t option;
  mutable node : int;
}

type snapshot = {
  snap_label : string;
  snap_nodes : int;
  snap_seed : int;
  snap_metrics : (Key.t * Metrics.value) list;
  snap_events : Trace.event list;
}

let make ?(trace = false) ~label ~nodes ~seed () =
  {
    label;
    nodes;
    seed;
    meters = true;
    metrics = Metrics.create ();
    trace = (if trace then Some (Trace.create ()) else None);
    node = Key.job_wide;
  }

let black_box_capacity = 512

let black_box ~label ~seed () =
  {
    label;
    nodes = 1;
    seed;
    meters = false;
    metrics = Metrics.create ();
    trace = Some (Trace.create ~capacity:black_box_capacity ());
    node = Key.job_wide;
  }

let label t = t.label
let metrics t = t.metrics
let meters t = t.meters
let tracing t = Option.is_some t.trace
let set_node t n = t.node <- n
let node t = t.node

let key t ~node ~subsystem ~name =
  { Key.kernel = t.label; node; subsystem; name }

let count_node t ~node ~subsystem ~name n =
  if t.meters then Metrics.add t.metrics (key t ~node ~subsystem ~name) n

let count t ~subsystem ~name n =
  count_node t ~node:t.node ~subsystem ~name n

let observe t ~subsystem ~name v =
  if t.meters then
    Metrics.observe t.metrics (key t ~node:t.node ~subsystem ~name) v

let gauge t ~subsystem ~name v =
  if t.meters then
    Metrics.set_gauge t.metrics (key t ~node:t.node ~subsystem ~name) v

let span t ~ts ~dur ~node ~tid ~cat ~name ?args () =
  match t.trace with
  | None -> ()
  | Some tr -> Trace.span tr ~ts ~dur ~pid:node ~tid ~cat ~name ?args ()

let instant t ~ts ~node ~tid ~cat ~name ?args () =
  match t.trace with
  | None -> ()
  | Some tr -> Trace.instant tr ~ts ~pid:node ~tid ~cat ~name ?args ()

let events t = match t.trace with None -> [] | Some tr -> Trace.events tr

let snapshot t =
  {
    snap_label = t.label;
    snap_nodes = t.nodes;
    snap_seed = t.seed;
    snap_metrics = Metrics.bindings t.metrics;
    snap_events = events t;
  }

(* The "multikernel-flight/1" dump: cell identity, ring occupancy,
   then a Perfetto document with one process per node that has
   events. *)
let black_box_json ~cell_key ~reason t =
  let evs = events t in
  let recorded = match t.trace with None -> 0 | Some tr -> Trace.length tr in
  let capacity =
    Option.value ~default:recorded (Option.bind t.trace Trace.capacity)
  in
  let pids =
    List.sort_uniq Int.compare (List.map (fun (e : Trace.event) -> e.Trace.pid) evs)
  in
  let processes = List.map (fun p -> (p, "node " ^ string_of_int p)) pids in
  Json.Obj
    [
      ("schema", Json.String "multikernel-flight/1");
      ("label", Json.String t.label);
      ("seed", Json.Int t.seed);
      ("cell_key", Json.String cell_key);
      ("reason", Json.String reason);
      ("capacity", Json.Int capacity);
      ("recorded", Json.Int recorded);
      ("dropped", Json.Int (recorded - List.length evs));
      ("trace", Trace.to_json ~processes ~threads:[] evs);
    ]
