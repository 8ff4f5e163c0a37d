type t = {
  label : string;
  nodes : int;
  seed : int;
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
    metrics = Metrics.create ();
    trace = (if trace then Some (Trace.create ()) else None);
    node = Key.job_wide;
  }

let label t = t.label
let metrics t = t.metrics
let tracing t = Option.is_some t.trace
let set_node t n = t.node <- n
let node t = t.node

let key t ~node ~subsystem ~name =
  { Key.kernel = t.label; node; subsystem; name }

let count_node t ~node ~subsystem ~name n =
  Metrics.add t.metrics (key t ~node ~subsystem ~name) n

let count t ~subsystem ~name n =
  count_node t ~node:t.node ~subsystem ~name n

let observe t ~subsystem ~name v =
  Metrics.observe t.metrics (key t ~node:t.node ~subsystem ~name) v

let gauge t ~subsystem ~name v =
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
