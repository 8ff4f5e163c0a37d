type t = {
  trace_enabled : bool;
  metrics : Metrics.t;
  mutable events_rev : Trace.event list;
  mutable procs_rev : (int * string) list;
  mutable threads_rev : (int * int) list;
  mutable next_pid : int;
  mutable next_seq : int;
  mutable runs : int;
}

let create ?(trace = false) () =
  {
    trace_enabled = trace;
    metrics = Metrics.create ();
    events_rev = [];
    procs_rev = [];
    threads_rev = [];
    next_pid = 1;
    next_seq = 0;
    runs = 0;
  }

let trace_enabled t = t.trace_enabled
let runs t = t.runs
let metrics t = t.metrics
let bindings t = Metrics.bindings t.metrics
let metrics_json t = Metrics.to_json t.metrics
let events t = List.rev t.events_rev

(* Adds MUST happen on one domain, in a deterministic order — the
   experiment layer calls this sequentially, in input order, after
   its parallel_map returns.  Each snapshot gets a fresh pid range
   (one pid per cluster node) and its events get globally increasing
   sequence numbers, so the merged trace depends only on the add
   order, never on which domain simulated which run.  The range is
   wide enough for every node an event names, so a run's process and
   thread metadata, listed here in (pid, tid) order, follow the
   previous run's. *)
let add t (s : Recorder.snapshot) =
  t.runs <- t.runs + 1;
  Metrics.absorb t.metrics s.Recorder.snap_metrics;
  if t.trace_enabled then begin
    let evs = s.Recorder.snap_events in
    let width =
      List.fold_left (fun w (e : Trace.event) -> max w (e.Trace.pid + 1))
        (max 1 s.Recorder.snap_nodes) evs
    in
    let base = t.next_pid in
    t.next_pid <- base + width;
    (* The tids each node's events use; a node with none gets no
       process. *)
    let tids = Array.make width [] in
    List.iter
      (fun (e : Trace.event) ->
        let node = max 0 e.Trace.pid in
        if not (List.mem e.Trace.tid tids.(node)) then
          tids.(node) <- e.Trace.tid :: tids.(node);
        let seq = t.next_seq in
        t.next_seq <- seq + 1;
        t.events_rev <- { e with Trace.pid = base + node; seq } :: t.events_rev)
      evs;
    Array.iteri
      (fun node used ->
        if used <> [] then begin
          let pid = base + node in
          let name =
            Printf.sprintf "%s seed %d node %d" s.Recorder.snap_label
              s.Recorder.snap_seed node
          in
          t.procs_rev <- (pid, name) :: t.procs_rev;
          List.iter
            (fun tid -> t.threads_rev <- (pid, tid) :: t.threads_rev)
            (List.sort Int.compare used)
        end)
      tids
  end

let tid_name = function
  | 0 -> "clock"
  | 1 -> "mpi"
  | tid -> Printf.sprintf "t%d" tid

let trace_json t =
  Trace.to_json
    ~processes:(List.rev t.procs_rev)
    ~threads:(List.rev_map (fun (pid, tid) -> (pid, tid, tid_name tid)) t.threads_rev)
    (events t)
