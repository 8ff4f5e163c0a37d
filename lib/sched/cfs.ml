open Mk_engine

type t = {
  queue : Mk_proc.Task.t Heap.t;
  vruntimes : (int, Units.time) Hashtbl.t;
  mutable min_vruntime : Units.time;
}

let create () =
  let dummy = Mk_proc.Task.make ~tid:(-1) ~pid:(-1) ~name:"" ~affinity:[] in
  { queue = Heap.create ~dummy (); vruntimes = Hashtbl.create 16; min_vruntime = 0 }

let name _ = "cfs"

let vruntime t (task : Mk_proc.Task.t) =
  Option.value (Hashtbl.find_opt t.vruntimes task.Mk_proc.Task.tid) ~default:0

let enqueue t (task : Mk_proc.Task.t) =
  (* A task joining the queue starts at the current minimum so it
     cannot starve the others nor monopolise the CPU. *)
  let vr = max (vruntime t task) t.min_vruntime in
  Hashtbl.replace t.vruntimes task.Mk_proc.Task.tid vr;
  Heap.push t.queue ~key:vr task

let pick t =
  match Heap.pop t.queue with
  | None -> None
  | Some (vr, task) ->
      t.min_vruntime <- max t.min_vruntime vr;
      Some task

let requeue t task ~ran =
  let vr = vruntime t task + ran in
  Hashtbl.replace t.vruntimes task.Mk_proc.Task.tid vr;
  Heap.push t.queue ~key:vr task

let queued t = Heap.length t.queue

(* sched_latency 24ms divided among runnables, floored at the
   6ms minimum granularity (scaled-up defaults for slow cores). *)
let sched_latency = 24 * Units.ms
let min_granularity = 6 * Units.ms

let timeslice _ ~runnable =
  Some (max min_granularity (sched_latency / max 1 runnable))

let context_switch_cost = 3_500
