open Mk_engine

(* The runqueue holds tids, keyed by virtual runtime; [tasks] maps a
   tid back to its task. *)
type t = {
  queue : Heap.t;
  tasks : (int, Mk_proc.Task.t) Hashtbl.t;
  vruntimes : (int, Units.time) Hashtbl.t;
  mutable min_vruntime : Units.time;
}

let create () =
  {
    queue = Heap.create ();
    tasks = Hashtbl.create 16;
    vruntimes = Hashtbl.create 16;
    min_vruntime = 0;
  }

let name _ = "cfs"

let vruntime t (task : Mk_proc.Task.t) =
  Option.value (Hashtbl.find_opt t.vruntimes task.Mk_proc.Task.tid) ~default:0

let enqueue t (task : Mk_proc.Task.t) =
  (* A task joining the queue starts at the current minimum so it
     cannot starve the others nor monopolise the CPU. *)
  let vr = max (vruntime t task) t.min_vruntime in
  Hashtbl.replace t.vruntimes task.Mk_proc.Task.tid vr;
  Hashtbl.replace t.tasks task.Mk_proc.Task.tid task;
  Heap.push t.queue ~key:vr task.Mk_proc.Task.tid

let pick t =
  match Heap.pop t.queue with
  | None -> None
  | Some (vr, tid) ->
      t.min_vruntime <- max t.min_vruntime vr;
      Some (Hashtbl.find t.tasks tid)

let requeue t (task : Mk_proc.Task.t) ~ran =
  let vr = vruntime t task + ran in
  Hashtbl.replace t.vruntimes task.Mk_proc.Task.tid vr;
  Hashtbl.replace t.tasks task.Mk_proc.Task.tid task;
  Heap.push t.queue ~key:vr task.Mk_proc.Task.tid

let queued t = Heap.length t.queue

(* sched_latency 24ms divided among runnables, floored at the
   6ms minimum granularity (scaled-up defaults for slow cores). *)
let sched_latency = 24 * Units.ms
let min_granularity = 6 * Units.ms

let timeslice _ ~runnable =
  Some (max min_granularity (sched_latency / max 1 runnable))

let context_switch_cost = 3_500
