(* Per-operation costs of the layers only the cluster driver reaches,
   timed by calling their public functions directly.  Each figure is
   the median over interleaved rounds of ns/op; words/op is the exact
   minor-heap allocation per call.  The traced run multiplies them by
   each workload's call counts (labelled "computed" there). *)

open Multikernel

type op_cost = { ns : float; words : float }

(* Injector.max_delay draws of one workload at one point: a kernel's
   noise profile, the window and straggler count the workload passes,
   and how many such draws one pass makes. *)
type draw_point = {
  kernel : string;
  profile : Noise.Profile.t;
  dur : Engine.Units.time;
  ranks : int;
  count : float;
}

(* One kernel's draws on a workload: their count, and the cost and
   bits64 calls per draw, each the count-weighted mean over points. *)
type draws = { count : float; cost : op_cost; rng_calls : float }

type t = {
  rng : op_cost;  (** Rng.bits64 *)
  draws : (string * draws) list;  (** Injector.max_delay, per kernel *)
  allreduce : op_cost;  (** Collective.allreduce, [nodes] nodes *)
  halo : op_cost;  (** P2p.halo, [nodes] nodes *)
  trace_op : op_cost;  (** one op of Node.run_ops on a Lulesh iteration *)
  pages_per_s : float;  (** Page_table.map + unmap of 4 KiB pages *)
  hook_disabled : op_cost;  (** Hook.count with no recorder installed *)
  hook_enabled : op_cost;  (** Hook.count into a live recorder *)
}

let no_draws = { count = 0.0; cost = { ns = 0.0; words = 0.0 }; rng_calls = 0.0 }
let draws l kernel = Option.value (List.assoc_opt kernel l.draws) ~default:no_draws

(* The paper's largest job, for the collective and halo costs. *)
let nodes = 2048
let rounds = 5

(* Draws timed per point and round, and draws whose bits64 calls are
   counted per point. *)
let draw_batch = 200
let rng_sample = 50

(* [batch] calls of [f], each performing [per] operations; returns
   (ns/op, minor words/op). *)
let batch_cost (batch, per, f) =
  let w0 = Gc.minor_words () in
  let t0 = Measure.now () in
  for _ = 1 to batch do
    f ()
  done;
  let t1 = Measure.now () in
  let w1 = Gc.minor_words () in
  let n = float_of_int (batch * per) in
  ((t1 -. t0) /. n *. 1e9, (w1 -. w0) /. n)

(* Interleave the ops over [rounds] so a slow stretch of the host hits
   every op once rather than one op [rounds] times. *)
let run_rounds ops =
  let results = List.map (fun _ -> ref []) ops in
  for _ = 1 to rounds do
    List.iter2 (fun op acc -> acc := batch_cost op :: !acc) ops results
  done;
  List.map
    (fun acc ->
      {
        ns = Measure.median (List.map fst !acc);
        words = Measure.median (List.map snd !acc);
      })
    results

(* How many bits64 calls were made between [before] and [after]:
   step a copy of [before] until its next outputs match [after]'s.
   Every Rng primitive draws through bits64. *)
let rng_calls_of ~before ~after =
  let next3 r =
    let r = Engine.Rng.copy r in
    let a = Engine.Rng.bits64 r in
    let b = Engine.Rng.bits64 r in
    (a, b, Engine.Rng.bits64 r)
  in
  let target = next3 after in
  let r = Engine.Rng.copy before in
  let rec go k =
    if k > 10_000_000 then failwith "Ledger.rng_calls_of: no match"
    else if next3 r = target then k
    else begin
      ignore (Engine.Rng.bits64 r);
      go (k + 1)
    end
  in
  go 0

let draw p rng = Noise.Injector.max_delay p.profile rng ~dur:p.dur ~ranks:p.ranks

(* Mean bits64 calls per draw at one point, over [rng_sample] draws. *)
let rng_calls_per_draw p rng =
  let before = Engine.Rng.copy rng in
  for _ = 1 to rng_sample do
    ignore (draw p rng)
  done;
  float_of_int (rng_calls_of ~before ~after:rng) /. float_of_int rng_sample

(* Per kernel, the count-weighted means over its priced points, each
   (point, cost, bits64 calls per draw). *)
let by_kernel (priced : (draw_point * op_cost * float) list) =
  let kernels = List.sort_uniq compare (List.map (fun (p, _, _) -> p.kernel) priced) in
  List.map
    (fun k ->
      let mine = List.filter (fun (p, _, _) -> p.kernel = k) priced in
      let count = List.fold_left (fun s ((p : draw_point), _, _) -> s +. p.count) 0.0 mine in
      let mean f =
        List.fold_left (fun s ((p : draw_point), c, r) -> s +. (p.count *. f c r)) 0.0 mine
        /. count
      in
      ( k,
        {
          count;
          cost = { ns = mean (fun c _ -> c.ns); words = mean (fun c _ -> c.words) };
          rng_calls = mean (fun _ r -> r);
        } ))
    kernels

let first_halo app =
  List.find_map
    (function
      | Apps.App.Halo { bytes; neighbors; _ } -> Some (bytes, neighbors)
      | _ -> None)
    (app.Apps.App.iteration ~nodes)

(* The fixed per-op costs, and the draws of [points] (a silent
   profile, McKernel's, returns without drawing and is not priced). *)
let measure ~seed ~points =
  let points = List.filter (fun p -> p.profile.Noise.Profile.sources <> []) points in
  let rng = Engine.Rng.create seed in
  let linux = Cluster.Scenario.linux.make () in
  let env =
    {
      Mpi.Collective.fabric = Fabric.Fabric.make ~nodes ();
      syscall_cost =
        (fun s ->
          match Kernel.Os.syscall_time linux ~core:10 s with
          | Ok t -> t
          | Error `Enosys -> 0);
      intra_ranks = 64;
    }
  in
  let clocks = Array.make nodes 0 in
  let minife = Option.get (Apps.Registry.find "minife") in
  let halo_bytes, halo_neighbors = Option.get (first_halo minife) in
  let lulesh = Option.get (Apps.Registry.find "lulesh") in
  let node =
    Kernel.Node.boot ~os:(Cluster.Scenario.linux.make ())
      ~ranks:lulesh.Apps.App.ranks_per_node
      ~threads_per_rank:lulesh.Apps.App.threads_per_rank ~seed
  in
  let trace = Option.get lulesh.Apps.App.trace in
  ignore (Kernel.Node.run_ops node ~rank:0 (trace ~nodes:1 ~iteration:(-1)));
  let iter_ops = trace ~nodes:1 ~iteration:0 in
  let trace_len = List.length iter_ops in
  let pt = Mem.Page_table.create () in
  let map_bytes = 64 * 1024 * 1024 in
  let recorder = Obs.Recorder.make ~label:"ledger" ~nodes:1 ~seed () in
  let hooks = 100_000 in
  let draw_ops =
    List.map
      (fun p -> (draw_batch, 1, fun () -> ignore (Sys.opaque_identity (draw p rng))))
      points
  in
  let ops =
    [
      (1_000_000, 1, fun () -> ignore (Sys.opaque_identity (Engine.Rng.bits64 rng)));
      (100, 1, fun () -> Mpi.Collective.allreduce env ~clocks ~bytes:8);
      ( 30,
        1,
        fun () ->
          Mpi.P2p.halo env ~clocks ~bytes:halo_bytes ~neighbors:halo_neighbors );
      (20, trace_len, fun () -> ignore (Kernel.Node.run_ops node ~rank:0 iter_ops));
      ( 200,
        2 * (map_bytes / 4096),
        fun () ->
          Mem.Page_table.map pt ~vaddr:0 ~bytes:map_bytes ~page:Mem.Page.Small;
          Mem.Page_table.unmap pt ~vaddr:0 ~bytes:map_bytes ~page:Mem.Page.Small );
      ( 10 * hooks,
        1,
        fun () -> Obs.Hook.count ~subsystem:"perfbench" ~name:"probe" 1 );
      ( 10,
        hooks,
        fun () ->
          Obs.Hook.with_recorder recorder (fun () ->
              for _ = 1 to hooks do
                Obs.Hook.count ~subsystem:"perfbench" ~name:"probe" 1
              done) );
    ]
    @ draw_ops
  in
  match run_rounds ops with
  | rng_c :: allreduce :: halo :: trace_op :: pt_c :: hook_disabled
    :: hook_enabled :: draw_costs ->
      let priced =
        List.map2 (fun p c -> (p, c, rng_calls_per_draw p rng)) points draw_costs
      in
      {
        rng = rng_c;
        draws = by_kernel priced;
        allreduce;
        halo;
        trace_op;
        pages_per_s = 1e9 /. pt_c.ns;
        hook_disabled;
        hook_enabled;
      }
  | _ -> assert false
