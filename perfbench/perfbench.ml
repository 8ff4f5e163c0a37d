(* perfbench — host-cost benchmark of the simulator.

   perfbench --workload paper|des|observed --seed N --seconds S
             --trace 0|1 --expected DIR --out DIR [--setup-only | --record]

   Prints human-readable lines, then one JSON object as the last line:
   {"first_call_at", "attempted", "failed", "metrics"}.  run.py turns
   that into the benchmark's result line, adding peak_rss_mb, which it
   measures from outside the process. *)

open Multikernel
open Workloads
module Json = Engine.Json

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  expected_dir : string;
  out_dir : string;
  setup_only : bool;
  record : bool;
}

let usage () =
  prerr_endline
    "usage: perfbench --workload paper|des|observed --seed N --seconds S \
     --trace 0|1 --expected DIR --out DIR [--setup-only | --record]";
  exit 2

let parse_args () =
  let a =
    ref
      {
        workload = "";
        seed = 42;
        seconds = 10.0;
        trace = false;
        expected_dir = "perfbench/expected";
        out_dir = ".";
        setup_only = false;
        record = false;
      }
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest -> a := { !a with workload = w }; go rest
    | "--seed" :: s :: rest -> a := { !a with seed = int_of_string s }; go rest
    | "--seconds" :: s :: rest ->
        a := { !a with seconds = float_of_string s };
        go rest
    | "--trace" :: t :: rest -> a := { !a with trace = t = "1" }; go rest
    | "--expected" :: d :: rest -> a := { !a with expected_dir = d }; go rest
    | "--out" :: d :: rest -> a := { !a with out_dir = d }; go rest
    | "--setup-only" :: rest -> a := { !a with setup_only = true }; go rest
    | "--record" :: rest -> a := { !a with record = true }; go rest
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if not (List.mem !a.workload [ "paper"; "des"; "observed" ]) then usage ();
  !a

(* ------------------------------------------------------------------ *)
(* Result assembly *)

let emit r =
  let notes = List.rev r.ck.notes in
  List.iter (fun n -> Printf.printf "check failed: %s\n" n) notes;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("first_call_at", Json.Float r.first_call_at);
            ("attempted", Json.Int r.ck.attempted);
            ("failed", Json.Int r.ck.failed);
            ( "metrics",
              Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) r.metrics) );
          ]))

(* One pass's cost from its samples (oldest first): each field's
   median, except that allocation is the steady state — the first
   sample is left out when there are more, since it also grows the
   program's reusable scratch buffers once per process. *)
let pass_cost costs =
  let steady = match costs with _ :: (_ :: _ as rest) -> rest | all -> all in
  { (Measure.median_cost costs) with words = (Measure.median_cost steady).words }

let end_to_end (cost : Measure.cost) ~node_iters ~setup_s =
  [
    ("wall_s", cost.wall);
    ("cpu_s", cost.cpu);
    ("setup_s", setup_s);
    ("alloc_mb", Measure.mb_of_words cost.words);
    ("node_iters_per_s", float_of_int node_iters /. cost.wall);
  ]

(* ------------------------------------------------------------------ *)
(* Set-up probes *)

(* Set-up time is sampled by fresh processes of this benchmark in
   --setup-only mode, from spawn until their first timed call.  They
   are spread over the timed phase, between timed calls, so they see
   the same drift of host speed as the passes do. *)
let setup_probes = 40

type probes = {
  argv : string array;
  interval : float;
  mutable next : float;
  mutable samples : float list;
}

let probes a =
  {
    argv =
      [|
        Sys.executable_name; "--workload"; a.workload; "--seed"; string_of_int a.seed;
        "--expected"; a.expected_dir; "--out"; a.out_dir; "--setup-only";
      |];
    interval = a.seconds /. float_of_int setup_probes;
    next = Measure.now ();
    samples = [];
  }

(* One probe; a probe that fails only loses its sample. *)
let probe_once p =
  let spawned = Measure.now () in
  match
    let ic = Unix.open_process_args_in p.argv.(0) p.argv in
    let out = In_channel.input_all ic in
    (Unix.close_process_in ic, out)
  with
  | Unix.WEXITED 0, out -> (
      let last = List.hd (List.rev (String.split_on_char '\n' (String.trim out))) in
      match Result.map (field "first_call_at") (Json.of_string last) with
      | Ok (Some (Json.Float t)) -> p.samples <- (t -. spawned) :: p.samples
      | _ -> prerr_endline "setup probe: no first_call_at")
  | _ -> prerr_endline "setup probe failed"
  | exception Unix.Unix_error (e, _, _) ->
      prerr_endline ("setup probe: " ^ Unix.error_message e)

let maybe_probe p =
  if Measure.now () >= p.next then begin
    probe_once p;
    p.next <- Measure.now () +. p.interval
  end

let setup_s p =
  if p.samples = [] then probe_once p;
  if p.samples = [] then failwith "no setup probe succeeded";
  Printf.printf "setup probes (ms):";
  List.iter (fun s -> Printf.printf " %.2f" (1e3 *. s)) (List.sort compare p.samples);
  print_newline ();
  Measure.median p.samples

(* ------------------------------------------------------------------ *)
(* Untraced runs: the end-to-end metrics *)

(* Set-up ends with the inputs generated (and, on des and observed,
   the pool spawned).  The committed outputs are loaded after it: only
   the checks need them, and only seeds 42 and 2018 have them. *)
let paper_untraced a ~setup_only =
  let cells = Paper.make ~seed:a.seed in
  let first_call_at = Measure.now () in
  let ck = checks () in
  if setup_only then { first_call_at; ck; metrics = [] }
  else begin
    let expected =
      Paper.expected ck cells
        (load_expected ~dir:a.expected_dir ~workload:"paper" ~seed:a.seed)
    in
    (* Round-robin over cells until the deadline, after one full pass.
       A pass's cost is estimated as the sum of each cell's median, so
       a slow stretch of the host costs only the cells it overlapped
       one sample each. *)
    let n = Array.length cells in
    let samples = Array.make n [] in
    let first = Array.make n None in
    let pr = probes a in
    let deadline = first_call_at +. a.seconds in
    let i = ref 0 and passes = ref 0 in
    while !passes = 0 || Measure.now () < deadline do
      let c = cells.(!i) in
      (* Each pass starts from a collected heap, as a fresh run would. *)
      if !i = 0 then Gc.full_major ();
      (match guarded ck c.key (fun () -> Measure.measure (fun () -> Paper.run c)) with
      | Some (p, cost) ->
          samples.(!i) <- cost :: samples.(!i);
          Paper.verify ck ~expected ~first c !i p
      | None -> ());
      maybe_probe pr;
      incr i;
      if !i = n then begin
        i := 0;
        incr passes
      end
    done;
    Printf.printf "paper: %d cells, %d full passes (s):" n !passes;
    for k = 0 to !passes - 1 do
      Printf.printf " %.3f"
        (Array.fold_left
           (fun acc s ->
             match List.nth_opt (List.rev s) k with
             | Some (c : Measure.cost) -> acc +. c.wall
             | None -> acc)
           0.0 samples)
    done;
    print_newline ();
    let cost =
      Array.fold_left
        (fun acc s -> Measure.add acc (pass_cost (List.rev s)))
        Measure.zero samples
    in
    let node_iters = Array.fold_left (fun acc c -> acc + c.Paper.m.node_iters) 0 cells in
    { first_call_at; ck; metrics = end_to_end cost ~node_iters ~setup_s:(setup_s pr) }
  end

(* des and observed: whole passes, each from a collected heap, reduced
   to their median; [verify] runs outside the timed call. *)
let pass_untraced a ~node_iters ~verify run =
  let pr = probes a in
  let deadline = Measure.now () +. a.seconds in
  let rec go acc =
    Gc.full_major ();
    let r, cost = Measure.measure run in
    verify r;
    maybe_probe pr;
    let acc = cost :: acc in
    if Measure.now () >= deadline then List.rev acc else go acc
  in
  let costs = go [] in
  Printf.printf "%d passes (s):" (List.length costs);
  List.iter (fun (c : Measure.cost) -> Printf.printf " %.3f" c.wall) costs;
  print_newline ();
  end_to_end (pass_cost costs) ~node_iters ~setup_s:(setup_s pr)

let pooled_untraced a ~setup_only ~node_iters ~run ~verify =
  let pool = new_pool () in
  let first_call_at = Measure.now () in
  let ck = checks () in
  let metrics =
    if setup_only then []
    else
      let expected = load_expected ~dir:a.expected_dir ~workload:a.workload ~seed:a.seed in
      pass_untraced a ~node_iters
        ~verify:(Option.iter (verify ck ~expected))
        (fun () -> guarded ck a.workload (fun () -> run ~pool))
  in
  Engine.Pool.shutdown pool;
  { first_call_at; ck; metrics }

let des_untraced a ~setup_only =
  let first = Hashtbl.create 3 in
  pooled_untraced a ~setup_only ~node_iters:Des.node_iters
    ~run:(fun ~pool -> Des.run ~pool ~seed:a.seed)
    ~verify:(fun ck ~expected r -> Des.verify ck ~expected ~first r)

let observed_untraced a ~setup_only =
  let first = ref [] in
  pooled_untraced a ~setup_only ~node_iters:Observed.node_iters
    ~run:(fun ~pool -> Observed.run ~pool ~seed:a.seed ~out_dir:a.out_dir ())
    ~verify:(fun ck ~expected r -> Observed.verify ck ~expected ~first r)

(* ------------------------------------------------------------------ *)
(* Record the expected outputs of one seed *)

let record a =
  let fields =
    match a.workload with
    | "paper" -> Paper.record (Paper.make ~seed:a.seed)
    | "des" -> with_pool (fun pool -> Des.record ~pool ~seed:a.seed)
    | _ -> with_pool (fun pool -> Observed.record ~pool ~seed:a.seed ~out_dir:a.out_dir)
  in
  let doc =
    Json.Obj (("workload", Json.String a.workload) :: ("seed", Json.Int a.seed) :: fields)
  in
  let path = expected_path ~dir:a.expected_dir ~workload:a.workload ~seed:a.seed in
  Engine.Atomic_file.write path (Json.to_string_pretty doc ^ "\n");
  Printf.printf "wrote %s\n" path

let () =
  let a = parse_args () in
  if a.record then record a
  else if a.trace then emit (Traced.run a.workload ~seed:a.seed ~seconds:a.seconds
                               ~expected_dir:a.expected_dir ~out_dir:a.out_dir)
  else
    let setup_only = a.setup_only in
    emit
      (match a.workload with
      | "paper" -> paper_untraced a ~setup_only
      | "des" -> des_untraced a ~setup_only
      | _ -> observed_untraced a ~setup_only)
