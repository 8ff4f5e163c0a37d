(* Host-side measurement: clocks, GC deltas, medians, spans and a
   SIGPROF stack sampler.  Everything here measures the benchmark
   process itself; nothing feeds back into the simulation. *)

let now () = Unix.gettimeofday ()

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* ------------------------------------------------------------------ *)
(* One measured call *)

type cost = {
  wall : float;  (** s *)
  cpu : float;  (** s, user + sys of the whole process *)
  words : float;  (** words allocated on the minor heap *)
  minor_gcs : int;
  major_gcs : int;
  promoted : float;  (** words promoted to the major heap *)
}

let zero =
  { wall = 0.; cpu = 0.; words = 0.; minor_gcs = 0; major_gcs = 0; promoted = 0. }

let add a b =
  {
    wall = a.wall +. b.wall;
    cpu = a.cpu +. b.cpu;
    words = a.words +. b.words;
    minor_gcs = a.minor_gcs + b.minor_gcs;
    major_gcs = a.major_gcs + b.major_gcs;
    promoted = a.promoted +. b.promoted;
  }

(* [Gc.quick_stat] sums every domain's counters, so pooled phases are
   charged in full, but it counts minor words only up to each domain's
   last minor collection.  A minor collection (all domains) on both
   sides, outside the timing, makes the difference exact.  Allocation
   is the minor-heap words: every block under 256 words starts there.
   The major and promoted counters are not exact over short intervals
   (their difference can even go negative), so direct major-heap
   allocation of large blocks is left out. *)
let measure f =
  Gc.minor ();
  let g0 = Gc.quick_stat () in
  let c0 = cpu () in
  let t0 = now () in
  let r = f () in
  let t1 = now () in
  let c1 = cpu () in
  Gc.minor ();
  let g1 = Gc.quick_stat () in
  let d get = get g1 -. get g0 in
  ( r,
    {
      wall = t1 -. t0;
      cpu = c1 -. c0;
      words = d (fun g -> g.Gc.minor_words);
      minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
      major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
      promoted = d (fun g -> g.Gc.promoted_words);
    } )

let mb_of_words w = w *. float_of_int (Sys.word_size / 8) /. 1e6

let median = function
  | [] -> 0.0
  | xs ->
      let a = Array.of_list xs in
      Array.sort compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Median of each field across costs: the per-field medians may come
   from different calls, which is what a robust per-pass estimate
   wants. *)
let median_cost cs =
  let m f = median (List.map f cs) in
  let mi f = int_of_float (Float.round (m (fun c -> float_of_int (f c)))) in
  {
    wall = m (fun c -> c.wall);
    cpu = m (fun c -> c.cpu);
    words = m (fun c -> c.words);
    minor_gcs = mi (fun c -> c.minor_gcs);
    major_gcs = mi (fun c -> c.major_gcs);
    promoted = m (fun c -> c.promoted);
  }

(* ------------------------------------------------------------------ *)
(* Spans around the benchmark's own calls into the program *)

(* Self time per span name: a span minus its children. *)
type spans = {
  self : (string, float) Hashtbl.t;
  mutable stack : (float ref) list;  (** children time of each open span *)
}

let spans () = { self = Hashtbl.create 16; stack = [] }

let span_self sp name = Option.value (Hashtbl.find_opt sp.self name) ~default:0.0

let span sp name f =
  let children = ref 0.0 in
  sp.stack <- children :: sp.stack;
  let t0 = now () in
  let finish () =
    let dur = now () -. t0 in
    sp.stack <- List.tl sp.stack;
    (match sp.stack with p :: _ -> p := !p +. dur | [] -> ());
    Hashtbl.replace sp.self name (span_self sp name +. (dur -. !children))
  in
  Fun.protect ~finally:finish f

(* ------------------------------------------------------------------ *)
(* SIGPROF stack sampler *)

(* Layers by module, as the dune-mangled names appear in backtrace
   slots ("Mk_engine__Rng.bits64").  The innermost frame that belongs
   to the simulator decides the sample; Stdlib frames are skipped so
   a Hashtbl call is charged to the layer that made it. *)
let split_mangled m =
  let n = String.length m in
  let rec find i =
    if i + 1 >= n then (m, "")
    else if m.[i] = '_' && m.[i + 1] = '_' then
      (String.sub m 0 i, String.sub m (i + 2) (n - i - 2))
    else find (i + 1)
  in
  find 0

let layer_of_module m =
  match split_mangled m with
  | "Mk_engine", "Rng" -> Some "rng"
  | "Mk_noise", _ -> Some "noise"
  | ("Mk_mpi" | "Mk_fabric"), _ -> Some "mpi"
  | ("Mk_mem" | "Mk_hw"), _ | "Mk_kernel", "Node" -> Some "mem"
  | "Mk_engine", ("Sim" | "Heap") -> Some "sim"
  | "Mk_engine", ("Shard" | "Mailbox") -> Some "shard"
  | "Mk_engine", ("Pool" | "Deque") -> Some "pool"
  | "Mk_obs", _ | "Mk_engine", ("Json" | "Atomic_file") -> Some "obs"
  | "Mk_cluster", _ -> Some "cluster"
  | ( ( "Mk_engine" | "Mk_kernel" | "Mk_apps" | "Mk_proc" | "Mk_sched"
      | "Mk_syscall" | "Mk_ikc" | "Mk_fault" | "Mk_compat" | "Mk_analysis"
      | "Multikernel" ),
      _ ) ->
      Some "other"
  | _ -> None

type sampler = { counts : (string, int) Hashtbl.t; mutable samples : int }

let sampler = { counts = Hashtbl.create 16; samples = 0 }

(* Layer of one code address: its innermost named frame (inlined
   frames first) that belongs to the simulator.  Cached, so a sample
   costs a stack walk and a few table lookups. *)
let entry_layers : (Printexc.raw_backtrace_entry, string option) Hashtbl.t =
  Hashtbl.create 4096

let layer_of_entry e =
  match Hashtbl.find_opt entry_layers e with
  | Some l -> l
  | None ->
      let of_slot slot =
        match Printexc.Slot.name slot with
        | None -> None
        | Some name ->
            layer_of_module
              (match String.index_opt name '.' with
              | Some j -> String.sub name 0 j
              | None -> name)
      in
      let l =
        match Printexc.backtrace_slots_of_raw_entry e with
        | None -> None
        | Some slots -> Array.find_map of_slot slots
      in
      Hashtbl.add entry_layers e l;
      l

(* Any domain may run the handler, so the tables are guarded; a sample
   that finds them busy is dropped rather than waited for. *)
let sampler_lock = Mutex.create ()

let on_sigprof _ =
  if Mutex.try_lock sampler_lock then
    Fun.protect ~finally:(fun () -> Mutex.unlock sampler_lock) (fun () ->
        sampler.samples <- sampler.samples + 1;
        let entries = Printexc.raw_backtrace_entries (Printexc.get_callstack 64) in
        let n = Array.length entries in
        let rec go i =
          if i >= n then "unattributed"
          else
            match layer_of_entry entries.(i) with Some l -> l | None -> go (i + 1)
        in
        let layer = go 0 in
        Hashtbl.replace sampler.counts layer
          (1 + Option.value (Hashtbl.find_opt sampler.counts layer) ~default:0))

let set_timer interval =
  ignore
    (Unix.setitimer Unix.ITIMER_PROF
       { Unix.it_interval = interval; it_value = interval })

(* Sample every 2 ms of process CPU time while [f] runs.  Only the
   domain that takes the signal is seen. *)
let sample_interval = 0.002

let sampled f =
  Sys.set_signal Sys.sigprof (Sys.Signal_handle on_sigprof);
  set_timer sample_interval;
  Fun.protect f ~finally:(fun () ->
      set_timer 0.0;
      Sys.set_signal Sys.sigprof Sys.Signal_ignore)

let share layer =
  if sampler.samples = 0 then 0.0
  else
    float_of_int (Option.value (Hashtbl.find_opt sampler.counts layer) ~default:0)
    /. float_of_int sampler.samples
