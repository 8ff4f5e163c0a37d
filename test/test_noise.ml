(* Tests for the OS-noise model: sources, profiles and the
   interval-delay / max-order-statistic samplers. *)

open Mk_engine
open Mk_noise

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_source_overhead () =
  let s = Source.make ~name:"x" ~period:(10 * Units.ms) ~duration:(10 * Units.us) () in
  Alcotest.(check (float 1e-9)) "overhead" 0.001 (Source.overhead s)

let test_source_validation () =
  check_bool "bad period rejected" true
    (try
       ignore (Source.make ~name:"x" ~period:0 ~duration:1 ());
       false
     with Invalid_argument _ -> true)

let test_profile_ordering () =
  (* Noise strictly increases from LWK to Linux to service cores. *)
  let o p = Profile.total_overhead p in
  check_bool "silent is zero" true (o Profile.silent = 0.0);
  check_bool "mos above silent" true (o Profile.mos_lwk > 0.0);
  check_bool "nohz above mos" true (o Profile.linux_nohz_full > o Profile.mos_lwk);
  check_bool "default above nohz" true
    (o Profile.linux_default > o Profile.linux_nohz_full);
  check_bool "service core worst" true
    (o Profile.linux_service_core > o Profile.linux_default)

let test_silent_delay_zero () =
  let rng = Rng.create 1 in
  for _ = 1 to 100 do
    check_int "no delay" 0 (Injector.delay Profile.silent rng ~dur:Units.sec)
  done

let test_delay_mean_tracks_overhead () =
  let rng = Rng.create 2 in
  let n = 3_000 in
  let dur = 50 * Units.ms in
  let total = ref 0 in
  for _ = 1 to n do
    total := !total + Injector.delay Profile.linux_default rng ~dur
  done;
  let mean = float_of_int !total /. float_of_int n in
  let expected = float_of_int (Injector.mean_delay Profile.linux_default ~dur) in
  check_bool "mean within 25% of expectation" true
    (abs_float (mean -. expected) < 0.25 *. expected)

let test_inflate_at_least_dur () =
  let rng = Rng.create 3 in
  for _ = 1 to 200 do
    let dur = 1 * Units.ms in
    check_bool "inflate >= dur" true
      (Injector.inflate Profile.linux_default rng ~dur >= dur)
  done

let test_max_delay_monotone_in_ranks () =
  (* The slowest of many threads suffers at least as much as one
     thread, on average. *)
  let mean ranks =
    let rng = Rng.create 4 in
    let total = ref 0 in
    for _ = 1 to 1_000 do
      total :=
        !total
        + Injector.max_delay Profile.linux_nohz_full rng ~dur:(10 * Units.ms) ~ranks
    done;
    float_of_int !total /. 1_000.0
  in
  let m1 = mean 1 and m64 = mean 64 and m256 = mean 256 in
  check_bool "64 > 1" true (m64 > m1);
  check_bool "256 >= 64" true (m256 >= m64 *. 0.9)

let test_max_delay_ranks_one_matches_delay () =
  (* ranks = 1 uses the plain sampler. *)
  let a = Rng.create 5 and b = Rng.create 5 in
  for _ = 1 to 50 do
    check_int "identical"
      (Injector.delay Profile.linux_default a ~dur:Units.ms)
      (Injector.max_delay Profile.linux_default b ~dur:Units.ms ~ranks:1)
  done

let test_max_delay_rejects_bad_ranks () =
  let rng = Rng.create 6 in
  check_bool "zero ranks rejected" true
    (try
       ignore (Injector.max_delay Profile.silent rng ~dur:1 ~ranks:0);
       false
     with Invalid_argument _ -> true)

let test_determinism () =
  let run () =
    let rng = Rng.create 7 in
    List.init 100 (fun _ ->
        Injector.max_delay Profile.linux_default rng ~dur:Units.ms ~ranks:16)
  in
  Alcotest.(check (list int)) "same seed same stream" (run ()) (run ())

(* The Cluster_des draw: a 2 ms window gating 64 ranks. *)
let draw_sum profile =
  let rng = Rng.create 42 in
  let total = ref 0 in
  for _ = 1 to 1_000 do
    total := !total + Injector.max_delay profile rng ~dur:(2 * Units.ms) ~ranks:64
  done;
  !total

(* Known answers for the draw path, so a change to the sampler or to
   the generator underneath that keeps [test_determinism] green but
   moves the stream still fails. *)
let test_max_delay_known_answers () =
  check_int "linux_default" 150_895_691 (draw_sum Profile.linux_default);
  check_int "mos_lwk" 218_038 (draw_sum Profile.mos_lwk)

(* Minor words per [max_delay] draw, by default of the Cluster_des
   window. *)
let words_per_draw ?(dur = 2 * Units.ms) ?(ranks = 64) profile =
  let rng = Rng.create 42 in
  let draws = 1_000 in
  ignore (Injector.max_delay profile rng ~dur ~ranks);
  let before = Gc.minor_words () in
  for _ = 1 to draws do
    ignore (Sys.opaque_identity (Injector.max_delay profile rng ~dur ~ranks))
  done;
  (Gc.minor_words () -. before) /. float_of_int draws

(* The draw runs once per node per synchronisation point, so its
   minor-heap traffic is the simulator's allocation rate.  Only native
   code unboxes floats and int64s, so the budget holds there alone.
   A black box is armed on every journaled cell; since it meters
   nothing, a draw under it must allocate exactly what a draw with no
   recorder does (the same seed makes the same draws). *)
let test_max_delay_alloc_budget () =
  if Sys.backend_type <> Sys.Native then Alcotest.skip ();
  check_bool "no recorder installed" true (Mk_obs.Hook.active () = None);
  let boxed profile =
    let box = Mk_obs.Recorder.black_box ~label:"cell" ~seed:42 () in
    Mk_obs.Hook.with_recorder box (fun () -> words_per_draw profile)
  in
  let linux = words_per_draw Profile.linux_default
  and mos = words_per_draw Profile.mos_lwk in
  if linux > 64.0 then Alcotest.failf "linux_default: %.1f words/draw > 64" linux;
  if mos > 8.0 then Alcotest.failf "mos_lwk: %.1f words/draw > 8" mos;
  Alcotest.(check (float 0.0)) "linux_default under a black box" linux
    (boxed Profile.linux_default);
  Alcotest.(check (float 0.0)) "mos_lwk under a black box" mos
    (boxed Profile.mos_lwk)


(* Under a metering recorder each strike is charged to its source's
   two counters.  Their names are built once per source, so a strike
   allocates only the counter's key and lookup, not a name. *)
let test_max_delay_metered_alloc_budget () =
  if Sys.backend_type <> Sys.Native then Alcotest.skip ();
  let r = Mk_obs.Recorder.make ~label:"cell" ~nodes:1 ~seed:42 () in
  let words =
    Mk_obs.Hook.with_recorder r (fun () -> words_per_draw Profile.linux_default)
  in
  if words > 72.0 then
    Alcotest.failf "linux_default, metered: %.3f words/draw > 72" words;
  let metered =
    List.map
      (fun ((k : Mk_obs.Key.t), _) -> k.subsystem ^ "/" ^ k.name)
      (Mk_obs.Metrics.bindings (Mk_obs.Recorder.metrics r))
  in
  let expected =
    List.concat_map
      (fun (s : Source.t) ->
        [ "noise/injections:" ^ s.name; "noise/stolen_ns:" ^ s.name ])
      Profile.linux_default.sources
  in
  Alcotest.(check (list string)) "metered keys"
    (List.sort String.compare expected) (List.sort String.compare metered)

(* A Lulesh sync point on the stock Linux profile: a 360 ms window
   gating 128 ranks strikes ~150 lognormal detours per draw.  Summed
   inside [Rng], they allocate nothing per detour; returned one by one
   across the module boundary they cost ~4 words each. *)
let test_max_delay_sync_point_alloc_budget () =
  if Sys.backend_type <> Sys.Native then Alcotest.skip ();
  let words =
    words_per_draw ~dur:(360 * Units.ms) ~ranks:128 Profile.linux_nohz_full
  in
  if words > 40.0 then
    Alcotest.failf "linux_nohz_full, 360 ms x 128 ranks: %.1f words/draw > 40" words

(* The per-strike detour loop [Rng.lognormal_sum] replaced, kept as
   its oracle: mu recomputed per strike, one [Rng.lognormal] each. *)
module Detour_reference = struct
  let detour rng (s : Source.t) =
    if s.Source.duration_sigma = 0.0 then s.Source.duration
    else begin
      let sigma = s.Source.duration_sigma in
      let mu = log (float_of_int s.Source.duration) -. (sigma *. sigma /. 2.0) in
      max 0 (int_of_float (Rng.lognormal rng ~mu ~sigma))
    end

  let rec detour_sum rng s k acc =
    if k = 0 then acc else detour_sum rng s (k - 1) (acc + detour rng s)
end

(* Same sum and same stream position as the oracle on a copy of the
   generator.  Durations include 0 (mu = -infinity). *)
let lognormal_sum_matches_reference =
  QCheck.Test.make ~name:"lognormal_sum = per-strike detour loop" ~count:500
    QCheck.(
      quad (int_range 0 300)
        (oneofl [ 0.3; 0.5; 0.8; 1.0 ])
        (oneof [ always 0; int_range 0 (2 * Units.ms) ])
        small_nat)
    (fun (k, sigma, duration, seed) ->
      let s =
        Source.make ~name:"s" ~period:Units.ms ~duration ~duration_sigma:sigma ()
      in
      let rng = Rng.create seed in
      let oracle = Rng.copy rng in
      let sum = Rng.lognormal_sum rng ~mu:s.Source.mu ~sigma k in
      sum = Detour_reference.detour_sum oracle s k 0
      && Int64.equal (Rng.bits64 rng) (Rng.bits64 oracle))

(* ------------------------------------------------------------------ *)
(* FTQ *)

let test_ftq_silent_perfect () =
  let s = Ftq.run ~profile:Profile.silent ~quantum:Units.ms ~quanta:100 ~seed:1 in
  Alcotest.(check (float 1e-12)) "all work done" 1.0 s.Ftq.mean_work;
  check_int "nothing perturbed" 0 s.Ftq.perturbed_quanta;
  Alcotest.(check (float 1e-12)) "no noise" 0.0 s.Ftq.noise_fraction

let test_ftq_ordering () =
  (* FTQ reproduces the isolation ordering of Section II-D2. *)
  let noise p =
    (Ftq.run ~profile:p ~quantum:Units.ms ~quanta:3000 ~seed:2).Ftq.noise_fraction
  in
  let mos = noise Profile.mos_lwk in
  let nohz = noise Profile.linux_nohz_full in
  let default = noise Profile.linux_default in
  check_bool "mos below nohz" true (mos < nohz);
  check_bool "nohz below default" true (nohz < default)

let test_ftq_bounds () =
  let s =
    Ftq.run ~profile:Profile.linux_default ~quantum:Units.ms ~quanta:500 ~seed:3
  in
  check_int "sample count" 500 (List.length s.Ftq.samples);
  check_bool "work in [0,1]" true
    (List.for_all (fun x -> x.Ftq.work_done >= 0.0 && x.Ftq.work_done <= 1.0)
       s.Ftq.samples);
  check_bool "worst detour bounded by quantum" true (s.Ftq.worst_detour <= Units.ms)

let delay_nonnegative =
  QCheck.Test.make ~name:"delay is non-negative" ~count:300
    QCheck.(int_range 1 100_000_000)
    (fun dur ->
      let rng = Rng.create dur in
      Injector.delay Profile.linux_default rng ~dur >= 0)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "mk_noise"
    [
      ( "ftq",
        [
          Alcotest.test_case "silent perfect" `Quick test_ftq_silent_perfect;
          Alcotest.test_case "isolation ordering" `Quick test_ftq_ordering;
          Alcotest.test_case "bounds" `Quick test_ftq_bounds;
        ] );
      ( "source",
        [
          Alcotest.test_case "overhead" `Quick test_source_overhead;
          Alcotest.test_case "validation" `Quick test_source_validation;
        ] );
      ("profile", [ Alcotest.test_case "ordering" `Quick test_profile_ordering ]);
      ( "injector",
        Alcotest.test_case "silent zero" `Quick test_silent_delay_zero
        :: Alcotest.test_case "mean tracks overhead" `Slow
             test_delay_mean_tracks_overhead
        :: Alcotest.test_case "inflate lower bound" `Quick test_inflate_at_least_dur
        :: Alcotest.test_case "max monotone in ranks" `Slow
             test_max_delay_monotone_in_ranks
        :: Alcotest.test_case "ranks=1 equals delay" `Quick
             test_max_delay_ranks_one_matches_delay
        :: Alcotest.test_case "bad ranks" `Quick test_max_delay_rejects_bad_ranks
        :: Alcotest.test_case "determinism" `Quick test_determinism
        :: Alcotest.test_case "max_delay known answers" `Quick
             test_max_delay_known_answers
        :: Alcotest.test_case "max_delay allocation budget" `Quick
             test_max_delay_alloc_budget
        :: qsuite [ delay_nonnegative ]
        @ [
            Alcotest.test_case "metered max_delay allocation budget" `Quick
              test_max_delay_metered_alloc_budget;
            Alcotest.test_case "sync-point max_delay allocation budget" `Quick
              test_max_delay_sync_point_alloc_budget;
          ]
        @ qsuite [ lognormal_sum_matches_reference ] );
    ]
