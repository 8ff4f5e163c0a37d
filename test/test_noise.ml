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

(* Mean of [max_delay] over mean of the brute-force oracle: the max
   over [ranks] independent [delay] draws, on its own seed. *)
let max_delay_bias profile ~dur ~ranks ~trials =
  let rng = Rng.create 42 and oracle = Rng.create 4242 in
  let drawn = ref 0 and exact = ref 0 in
  for _ = 1 to trials do
    drawn := !drawn + Injector.max_delay profile rng ~dur ~ranks;
    let worst = ref 0 in
    for _ = 1 to ranks do
      worst := Int.max !worst (Injector.delay profile oracle ~dur)
    done;
    exact := !exact + !worst
  done;
  float_of_int !drawn /. float_of_int !exact

(* [max_delay] draws each source's worst strike count over the ranks
   but fresh detours for it, and sums the per-source maxima, so its
   error against the max of per-rank sums goes both ways (MODEL.md
   §4, item 1).  Two points pin the sign: it over-estimates where
   most of the paper grid draws (stock Linux, 2 ms x 64 ranks) and
   under-estimates by about 2x at long windows of the noisier
   default profile. *)
let test_max_delay_bias_sign () =
  let over =
    max_delay_bias Profile.linux_nohz_full ~dur:(2 * Units.ms) ~ranks:64
      ~trials:4_000
  in
  if not (over > 1.0) then
    Alcotest.failf "linux-nohz-full, 2 ms x 64: ratio %.3f, expected > 1" over;
  let under =
    max_delay_bias Profile.linux_default ~dur:(100 * Units.ms) ~ranks:256
      ~trials:500
  in
  if not (under < 0.7) then
    Alcotest.failf "linux-default, 100 ms x 256: ratio %.3f, expected < 0.7"
      under

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
   minor-heap traffic is the simulator's allocation rate.  Its uniform
   crosses from [Rng] as an int ([Rng.bits53]), so a Cluster_des draw
   allocates nothing; a boxed [Rng.float] cost 2 words per source.
   Only native code unboxes floats and int64s, so the budget holds
   there alone. *)
let test_max_delay_alloc_budget () =
  if Sys.backend_type <> Sys.Native then Alcotest.skip ();
  check_bool "no recorder installed" true (Mk_obs.Hook.active () = None);
  let linux = words_per_draw Profile.linux_default
  and mos = words_per_draw Profile.mos_lwk in
  if linux > 1.0 then Alcotest.failf "linux_default: %.1f words/draw > 1" linux;
  if mos > 1.0 then Alcotest.failf "mos_lwk: %.1f words/draw > 1" mos


(* Under a metering recorder each strike is charged to its source's
   two counters.  Their names are built once per source, so a strike
   allocates only the counter's key and lookup, not a name: 43.9 words
   per draw, 51.9 with a boxed uniform per source. *)
let test_max_delay_metered_alloc_budget () =
  if Sys.backend_type <> Sys.Native then Alcotest.skip ();
  let r = Mk_obs.Recorder.make ~label:"cell" ~nodes:1 ~seed:42 () in
  let words =
    Mk_obs.Hook.with_recorder r (fun () -> words_per_draw Profile.linux_default)
  in
  if words > 48.0 then
    Alcotest.failf "linux_default, metered: %.3f words/draw > 48" words;
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
   across the module boundary they cost ~4 words each.  The draw reads
   4 words, none of them a uniform. *)
let test_max_delay_sync_point_alloc_budget () =
  if Sys.backend_type <> Sys.Native then Alcotest.skip ();
  let words =
    words_per_draw ~dur:(360 * Units.ms) ~ranks:128 Profile.linux_nohz_full
  in
  if words > 8.0 then
    Alcotest.failf "linux_nohz_full, 360 ms x 128 ranks: %.1f words/draw > 8" words

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

(* The draw [Injector.max_delay] made before it kept Poisson tables,
   kept as its oracle: each source's CDF walked from exp (-lambda) with
   a divide per step, against u ** (1 / ranks) computed per draw. *)
module Max_delay_reference = struct
  let poisson_index ~lambda ~ranks u =
    let target = u ** (1.0 /. float_of_int ranks) in
    let k = ref 0 in
    let pmf = ref (exp (-.lambda)) in
    let cdf = ref !pmf in
    while !cdf < target && !k <= 10_000 do
      pmf := !pmf *. lambda /. float_of_int (!k + 1);
      cdf := !cdf +. !pmf;
      incr k
    done;
    !k

  let max_poisson rng ~lambda ~ranks =
    if lambda <= 0.0 then 0
    else begin
      let u = Rng.float rng 1.0 in
      let u = if u <= 0.0 then 1e-12 else u in
      if lambda < 60.0 then poisson_index ~lambda ~ranks u
      else begin
        let z = Rng.normal_quantile (u ** (1.0 /. float_of_int ranks)) in
        Int.max 0 (int_of_float (Float.round (lambda +. (z *. sqrt lambda))))
      end
    end

  let detour_sum rng (s : Source.t) k =
    if s.Source.duration_sigma = 0.0 then k * s.Source.duration
    else Rng.lognormal_sum rng ~mu:s.Source.mu ~sigma:s.Source.duration_sigma k

  let max_delay (profile : Profile.t) rng ~dur ~ranks =
    if ranks = 1 then Injector.delay profile rng ~dur
    else
      List.fold_left
        (fun acc (s : Source.t) ->
          let lambda = float_of_int dur /. float_of_int s.Source.period in
          acc + detour_sum rng s (max_poisson rng ~lambda ~ranks))
        0 profile.Profile.sources
end

let stock_profiles =
  Profile.
    [
      silent;
      mos_lwk;
      linux_default;
      linux_nohz_full;
      linux_cotenant;
      linux_service_core;
    ]

(* Same draws, and the same stream position after each, as the oracle
   on a copy of the generator: runs of 1-3,000 draws at one window,
   window changes between runs.  The tables outlive each case, so
   later cases also start from what earlier ones left. *)
let max_delay_matches_reference =
  QCheck.Test.make ~name:"max_delay = per-draw CDF walk" ~count:40
    QCheck.(
      quad (int_range 0 5) (int_range 2 256) small_nat
        (list_of_size (Gen.int_range 1 4)
           (pair (int_range 0 (400 * Units.ms))
              (frequency [ (3, int_range 1 40); (1, int_range 1 3_000) ]))))
    (fun (p, ranks, seed, runs) ->
      let profile = List.nth stock_profiles p in
      let rng = Rng.create seed in
      let oracle = Rng.copy rng in
      List.for_all
        (fun (dur, draws) ->
          let ok = ref true in
          for _ = 1 to draws do
            let got = Injector.max_delay profile rng ~dur ~ranks in
            let want = Max_delay_reference.max_delay profile oracle ~dur ~ranks in
            ok :=
              !ok && got = want
              && Int64.equal (Rng.bits64 (Rng.copy rng)) (Rng.bits64 (Rng.copy oracle))
          done;
          !ok)
        runs)

(* cdf_0 .. cdf_n by the original recurrence. *)
let cdf_prefix ~lambda n =
  let a = Array.make (n + 1) 0.0 in
  let pmf = ref (exp (-.lambda)) in
  a.(0) <- !pmf;
  for k = 1 to n do
    pmf := !pmf *. lambda /. float_of_int k;
    a.(k) <- a.(k - 1) +. !pmf
  done;
  a

(* The u -> k step on a table whose thresholds are ready, called where
   it can go wrong: at each T_k = cdf_k ** ranks, one ulp either side,
   and at the band's edges T_k (1 +- delta).  Draws reach the band
   about once in 10^8, so only a direct call exercises it. *)
let test_table_band_edges () =
  let delta = Injector.Table.delta in
  let lambdas =
    List.concat_map
      (fun (p : Profile.t) ->
        List.concat_map
          (fun (s : Source.t) ->
            List.map
              (fun dur -> float_of_int dur /. float_of_int s.Source.period)
              [ 2 * Units.ms; 10 * Units.ms; 190 * Units.ms; 360 * Units.ms ])
          p.Profile.sources)
      stock_profiles
    |> List.filter (fun l -> l > 0.0 && l < 60.0)
    |> List.sort_uniq Float.compare
  in
  List.iter
    (fun lambda ->
      List.iter
        (fun ranks ->
          (* Up to where the CDF is within 1e-12 of 1, and past the
             highest k the stock profiles reach. *)
          let cdf = cdf_prefix ~lambda 200 in
          let top = ref 0 in
          while !top < 200 && cdf.(!top) < 1.0 -. 1e-12 do
            incr top
          done;
          let tk k = cdf.(k) ** float_of_int ranks in
          let t = Injector.Table.create () in
          (* The first draw walks with the pow and computes no
             threshold; the second, at the largest uniform, walks past
             every k up to [top] and computes theirs. *)
          for _ = 1 to 2 do
            ignore (Injector.Table.index t ~lambda ~ranks (Float.pred 1.0))
          done;
          for k = 0 to !top do
            let x = tk k in
            List.iter
              (fun u ->
                if u >= 1e-12 && u < 1.0 then
                  check_int
                    (Printf.sprintf "lambda %g, ranks %d, k %d, u %h" lambda ranks k u)
                    (Max_delay_reference.poisson_index ~lambda ~ranks u)
                    (Injector.Table.index t ~lambda ~ranks u))
              [
                x;
                Float.succ x;
                Float.pred x;
                x *. (1.0 +. delta);
                x *. (1.0 -. delta);
                Float.succ (x *. (1.0 +. delta));
                Float.pred (x *. (1.0 -. delta));
              ]
          done)
        [ 2; 3; 64; 128; 256 ])
    lambdas

(* Two domains draw at once through one profile, each at its own
   windows, and each must draw exactly what the oracle draws alone.
   A table shared between domains would be re-keyed and refilled under
   the other domain's walk. *)
let test_domains_draw_independently () =
  let profile = Profile.linux_default and ranks = 128 and draws = 40_000 in
  let window d i =
    if d = 0 then (20 + (i / 500 mod 2)) * Units.ms else (45 + (i / 700 mod 3)) * Units.ms
  in
  let run draw d =
    let rng = Rng.create (1000 + d) in
    Array.init draws (fun i -> draw profile rng ~dur:(window d i) ~ranks)
  in
  let domains =
    Array.init 2 (fun d -> Domain.spawn (fun () -> run Injector.max_delay d))
  in
  let got = Array.map Domain.join domains in
  Array.iteri
    (fun d got ->
      Alcotest.(check (array int))
        (Printf.sprintf "domain %d" d)
        (run Max_delay_reference.max_delay d)
        got)
    got

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
        :: Alcotest.test_case "max_delay bias sign" `Quick
             test_max_delay_bias_sign
        :: Alcotest.test_case "max_delay allocation budget" `Quick
             test_max_delay_alloc_budget
        :: qsuite [ delay_nonnegative ]
        @ [
            Alcotest.test_case "metered max_delay allocation budget" `Quick
              test_max_delay_metered_alloc_budget;
            Alcotest.test_case "sync-point max_delay allocation budget" `Quick
              test_max_delay_sync_point_alloc_budget;
          ]
        @ qsuite [ lognormal_sum_matches_reference; max_delay_matches_reference ]
        @ [
            Alcotest.test_case "table band edges" `Quick test_table_band_edges;
          ] );
      ( "domains",
        [
          Alcotest.test_case "concurrent draws match the oracle" `Quick
            test_domains_draw_independently;
        ] );
    ]
