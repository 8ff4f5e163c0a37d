open Mk_engine

let occurrences rng (s : Source.t) ~dur =
  let lambda = float_of_int dur /. float_of_int s.Source.period in
  Rng.poisson rng ~lambda

(* Total detour length of [k] strikes: [k] times the mean when
   lengths are constant, otherwise [k] lognormal draws with that mean,
   summed inside [Rng] where they stay unboxed. *)
let detour_sum rng (s : Source.t) k =
  if s.Source.duration_sigma = 0.0 then k * s.Source.duration
  else Rng.lognormal_sum rng ~mu:s.Source.mu ~sigma:s.Source.duration_sigma k

(* The hook fires only when the source actually struck (k > 0), so
   the disabled-path cost of instrumentation is one branch on the
   sparse case, not a DLS read per source per window.  A strike is
   common (tens of millions per suite pass), so its counter names are
   the source's own, built once by [Source.make]. *)
let record_strikes (s : Source.t) ~k ~stolen =
  if k > 0 then
    match Mk_obs.Hook.active () with
    | Some r ->
        Mk_obs.Recorder.count r ~subsystem:"noise" ~name:s.Source.injections_counter k;
        Mk_obs.Recorder.count r ~subsystem:"noise" ~name:s.Source.stolen_counter stolen
    | None -> ()

let source_delay rng s ~dur =
  let k = occurrences rng s ~dur in
  let stolen = detour_sum rng s k in
  record_strikes s ~k ~stolen;
  stolen

(* Top-level recursions, not local closures: these run once per node
   per synchronisation point, where a capturing closure per call is a
   hot minor-heap allocation at high node counts. *)
let rec delay_sum rng ~dur acc = function
  | [] -> acc
  | s :: rest -> delay_sum rng ~dur (acc + source_delay rng s ~dur) rest

let delay profile rng ~dur = delay_sum rng ~dur 0 profile.Profile.sources

let inflate profile rng ~dur = dur + delay profile rng ~dur

(* Sample the maximum of [ranks] iid Poisson(lambda) variables by
   inverse CDF at u^(1/ranks).  Inlined into [max_delay_sum], so
   [lambda] is not boxed to be passed in. *)
let[@inline] max_poisson rng ~lambda ~ranks =
  if lambda <= 0.0 then 0
  else begin
    let u = Rng.float rng 1.0 in
    let u = if u <= 0.0 then 1e-12 else u in
    let target = u ** (1.0 /. float_of_int ranks) in
    if lambda < 60.0 then begin
      (* Walk the CDF.  A loop over local refs, which native code
         keeps unboxed in registers; a local recursive walk would
         allocate its closure and box [pmf] and [cdf] at every step. *)
      let k = ref 0 in
      let pmf = ref (exp (-.lambda)) in
      let cdf = ref !pmf in
      while !cdf < target && !k <= 10_000 do
        pmf := !pmf *. lambda /. float_of_int (!k + 1);
        cdf := !cdf +. !pmf;
        incr k
      done;
      !k
    end
    else begin
      (* Normal approximation to the Poisson. *)
      let z = Rng.normal_quantile target in
      Int.max 0 (int_of_float (Float.round (lambda +. (z *. sqrt lambda))))
    end
  end

let rec max_delay_sum rng ~dur ~ranks acc = function
  | [] -> acc
  | (s : Source.t) :: rest ->
      let lambda = float_of_int dur /. float_of_int s.Source.period in
      let k = max_poisson rng ~lambda ~ranks in
      let stolen = detour_sum rng s k in
      record_strikes s ~k ~stolen;
      max_delay_sum rng ~dur ~ranks (acc + stolen) rest

let max_delay profile rng ~dur ~ranks =
  if ranks <= 0 then invalid_arg "Injector.max_delay: ranks must be positive";
  if ranks = 1 then delay profile rng ~dur
  else max_delay_sum rng ~dur ~ranks 0 profile.Profile.sources

let mean_delay profile ~dur =
  let f = Profile.total_overhead profile in
  int_of_float (f *. float_of_int dur)
