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

(* Poisson CDF tables.  [max_poisson] inverts the CDF of Poisson(lambda)
   at u^(1/ranks), and lambda = dur / period is the same for every node
   of a healthy sync point (and every draw of a DES loop).  So each
   source keeps, per domain, the CDF prefix it walked at the last
   (lambda, ranks): the doubles of the original recurrence, extended
   lazily and in the same order, hence the same k for the same u.

   A reused table also drops the pow.  With T_k = cdf_k ** ranks,
   [cdf_k < u ** (1 / ranks)] is decided from u alone: true when
   u > T_k (1 + delta), false when u < T_k (1 - delta), and only
   inside that band by the original pow and compare.  This is exact:
   glibc's pow is within about half an ulp; allowing a full ulp for
   each of the two pows and for the rounded exponent 1 / ranks (scaled
   by |log u| <= 28, as u >= 1e-12), the two comparisons can disagree
   only within about (ranks + 30) ulp of T_k in u-space, 6.4e-14
   relative at ranks <= 256 and 1.5e-11 at [max_ranks], against
   delta = 1e-9.  An underflowed T_k still decides correctly: u is at
   least 1e-12.  Above [max_ranks] every draw walks with the pow. *)
module Table = struct
  type t = {
    lambda : float array;  (** [| lambda |]: re-keying stores it unboxed *)
    mutable ranks : int;
    mutable filled : int;
        (** [cdf] and [pmf] hold entries [0, filled); 0 until the first
            draw at this (lambda, ranks) *)
    mutable ready : int;  (** [above] and [below] hold entries [0, ready) *)
    mutable cdf : float array;
    mutable pmf : float array;
    mutable above : float array;  (** T_k (1 + delta) *)
    mutable below : float array;  (** T_k (1 - delta) *)
  }

  let delta = 1e-9
  let max_ranks = 65_536

  (* The walk stops at k = cap + 1, as the original one did. *)
  let cap = 10_000

  let create () =
    {
      lambda = [| nan |];
      ranks = 0;
      filled = 0;
      ready = 0;
      cdf = Array.make 128 0.0;
      pmf = Array.make 128 0.0;
      above = Array.make 128 0.0;
      below = Array.make 128 0.0;
    }

  let grow t =
    let n = 2 * Array.length t.cdf in
    let widen a = Array.append a (Array.make (n - Array.length a) 0.0) in
    t.cdf <- widen t.cdf;
    t.pmf <- widen t.pmf;
    t.above <- widen t.above;
    t.below <- widen t.below

  (* Append entry [filled] (> 0) by the original recurrence: pmf_k =
     pmf_(k-1) * lambda / k and cdf_k = cdf_(k-1) + pmf_k. *)
  let extend t =
    let k = t.filled in
    if k = Array.length t.cdf then grow t;
    let p = t.pmf.(k - 1) *. t.lambda.(0) /. float_of_int k in
    t.pmf.(k) <- p;
    t.cdf.(k) <- t.cdf.(k - 1) +. p;
    t.filled <- k + 1

  let add_threshold t =
    let k = t.ready in
    let p = t.cdf.(k) ** float_of_int t.ranks in
    t.above.(k) <- p *. (1.0 +. delta);
    t.below.(k) <- p *. (1.0 -. delta);
    t.ready <- k + 1

  (* The smallest k with [not (cdf_k < u ** (1 / ranks))], or cap + 1.
     Inlined into [max_delay_sum], so neither float is boxed.  A draw
     at a new (lambda, ranks) walks as the original loop did, with one
     pow, and computes no threshold: a lambda drawn once pays only the
     original walk.  A later draw computes the threshold of each entry
     it is the first to walk past, once per (lambda, ranks). *)
  let[@inline] index t ~lambda ~ranks u =
    if lambda <> t.lambda.(0) || ranks <> t.ranks || ranks > max_ranks then begin
      t.lambda.(0) <- lambda;
      t.ranks <- ranks;
      t.filled <- 0;
      t.ready <- 0
    end;
    let k = ref 0 in
    if t.filled = 0 then begin
      (* The first draw at this (lambda, ranks): the original walk,
         over local refs that native code keeps unboxed, keeping each
         entry it computes. *)
      let target = u ** (1.0 /. float_of_int ranks) in
      let pmf = ref (exp (-.lambda)) in
      let cdf = ref !pmf in
      t.pmf.(0) <- !pmf;
      t.cdf.(0) <- !cdf;
      while !cdf < target && !k <= cap do
        pmf := !pmf *. lambda /. float_of_int (!k + 1);
        cdf := !cdf +. !pmf;
        incr k;
        if !k = Array.length t.cdf then grow t;
        t.pmf.(!k) <- !pmf;
        t.cdf.(!k) <- !cdf
      done;
      t.filled <- !k + 1
    end
    else begin
      (* [target] < 0: the pow has not been needed yet this draw. *)
      let target = ref (-1.0) and walking = ref true in
      while !walking do
        let i = !k in
        if i > cap then walking := false
        else begin
          if i = t.filled then extend t;
          if i = t.ready then add_threshold t;
          let below =
            if u > t.above.(i) then true
            else if u < t.below.(i) then false
            else begin
              if !target < 0.0 then target := u ** (1.0 /. float_of_int ranks);
              t.cdf.(i) < !target
            end
          in
          if below then k := i + 1 else walking := false
        end
      done
    end;
    !k
end

(* One table per source position, per domain: [Source.t] and the
   stock profiles are constants every Pool domain shares, so a table
   kept there would be rewritten under another domain's walk.  A table
   holds only Poisson(lambda) data, so it is valid for whichever source
   asks next at its (lambda, ranks). *)
let tables : Table.t array ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [||])

let table tables i =
  if i < Array.length !tables then !tables.(i)
  else begin
    let t = Table.create () in
    tables := Array.append !tables [| t |];
    t
  end

(* Sample the maximum of [ranks] iid Poisson(lambda) variables by
   inverse CDF at u^(1/ranks).  Inlined into [max_delay_sum], so
   [lambda] is not boxed to be passed in.  The uniform is [Rng.float
   rng 1.0]'s, scaled here from its 53 bits: returned as a float from
   [Rng], it would be boxed. *)
let[@inline] max_poisson rng tbl ~lambda ~ranks =
  if lambda <= 0.0 then 0
  else begin
    let u = float_of_int (Rng.bits53 rng) /. 9007199254740992.0 in
    let u = if u <= 0.0 then 1e-12 else u in
    if lambda < 60.0 then Table.index tbl ~lambda ~ranks u
    else begin
      (* Normal approximation to the Poisson. *)
      let z = Rng.normal_quantile (u ** (1.0 /. float_of_int ranks)) in
      Int.max 0 (int_of_float (Float.round (lambda +. (z *. sqrt lambda))))
    end
  end

let rec max_delay_sum rng tables i ~dur ~ranks acc = function
  | [] -> acc
  | (s : Source.t) :: rest ->
      let lambda = float_of_int dur /. float_of_int s.Source.period in
      let k = max_poisson rng (table tables i) ~lambda ~ranks in
      let stolen = detour_sum rng s k in
      record_strikes s ~k ~stolen;
      max_delay_sum rng tables (i + 1) ~dur ~ranks (acc + stolen) rest

let max_delay profile rng ~dur ~ranks =
  if ranks <= 0 then invalid_arg "Injector.max_delay: ranks must be positive";
  if ranks = 1 then delay profile rng ~dur
  else
    match profile.Profile.sources with
    | [] -> 0
    | sources -> max_delay_sum rng (Domain.DLS.get tables) 0 ~dur ~ranks 0 sources

let mean_delay profile ~dur =
  let f = Profile.total_overhead profile in
  int_of_float (f *. float_of_int dur)
