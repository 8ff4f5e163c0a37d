(** Sampling the interference a compute window suffers.

    [delay] draws the total detour time one thread accumulates over a
    window: per source, a Poisson number of occurrences times
    (lognormally spread) detour lengths.

    [max_delay] draws the detour of the *slowest* of [ranks]
    independent threads — the quantity that gates a synchronising
    collective.  It samples each source's occurrence count from the
    max-order-statistic of [ranks] iid Poissons (inverse-CDF on
    u^(1/ranks)), draws that many fresh detours, and sums across
    sources.  That preserves monotonicity in [ranks], but it is not
    the max over ranks of the per-rank sums, and its error goes both
    ways: it finds the unluckiest rank by strike count but not by
    detour length, while summing per-source maxima biases upward.
    Mean of [max_delay] over the mean of a brute-force oracle (the
    max of [ranks] independent {!delay} draws), 4,000 trials a point:

    {v
    profile             2 ms x 64   10 ms x 128   100 ms x 256   360 ms x 256
    linux-nohz-full       1.10         1.20           0.99           1.02
    linux-default         1.19         0.91           0.52           0.62
    linux-service-core    1.05         0.72           0.45           0.50
    mos-lwk               1.21         0.95           0.76           0.60
    v}

    test_noise's [max_delay bias sign] case pins the sign at two of
    these points.  This is the noise-amplification mechanism: with
    fine-grained collectives the per-level max grows with scale,
    which is why the Linux MiniFE curve collapses at 1,024+ nodes
    while the silent LWKs keep scaling (Figure 5b). *)

val delay : Profile.t -> Mk_engine.Rng.t -> dur:Mk_engine.Units.time -> Mk_engine.Units.time
(** Total noise suffered by one thread over a compute window of
    length [dur]. *)

val inflate :
  Profile.t -> Mk_engine.Rng.t -> dur:Mk_engine.Units.time -> Mk_engine.Units.time
(** [dur] plus sampled noise. *)

val max_delay :
  Profile.t ->
  Mk_engine.Rng.t ->
  dur:Mk_engine.Units.time ->
  ranks:int ->
  Mk_engine.Units.time
(** Noise suffered by the slowest of [ranks] threads over a window.

    Each source's Poisson CDF prefix, and the thresholds that decide
    the inverse-CDF step without a pow, are kept in a {!Table} per
    source position and per domain, re-keyed whenever a draw arrives
    at another (lambda, ranks).  The tables are domain-local and never
    shared: the stock profiles are constants every Pool domain reads,
    so draws on two domains at once each walk their own tables.  The
    values drawn, and the generator's position after each draw, are
    exactly those of the per-draw CDF walk the tables replaced. *)

val mean_delay : Profile.t -> dur:Mk_engine.Units.time -> Mk_engine.Units.time
(** Deterministic expectation, for calibration and tests. *)

(** The inverse-CDF step of {!max_delay}, exposed for tests. *)
module Table : sig
  type t
  (** The CDF prefix of Poisson(lambda) at one (lambda, ranks), with
      the thresholds T_k (1 +- {!delta}), T_k = cdf_k ** ranks. *)

  val create : unit -> t

  val index : t -> lambda:float -> ranks:int -> float -> int
  (** [index t ~lambda ~ranks u], for [0 < lambda < 60] and
      [1e-12 <= u < 1]: the smallest k with
      [not (cdf_k < u ** (1 /. float ranks))], capped at 10,001 — the
      original walk's answer.  The first call at a (lambda, ranks)
      walks with one pow and fills the table; a later call computes
      the thresholds of the entries it is the first to walk past, and
      needs the pow only inside a threshold's band. *)

  val delta : float
  (** The band's half-width relative to T_k, 1e-9. *)
end
