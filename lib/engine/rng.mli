(** Deterministic, splittable pseudo-random number generation.

    The whole simulator draws randomness through this module so that a
    run is reproducible from a single seed.  The generator is
    xoshiro256** (Blackman & Vigna), seeded via splitmix64.  [split]
    derives an independent stream from a parent stream and a label,
    which lets us give every (experiment, run, node, rank) tuple its
    own deterministic stream regardless of evaluation order. *)

type t

val create : int -> t
(** [create seed] builds a generator from a 63-bit seed. *)

val split : t -> int -> t
(** [split t label] derives an independent generator.  Distinct labels
    yield decorrelated streams; the parent is not advanced. *)

val copy : t -> t

val bits64 : t -> int64
(** Next raw 64 bits. *)

val int : t -> int -> int
(** [int t n] draws uniformly from [0, n).  Requires [n > 0]. *)

val bits53 : t -> int
(** The next 53 random bits, as a non-negative int: one step, as
    {!float} takes it.  [float_of_int (bits53 t) /. 9007199254740992.0]
    is the uniform [float t 1.0] would return, unboxed even across a
    module boundary. *)

val float : t -> float -> float
(** [float t x] draws uniformly from [0, x). *)

val bool : t -> bool

val uniform : t -> lo:float -> hi:float -> float

val exponential : t -> mean:float -> float
(** Exponentially distributed with the given mean. *)

val normal : t -> mu:float -> sigma:float -> float
(** Gaussian via Box–Muller. *)

val lognormal : t -> mu:float -> sigma:float -> float
(** exp of a normal draw: heavy-ish right tail, always positive. *)

val lognormal_sum : t -> mu:float -> sigma:float -> int -> int
(** [lognormal_sum t ~mu ~sigma k] is the sum of
    [max 0 (int_of_float x)] over [k] successive [lognormal t ~mu ~sigma]
    draws, and leaves [t] where those [k] draws would; 0 when
    [k <= 0].  It allocates nothing per draw. *)

val pareto : t -> scale:float -> shape:float -> float
(** Pareto type I: support [scale, inf), heavier tail for small shape. *)

val poisson : t -> lambda:float -> int
(** Poisson-distributed count; Knuth's method for small [lambda],
    normal approximation beyond 30. *)

val normal_quantile : float -> float
(** Inverse standard-normal CDF (Acklam's approximation); pure
    function, exposed for max-order-statistic sampling. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
