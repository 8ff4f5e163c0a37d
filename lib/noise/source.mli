(** One source of operating-system interference ("noise", "jitter").

    A source preempts an application thread every [period] ns for
    [duration] ns on average.  [duration_sigma] spreads individual
    detour lengths lognormally — long daemon wakeups have heavy
    tails, timer ticks are nearly constant. *)

type t = private {
  name : string;
  period : Mk_engine.Units.time;  (** mean time between occurrences *)
  duration : Mk_engine.Units.time;  (** mean detour length *)
  duration_sigma : float;
      (** lognormal sigma of individual detour lengths; 0 = constant *)
  mu : float;
      (** lognormal mu, log duration - sigma^2/2, so detours average
          [duration]; -infinity for a zero duration *)
  injections_counter : string;
      (** ["injections:" ^ name], the metric counting strikes *)
  stolen_counter : string;  (** ["stolen_ns:" ^ name], the metric summing detours *)
}
(** Private: only {!make} builds one, so [mu] and the counter names
    always match the other fields. *)

val make :
  name:string ->
  period:Mk_engine.Units.time ->
  duration:Mk_engine.Units.time ->
  ?duration_sigma:float ->
  unit ->
  t

val overhead : t -> float
(** Mean fraction of CPU time stolen: duration / period. *)

val timer_tick : t
(** 1 kHz scheduler tick, ~3 us handler. *)

val timer_tick_nohz : t
(** Residual 1 Hz tick under [nohz_full]. *)

val kworker : t
(** Kernel work queues: every ~10 ms, ~15 us. *)

val daemon : t
(** System daemons (monitoring, slurmd, …): every ~1 s, ~600 us,
    heavy-tailed. *)

val irq : t
(** Device interrupts: every ~5 ms, ~6 us. *)

val lwk_stray : t
(** A rare stray Linux task reaching an mOS LWK core: every ~10 s,
    ~20 us (Section II-D2 notes mOS must actively chase these). *)
