open Mk_engine

type t = {
  name : string;
  period : Units.time;
  duration : Units.time;
  duration_sigma : float;
  mu : float;
  injections_counter : string;
  stolen_counter : string;
}

let make ~name ~period ~duration ?(duration_sigma = 0.0) () =
  if period <= 0 then invalid_arg "Source.make: period must be positive";
  if duration < 0 then invalid_arg "Source.make: negative duration";
  {
    name;
    period;
    duration;
    duration_sigma;
    (* E[lognormal(mu, sigma)] = exp(mu + sigma^2/2); pick mu so the
       mean matches the duration. *)
    mu = log (float_of_int duration) -. (duration_sigma *. duration_sigma /. 2.0);
    injections_counter = "injections:" ^ name;
    stolen_counter = "stolen_ns:" ^ name;
  }

let overhead t = float_of_int t.duration /. float_of_int t.period

let timer_tick =
  make ~name:"timer-tick" ~period:Units.ms ~duration:(3 * Units.us) ()

let timer_tick_nohz =
  make ~name:"timer-tick-nohz" ~period:Units.sec ~duration:(3 * Units.us) ()

let kworker =
  make ~name:"kworker" ~period:(10 * Units.ms) ~duration:(15 * Units.us)
    ~duration_sigma:0.5 ()

let daemon =
  make ~name:"daemon" ~period:Units.sec ~duration:(600 * Units.us)
    ~duration_sigma:1.0 ()

let irq =
  make ~name:"irq" ~period:(5 * Units.ms) ~duration:(6 * Units.us)
    ~duration_sigma:0.3 ()

let lwk_stray =
  make ~name:"lwk-stray" ~period:(10 * Units.sec) ~duration:(20 * Units.us)
    ~duration_sigma:0.5 ()
