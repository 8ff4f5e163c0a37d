(* xoshiro256** state: four 64-bit words s0..s3 at byte offsets 0, 8,
   16 and 24 of a private 32-byte buffer.  A store to an [int64] record
   field would box the value; these primitives read and write the raw
   word, so native code keeps a whole step in registers and a draw
   allocates nothing.  The layout is private and only ever read back
   here, so native byte order is fine. *)
type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

(* splitmix64 is used for seeding: it turns any 64-bit value into a
   well-mixed sequence, which is the recommended way to initialise
   xoshiro state. *)
let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* s0..s3 are four successive splitmix64 outputs. *)
let of_splitmix state =
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    set64 t (8 * i) (splitmix64 state)
  done;
  t

let create seed = of_splitmix (ref (Int64.of_int seed))

let copy = Bytes.copy

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* One xoshiro256** step.  Inlined into every draw below, so only
   [bits64], which hands the word out, boxes its result. *)
let[@inline] next t =
  let open Int64 in
  let s0 = get64 t 0 and s1 = get64 t 8 and s2 = get64 t 16 and s3 = get64 t 24 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  set64 t 0 (logxor s0 s3);
  set64 t 8 (logxor s1 s2);
  set64 t 16 (logxor s2 (shift_left s1 17));
  set64 t 24 (rotl s3 45);
  result

let bits64 t = next t

let split t label =
  (* Mix the parent state with the label through splitmix64 without
     advancing the parent. *)
  of_splitmix
    (ref
       (Int64.add
          (Int64.mul (get64 t 0) 0x2545F4914F6CDD1DL)
          (Int64.add (Int64.of_int label) (get64 t 24))))

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Drop two bits so the value fits OCaml's 63-bit signed int. *)
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  v mod n

(* [float], [normal] and [lognormal] are inlined into one another (and
   into the other draws here), so a lognormal draw boxes at most the
   float it finally returns. *)
let[@inline] float t x =
  (* 53 random bits mapped to [0,1). *)
  let v = Int64.to_int (Int64.shift_right_logical (next t) 11) in
  float_of_int v /. 9007199254740992.0 *. x

let bool t = Int64.logand (next t) 1L = 1L

let uniform t ~lo ~hi = lo +. float t (hi -. lo)

let exponential t ~mean =
  let u = float t 1.0 in
  let u = if u <= 0.0 then 1e-300 else u in
  -.mean *. log u

let[@inline] normal t ~mu ~sigma =
  let u1 = float t 1.0 and u2 = float t 1.0 in
  let u1 = if u1 <= 0.0 then 1e-300 else u1 in
  mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let[@inline] lognormal t ~mu ~sigma = exp (normal t ~mu ~sigma)

(* One noise source's detours in one call.  The loop must live here:
   the library compiles with [-opaque], so a caller in another module
   would box every draw's float and [mu] on the way in. *)
let lognormal_sum t ~mu ~sigma k =
  let acc = ref 0 in
  for _ = 1 to k do
    acc := !acc + Int.max 0 (int_of_float (lognormal t ~mu ~sigma))
  done;
  !acc

let pareto t ~scale ~shape =
  let u = float t 1.0 in
  let u = if u <= 0.0 then 1e-300 else u in
  scale /. (u ** (1.0 /. shape))

(* Acklam's rational approximation to the inverse normal CDF;
   absolute error below 1.15e-9 over (0,1). *)
let normal_quantile p =
  if p <= 0.0 then -8.0
  else if p >= 1.0 then 8.0
  else begin
    let a =
      [| -3.969683028665376e+01; 2.209460984245205e+02; -2.759285104469687e+02;
         1.383577518672690e+02; -3.066479806614716e+01; 2.506628277459239e+00 |]
    in
    let b =
      [| -5.447609879822406e+01; 1.615858368580409e+02; -1.556989798598866e+02;
         6.680131188771972e+01; -1.328068155288572e+01 |]
    in
    let c =
      [| -7.784894002430293e-03; -3.223964580411365e-01; -2.400758277161838e+00;
         -2.549732539343734e+00; 4.374664141464968e+00; 2.938163982698783e+00 |]
    in
    let d =
      [| 7.784695709041462e-03; 3.224671290700398e-01; 2.445134137142996e+00;
         3.754408661907416e+00 |]
    in
    let p_low = 0.02425 in
    if p < p_low then begin
      let q = sqrt (-2.0 *. log p) in
      (((((c.(0) *. q) +. c.(1)) *. q +. c.(2)) *. q +. c.(3)) *. q +. c.(4)) *. q
      +. c.(5)
      |> fun num ->
      num /. ((((d.(0) *. q +. d.(1)) *. q +. d.(2)) *. q +. d.(3)) *. q +. 1.0)
    end
    else if p <= 1.0 -. p_low then begin
      let q = p -. 0.5 in
      let r = q *. q in
      ((((((a.(0) *. r) +. a.(1)) *. r +. a.(2)) *. r +. a.(3)) *. r +. a.(4)) *. r
      +. a.(5))
      *. q
      /. (((((b.(0) *. r +. b.(1)) *. r +. b.(2)) *. r +. b.(3)) *. r +. b.(4)) *. r
         +. 1.0)
    end
    else begin
      let q = sqrt (-2.0 *. log (1.0 -. p)) in
      -.((((((c.(0) *. q) +. c.(1)) *. q +. c.(2)) *. q +. c.(3)) *. q +. c.(4)) *. q
         +. c.(5))
      /. ((((d.(0) *. q +. d.(1)) *. q +. d.(2)) *. q +. d.(3)) *. q +. 1.0)
    end
  end

let poisson t ~lambda =
  if lambda < 0.0 then invalid_arg "Rng.poisson: negative lambda";
  if lambda = 0.0 then 0
  else if lambda < 30.0 then begin
    (* Knuth: multiply uniforms until below e^-lambda.  A loop over
       local refs keeps the running product unboxed. *)
    let limit = exp (-.lambda) in
    let k = ref 0 in
    let p = ref (float t 1.0) in
    while !p > limit do
      p := !p *. float t 1.0;
      incr k
    done;
    !k
  end
  else begin
    let v = lambda +. (sqrt lambda *. normal_quantile (float t 1.0)) in
    Int.max 0 (int_of_float (Float.round v))
  end

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
