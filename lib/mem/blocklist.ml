(* A ring buffer read from either end.  The blocks occupy ring slots
   [first], [first + 1], ..., [first + len - 1] (mod capacity); the
   logical front is slot [first], or the last slot when [reversed]. *)
type t = {
  mutable ring : Phys.block array;
  mutable first : int;
  mutable len : int;
  mutable reversed : bool;
}

let empty () = { ring = [||]; first = 0; len = 0; reversed = false }
let is_empty t = t.len = 0

(* Ring slot of the [i]-th block in storage order. *)
let[@inline] slot t i =
  let s = t.first + i in
  let cap = Array.length t.ring in
  if s >= cap then s - cap else s

(* Double the capacity, unrolling the blocks to slots [0, len). *)
let grow t b =
  let cap = Int.max 8 (2 * Array.length t.ring) in
  let ring = Array.make cap b in
  for i = 0 to t.len - 1 do
    ring.(i) <- t.ring.(slot t i)
  done;
  t.ring <- ring;
  t.first <- 0

let add t b =
  if t.len = Array.length t.ring then grow t b;
  if t.reversed then t.ring.(slot t t.len) <- b
  else begin
    t.first <- (if t.first = 0 then Array.length t.ring - 1 else t.first - 1);
    t.ring.(t.first) <- b
  end;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then invalid_arg "Blocklist.pop: empty";
  t.len <- t.len - 1;
  if t.reversed then t.ring.(slot t t.len)
  else begin
    let b = t.ring.(t.first) in
    t.first <- slot t 1;
    b
  end

let reverse t = t.reversed <- not t.reversed

let release_all t phys =
  while t.len > 0 do
    Phys.free phys (pop t)
  done;
  t.first <- 0;
  t.reversed <- false
