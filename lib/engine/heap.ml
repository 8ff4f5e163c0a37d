(* Struct of arrays: slot [i] holds its key at [keys.(2 * i)], its
   insertion sequence number at [keys.(2 * i + 1)] and its value at
   [values.(i)].  A comparison reads one int array and dereferences
   nothing, and only a push that grows the arrays allocates.  Every
   value slot at or past [size] holds the caller's [dummy], so the
   heap retains no popped value and every slot holds a real value of
   its type. *)
type 'a t = {
  dummy : 'a;
  mutable keys : int array;
  mutable values : 'a array;
  mutable size : int;
  mutable next_seq : int;
}

let create ?(capacity = 64) ~dummy () =
  let capacity = Int.max 1 capacity in
  {
    dummy;
    keys = Array.make (2 * capacity) 0;
    values = Array.make capacity dummy;
    size = 0;
    next_seq = 0;
  }

let length t = t.size
let is_empty t = t.size = 0

(* Ordering: key first, then insertion sequence for determinism, a
   strict total order over the live slots. *)
let[@inline] before (keys : int array) i j =
  let ki = keys.(2 * i) and kj = keys.(2 * j) in
  ki < kj || (ki = kj && keys.((2 * i) + 1) < keys.((2 * j) + 1))

let grow t =
  let n = Array.length t.values in
  let keys = Array.make (4 * n) 0 and values = Array.make (2 * n) t.dummy in
  Array.blit t.keys 0 keys 0 (2 * t.size);
  Array.blit t.values 0 values 0 t.size;
  t.keys <- keys;
  t.values <- values

(* The new entry's sequence number exceeds every live one, so it
   precedes a parent only on a strictly smaller key.  Parents move
   down into the hole, and the entry is written once where the hole
   stops. *)
let push t ~key value =
  if t.size = Array.length t.values then grow t;
  let keys = t.keys and values = t.values in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let i = ref t.size in
  t.size <- t.size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pk = keys.(2 * parent) in
    if key < pk then begin
      keys.(2 * !i) <- pk;
      keys.((2 * !i) + 1) <- keys.((2 * parent) + 1);
      values.(!i) <- values.(parent);
      i := parent
    end
    else continue := false
  done;
  keys.(2 * !i) <- key;
  keys.((2 * !i) + 1) <- seq;
  values.(!i) <- value

let top_key t =
  if t.size = 0 then invalid_arg "Heap.top_key: empty heap";
  t.keys.(0)

let top t =
  if t.size = 0 then invalid_arg "Heap.top: empty heap";
  t.values.(0)

(* Remove the root: the last entry leaves its slot to [dummy] and
   sifts down from the root's hole, the smaller child moving up at
   each level. *)
let take t =
  if t.size = 0 then invalid_arg "Heap.take: empty heap";
  let keys = t.keys and values = t.values in
  let root = values.(0) in
  let n = t.size - 1 in
  t.size <- n;
  let key = keys.(2 * n) and seq = keys.((2 * n) + 1) and value = values.(n) in
  values.(n) <- t.dummy;
  if n > 0 then begin
    let i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let c = if l + 1 < n && before keys (l + 1) l then l + 1 else l in
        let ck = keys.(2 * c) and cs = keys.((2 * c) + 1) in
        if ck < key || (ck = key && cs < seq) then begin
          keys.(2 * !i) <- ck;
          keys.((2 * !i) + 1) <- cs;
          values.(!i) <- values.(c);
          i := c
        end
        else continue := false
      end
    done;
    keys.(2 * !i) <- key;
    keys.((2 * !i) + 1) <- seq;
    values.(!i) <- value
  end;
  root

let peek t = if t.size = 0 then None else Some (t.keys.(0), t.values.(0))

let pop t =
  if t.size = 0 then None
  else
    let key = t.keys.(0) in
    Some (key, take t)

let pop_exn t =
  match pop t with
  | Some kv -> kv
  | None -> invalid_arg "Heap.pop_exn: empty heap"

let to_sorted_list t =
  let copy = { t with keys = Array.copy t.keys; values = Array.copy t.values } in
  let rec drain acc =
    match pop copy with None -> List.rev acc | Some kv -> drain (kv :: acc)
  in
  drain []
