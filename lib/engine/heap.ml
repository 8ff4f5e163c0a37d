(* Slot [i] is three ints of one array: its key at [slots.(3 * i)],
   its insertion sequence number at [slots.(3 * i + 1)] and its
   payload at [slots.(3 * i + 2)].  A comparison reads adjacent ints
   and dereferences nothing, a store is a plain int write that never
   passes through the write barrier, and only a push that grows the
   array allocates.  The heap holds no pointer, so it cannot keep a
   popped event alive. *)
type t = {
  mutable slots : int array;
  mutable size : int;
  mutable next_seq : int;
}

let create ?(capacity = 64) () =
  { slots = Array.make (3 * Int.max 1 capacity) 0; size = 0; next_seq = 0 }

let length t = t.size
let is_empty t = t.size = 0

(* Ordering: key first, then insertion sequence for determinism, a
   strict total order over the live slots. *)
let[@inline] before (slots : int array) i j =
  let ki = slots.(3 * i) and kj = slots.(3 * j) in
  ki < kj || (ki = kj && slots.((3 * i) + 1) < slots.((3 * j) + 1))

let grow t =
  let slots = Array.make (2 * Array.length t.slots) 0 in
  Array.blit t.slots 0 slots 0 (3 * t.size);
  t.slots <- slots

(* Slot [src]'s three ints into slot [dst]. *)
let[@inline] move (slots : int array) ~src ~dst =
  slots.(3 * dst) <- slots.(3 * src);
  slots.((3 * dst) + 1) <- slots.((3 * src) + 1);
  slots.((3 * dst) + 2) <- slots.((3 * src) + 2)

(* The new entry's sequence number exceeds every live one, so it
   precedes a parent only on a strictly smaller key.  Parents move
   down into the hole, and the entry is written once where the hole
   stops. *)
let push t ~key payload =
  if 3 * t.size = Array.length t.slots then grow t;
  let slots = t.slots in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let i = ref t.size in
  t.size <- t.size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if key < slots.(3 * parent) then begin
      move slots ~src:parent ~dst:!i;
      i := parent
    end
    else continue := false
  done;
  slots.(3 * !i) <- key;
  slots.((3 * !i) + 1) <- seq;
  slots.((3 * !i) + 2) <- payload

let top_key t =
  if t.size = 0 then invalid_arg "Heap.top_key: empty heap";
  t.slots.(0)

let top t =
  if t.size = 0 then invalid_arg "Heap.top: empty heap";
  t.slots.(2)

(* Remove the root: the last entry sifts down from the root's hole,
   the smaller child moving up at each level. *)
let take t =
  if t.size = 0 then invalid_arg "Heap.take: empty heap";
  let slots = t.slots in
  let root = slots.(2) in
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    let key = slots.(3 * n)
    and seq = slots.((3 * n) + 1)
    and payload = slots.((3 * n) + 2) in
    let i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let c = if l + 1 < n && before slots (l + 1) l then l + 1 else l in
        let ck = slots.(3 * c) in
        if ck < key || (ck = key && slots.((3 * c) + 1) < seq) then begin
          move slots ~src:c ~dst:!i;
          i := c
        end
        else continue := false
      end
    done;
    slots.(3 * !i) <- key;
    slots.((3 * !i) + 1) <- seq;
    slots.((3 * !i) + 2) <- payload
  end;
  root

let peek t = if t.size = 0 then None else Some (t.slots.(0), t.slots.(2))

let pop t =
  if t.size = 0 then None
  else
    let key = t.slots.(0) in
    Some (key, take t)

let pop_exn t =
  match pop t with
  | Some kv -> kv
  | None -> invalid_arg "Heap.pop_exn: empty heap"

let to_sorted_list t =
  let copy = { t with slots = Array.copy t.slots } in
  let rec drain acc =
    match pop copy with None -> List.rev acc | Some kv -> drain (kv :: acc)
  in
  drain []
