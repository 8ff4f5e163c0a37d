(* Single-producer single-consumer linked queue (Michael–Scott with
   one lock-free side each).  The producer appends behind [tail], the
   consumer advances [head]; the only point of contact is the [next]
   pointer of the current tail, which is an [Atomic] so the producer's
   plain write to [value] happens-before the consumer's read of it
   (publish via [Atomic.set], observe via [Atomic.get]).

   [head] always points at a consumed dummy node, so neither side ever
   touches the other's pointer.  Popped nodes have their [value]
   scrubbed to [None] so the queue never retains a reference to a
   delivered message. *)

type 'a node = { mutable value : 'a option; next : 'a node option Atomic.t }

type 'a t = { mutable head : 'a node; mutable tail : 'a node }

let create () =
  let dummy = { value = None; next = Atomic.make None } in
  { head = dummy; tail = dummy }

let push t v =
  let n = { value = Some v; next = Atomic.make None } in
  Atomic.set t.tail.next (Some n);
  t.tail <- n

let pop t =
  match Atomic.get t.head.next with
  | None -> None
  | Some n ->
      let v = n.value in
      n.value <- None;
      t.head <- n;
      v

let is_empty t = Atomic.get t.head.next = None
