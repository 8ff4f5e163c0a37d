type backing = Anonymous | Heap | Stack | Shared of int

type acct = {
  mutable backed : int;
  mutable mcdram : int;
  mutable small : int;
  mutable large : int;
  mutable huge : int;
}

type t = {
  start : int;
  mutable len : int;
  backing : backing;
  policy : Policy.t;
  mutable blocks : Mk_hw.Numa.id Blocklist.t;
  acct : acct;
  mutable mappings : (int * int * Page.size) list;
      (** (vaddr, bytes, page) of each populated extent, newest first *)
}

let fresh_acct () = { backed = 0; mcdram = 0; small = 0; large = 0; huge = 0 }

let make ~start ~len ~backing ~policy =
  if len <= 0 then invalid_arg "Vma.make: non-positive length";
  {
    start;
    len;
    backing;
    policy;
    blocks = Blocklist.empty ();
    acct = fresh_acct ();
    mappings = [];
  }

let end_ t = t.start + t.len
let contains t addr = addr >= t.start && addr < end_ t

let overlaps t ~start ~len =
  let e = start + len in
  not (e <= t.start || start >= end_ t)

let record t ~bytes ~mcdram ~page =
  (* Backing fills the VMA front to back, so the new extent starts at
     the current high-water mark. *)
  t.mappings <- (t.start + t.acct.backed, bytes, page) :: t.mappings;
  t.acct.backed <- t.acct.backed + bytes;
  t.acct.mcdram <- t.acct.mcdram + mcdram;
  (match page with
  | Page.Small -> t.acct.small <- t.acct.small + bytes
  | Page.Large -> t.acct.large <- t.acct.large + bytes
  | Page.Huge -> t.acct.huge <- t.acct.huge + bytes)

let unbacked t = Int.max 0 (t.len - t.acct.backed)

let tlb_factor acct =
  let total = acct.small + acct.large + acct.huge in
  if total = 0 then 1.0
  else begin
    let weighted =
      (float_of_int acct.small *. Page.tlb_overhead Page.Small)
      +. (float_of_int acct.large *. Page.tlb_overhead Page.Large)
      +. (float_of_int acct.huge *. Page.tlb_overhead Page.Huge)
    in
    weighted /. float_of_int total
  end

let merge_acct accts =
  let out = fresh_acct () in
  List.iter
    (fun a ->
      out.backed <- out.backed + a.backed;
      out.mcdram <- out.mcdram + a.mcdram;
      out.small <- out.small + a.small;
      out.large <- out.large + a.large;
      out.huge <- out.huge + a.huge)
    accts;
  out

let backing_to_string = function
  | Anonymous -> "anon"
  | Heap -> "heap"
  | Stack -> "stack"
  | Shared k -> Printf.sprintf "shm:%d" k
