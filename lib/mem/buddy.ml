let base_page = 4096

module Index_set = Set.Make (Int)
module Index_tbl = Hashtbl.Make (Int)

type t = {
  base : int;
  total_pages : int;
  max_order : int;
  free_lists : Index_set.t array;  (** per order: free page indexes *)
  allocated : int Index_tbl.t;  (** page index -> order *)
  mutable free_pages : int;
}

let add_free t o idx = t.free_lists.(o) <- Index_set.add idx t.free_lists.(o)
let remove_free t o idx = t.free_lists.(o) <- Index_set.remove idx t.free_lists.(o)

let order_of_pages pages =
  let rec go o = if 1 lsl o >= pages then o else go (o + 1) in
  go 0

let create ~base ~bytes =
  if base mod base_page <> 0 then invalid_arg "Buddy.create: base not page aligned";
  let total_pages = bytes / base_page in
  if total_pages <= 0 then invalid_arg "Buddy.create: region too small";
  let max_order = order_of_pages total_pages in
  let free_lists = Array.make (max_order + 1) Index_set.empty in
  let t =
    {
      base;
      total_pages;
      max_order;
      free_lists;
      allocated = Index_tbl.create 64;
      free_pages = 0;
    }
  in
  (* Seed the free lists with a greedy power-of-two decomposition of
     the region, so non-power-of-two regions are fully usable. *)
  let rec seed idx remaining =
    if remaining > 0 then begin
      (* Largest order block that fits and is naturally aligned at idx. *)
      let rec pick o =
        let sz = 1 lsl o in
        if sz <= remaining && idx mod sz = 0 then o
        else if o = 0 then 0
        else pick (o - 1)
      in
      let o = pick max_order in
      add_free t o idx;
      t.free_pages <- t.free_pages + (1 lsl o);
      seed (idx + (1 lsl o)) (remaining - (1 lsl o))
    end
  in
  seed 0 total_pages;
  t

let total t = t.total_pages * base_page
let free_bytes t = t.free_pages * base_page
let used_bytes t = (t.total_pages - t.free_pages) * base_page

(* Deterministic: take the smallest index so identical call sequences
   produce identical layouts. *)
let take_any t o = Index_set.min_elt_opt t.free_lists.(o)

let has_free t o = not (Index_set.is_empty t.free_lists.(o))

let rec split_down t o target =
  (* Split one block of order o until a block of order target exists. *)
  if o > target then begin
    match take_any t o with
    | None -> ()
    | Some idx ->
        remove_free t o idx;
        let half = 1 lsl (o - 1) in
        add_free t (o - 1) idx;
        add_free t (o - 1) (idx + half);
        split_down t (o - 1) target
  end

let alloc t ~bytes =
  if bytes <= 0 then invalid_arg "Buddy.alloc: non-positive size";
  let pages = (bytes + base_page - 1) / base_page in
  let order = order_of_pages pages in
  if order > t.max_order then None
  else begin
    (* Find the smallest order >= requested with a free block. *)
    let rec find o =
      if o > t.max_order then None
      else if has_free t o then Some o
      else find (o + 1)
    in
    match find order with
    | None -> None
    | Some o ->
        split_down t o order;
        (match take_any t order with
        | None -> None
        | Some idx ->
            remove_free t order idx;
            Index_tbl.replace t.allocated idx order;
            t.free_pages <- t.free_pages - (1 lsl order);
            Some (t.base + (idx * base_page)))
  end

let rec coalesce t idx order =
  if order < t.max_order then begin
    let size = 1 lsl order in
    let buddy = idx lxor size in
    if buddy + size <= t.total_pages && Index_set.mem buddy t.free_lists.(order)
    then begin
      remove_free t order buddy;
      let merged = Int.min idx buddy in
      coalesce t merged (order + 1)
    end
    else add_free t order idx
  end
  else add_free t order idx

let free t ~addr ~bytes =
  let idx = (addr - t.base) / base_page in
  let pages = (bytes + base_page - 1) / base_page in
  let order = order_of_pages pages in
  (match Index_tbl.find_opt t.allocated idx with
  | Some o when o = order -> Index_tbl.remove t.allocated idx
  | Some o ->
      invalid_arg
        (Printf.sprintf "Buddy.free: block at %#x has order %d, freed as %d" addr o
           order)
  | None -> invalid_arg (Printf.sprintf "Buddy.free: block at %#x not allocated" addr));
  t.free_pages <- t.free_pages + (1 lsl order);
  coalesce t idx order

let largest_free t =
  let rec go o =
    if o < 0 then 0
    else if has_free t o then (1 lsl o) * base_page
    else go (o - 1)
  in
  go t.max_order

let fragmentation t =
  let fb = free_bytes t in
  if fb = 0 then 0.0 else 1.0 -. (float_of_int (largest_free t) /. float_of_int fb)
