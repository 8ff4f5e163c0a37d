let entries_per_table = 512

(* Region sizes covered by one table at each level. *)
let pt_span = 512 * 4096 (* one PT maps 2 MiB of 4K pages *)
let pd_span = 512 * pt_span (* one PD maps 1 GiB *)
let pdpt_span = 512 * pd_span (* one PDPT maps 512 GiB *)

type t = {
  (* For each level, how many leaf entries each table (keyed by the
     table's base virtual address) currently holds.  A table exists
     while it has a non-zero count; intermediate tables are implied:
     a PT requires its PD/PDPT, etc. *)
  pts : (int, int) Hashtbl.t;  (** 4K leaves, keyed by 2M-aligned base *)
  pds : (int, int) Hashtbl.t;  (** 2M leaves + child PTs, keyed by 1G base *)
  pdpts : (int, int) Hashtbl.t;  (** 1G leaves + child PDs, keyed by 512G base *)
  mutable leaves : int;
  mutable ops : int;
}

let create () =
  {
    pts = Hashtbl.create 64;
    pds = Hashtbl.create 16;
    pdpts = Hashtbl.create 4;
    leaves = 0;
    ops = 0;
  }

let bump tbl key delta =
  let v = delta + Option.value (Hashtbl.find_opt tbl key) ~default:0 in
  if v < 0 then invalid_arg "Page_table: negative entry count";
  if v = 0 then Hashtbl.remove tbl key else Hashtbl.replace tbl key v

let existed tbl key = Hashtbl.mem tbl key

let walk_levels = function Page.Small -> 4 | Page.Large -> 3 | Page.Huge -> 2

let page_range ~vaddr ~bytes ~page =
  let psize = Page.bytes page in
  let first = Page.align_down vaddr psize in
  let last = Page.align_up (vaddr + bytes) psize in
  (first, last, psize)

(* Apply [f base count] once per leaf table covering [first, last):
   [base] is the table's span-aligned base address, [count] how many
   leaf pages of the mapping fall inside that span.  O(tables
   touched), not O(pages). *)
let for_each_span t ~first ~last ~span ~psize f =
  let base = ref (Page.align_down first span) in
  while !base < last do
    t.ops <- t.ops + 1;
    let lo = Int.max !base first and hi = Int.min (!base + span) last in
    f !base ((hi - lo) / psize);
    base := !base + span
  done

(* Closed-form map: one hashtable update per leaf table touched, with
   parent entries created exactly as the per-page walk would have. *)
let map t ~vaddr ~bytes ~page =
  if bytes <= 0 then invalid_arg "Page_table.map: non-positive size";
  let first, last, psize = page_range ~vaddr ~bytes ~page in
  t.leaves <- t.leaves + ((last - first) / psize);
  match page with
  | Page.Huge ->
      for_each_span t ~first ~last ~span:pdpt_span ~psize (fun base n ->
          bump t.pdpts base n)
  | Page.Large ->
      for_each_span t ~first ~last ~span:pd_span ~psize (fun base n ->
          if not (existed t.pds base) then
            bump t.pdpts (Page.align_down base pdpt_span) 1;
          bump t.pds base n)
  | Page.Small ->
      for_each_span t ~first ~last ~span:pt_span ~psize (fun base n ->
          if not (existed t.pts base) then begin
            let pd = Page.align_down base pd_span in
            if not (existed t.pds pd) then
              bump t.pdpts (Page.align_down base pdpt_span) 1;
            bump t.pds pd 1
          end;
          bump t.pts base n)

let unmap t ~vaddr ~bytes ~page =
  let first, last, psize = page_range ~vaddr ~bytes ~page in
  t.leaves <- t.leaves - ((last - first) / psize);
  match page with
  | Page.Huge ->
      for_each_span t ~first ~last ~span:pdpt_span ~psize (fun base n ->
          bump t.pdpts base (-n))
  | Page.Large ->
      for_each_span t ~first ~last ~span:pd_span ~psize (fun base n ->
          bump t.pds base (-n);
          if not (existed t.pds base) then
            bump t.pdpts (Page.align_down base pdpt_span) (-1))
  | Page.Small ->
      for_each_span t ~first ~last ~span:pt_span ~psize (fun base n ->
          bump t.pts base (-n);
          if not (existed t.pts base) then begin
            let pd = Page.align_down base pd_span in
            bump t.pds pd (-1);
            if not (existed t.pds pd) then
              bump t.pdpts (Page.align_down base pdpt_span) (-1)
          end)

let leaf_entries t = t.leaves

let table_pages t =
  Hashtbl.length t.pts + Hashtbl.length t.pds + Hashtbl.length t.pdpts

let table_bytes t = table_pages t * 4096

let op_count t = t.ops

(* ------------------------------------------------------------------ *)
(* Reference implementation: the original one-loop-iteration-per-page
   walk, retained verbatim for property testing against the
   closed-form span arithmetic above.                                  *)

let for_each_page t ~vaddr ~bytes ~page f =
  let first, last, psize = page_range ~vaddr ~bytes ~page in
  let n = (last - first) / psize in
  for i = 0 to n - 1 do
    t.ops <- t.ops + 1;
    f (first + (i * psize))
  done

let map_reference t ~vaddr ~bytes ~page =
  if bytes <= 0 then invalid_arg "Page_table.map_reference: non-positive size";
  for_each_page t ~vaddr ~bytes ~page (fun addr ->
      t.leaves <- t.leaves + 1;
      match page with
      | Page.Huge -> bump t.pdpts (Page.align_down addr pdpt_span) 1
      | Page.Large ->
          let pd = Page.align_down addr pd_span in
          if not (existed t.pds pd) then
            bump t.pdpts (Page.align_down addr pdpt_span) 1;
          bump t.pds pd 1
      | Page.Small ->
          let pt = Page.align_down addr pt_span in
          if not (existed t.pts pt) then begin
            let pd = Page.align_down addr pd_span in
            if not (existed t.pds pd) then
              bump t.pdpts (Page.align_down addr pdpt_span) 1;
            bump t.pds pd 1
          end;
          bump t.pts pt 1)

let unmap_reference t ~vaddr ~bytes ~page =
  for_each_page t ~vaddr ~bytes ~page (fun addr ->
      t.leaves <- t.leaves - 1;
      match page with
      | Page.Huge -> bump t.pdpts (Page.align_down addr pdpt_span) (-1)
      | Page.Large ->
          let pd = Page.align_down addr pd_span in
          bump t.pds pd (-1);
          if not (existed t.pds pd) then
            bump t.pdpts (Page.align_down addr pdpt_span) (-1)
      | Page.Small ->
          let pt = Page.align_down addr pt_span in
          bump t.pts pt (-1);
          if not (existed t.pts pt) then begin
            let pd = Page.align_down addr pd_span in
            bump t.pds pd (-1);
            if not (existed t.pds pd) then
              bump t.pdpts (Page.align_down addr pdpt_span) (-1)
          end)
