type region = { buddy : Buddy.t; base : int; limit : int }

type t = { numa : Mk_hw.Numa.t; regions : region list array }

(* Physical address map: domain d occupies a 1 TiB window starting at
   d * 1 TiB, so blocks carry globally unique addresses. *)
let domain_window = 1 lsl 40

let region_of ~base ~bytes = { buddy = Buddy.create ~base ~bytes; base; limit = base + bytes }

let create numa =
  let regions =
    Array.init (Mk_hw.Numa.count numa) (fun d ->
        let cap = Mk_hw.Numa.capacity numa d in
        [ region_of ~base:(d * domain_window) ~bytes:cap ])
  in
  { numa; regions }

let create_fragmented numa ~max_block =
  if max_block <= 0 then invalid_arg "Phys.create_fragmented: max_block must be positive";
  let regions =
    Array.init (Mk_hw.Numa.count numa) (fun d ->
        let cap = Mk_hw.Numa.capacity numa d in
        let rec build offset remaining acc =
          if remaining <= 0 then List.rev acc
          else begin
            let bytes = Int.min max_block remaining in
            let base = (d * domain_window) + offset in
            (* Leave a 4K gap between regions so the buddy allocators
               cannot coalesce across them. *)
            build (offset + bytes + 4096) (remaining - bytes)
              (region_of ~base ~bytes :: acc)
          end
        in
        build 0 cap [])
  in
  { numa; regions }

let check_domain t d =
  if d < 0 || d >= Array.length t.regions then
    invalid_arg (Printf.sprintf "Phys: bad domain %d" d)

let reserve t ~domain ~bytes =
  check_domain t domain;
  (* Model memory withheld from the allocator by carving it out in
     page-sized allocations that are never freed. *)
  let rec take remaining regions =
    if remaining > 0 then
      match regions with
      | [] -> invalid_arg "Phys.reserve: domain cannot supply reservation"
      | r :: rest -> (
          let chunk = Int.min remaining (Buddy.largest_free r.buddy) in
          if chunk = 0 then take remaining rest
          else
            match Buddy.alloc r.buddy ~bytes:chunk with
            | Some _ -> take (remaining - chunk) regions
            | None -> take remaining rest)
  in
  take bytes t.regions.(domain)

type block = { domain : Mk_hw.Numa.id; addr : int; bytes : int }

let alloc t ~domain ~bytes =
  check_domain t domain;
  let rec try_regions = function
    | [] -> None
    | r :: rest -> (
        match Buddy.alloc r.buddy ~bytes with
        | Some addr -> Some { domain; addr; bytes }
        | None -> try_regions rest)
  in
  try_regions t.regions.(domain)

let free t block =
  check_domain t block.domain;
  let region =
    List.find_opt
      (fun r -> block.addr >= r.base && block.addr < r.limit)
      t.regions.(block.domain)
  in
  match region with
  | Some r -> Buddy.free r.buddy ~addr:block.addr ~bytes:block.bytes
  | None -> invalid_arg "Phys.free: block does not belong to this allocator"

let sum_regions t d f =
  check_domain t d;
  List.fold_left (fun acc r -> acc + f r.buddy) 0 t.regions.(d)

let free_bytes t ~domain = sum_regions t domain Buddy.free_bytes
let used_bytes t ~domain = sum_regions t domain Buddy.used_bytes

let largest_free t ~domain =
  check_domain t domain;
  List.fold_left (fun acc r -> Int.max acc (Buddy.largest_free r.buddy)) 0
    t.regions.(domain)

let free_bytes_of_kind t kind =
  List.fold_left
    (fun acc (d : Mk_hw.Numa.domain) ->
      if Mk_hw.Memory_kind.equal d.kind kind then acc + free_bytes t ~domain:d.id
      else acc)
    0 (Mk_hw.Numa.domains t.numa)

let numa t = t.numa
