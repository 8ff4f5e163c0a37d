(* Tests for the memory-management substrate: pages, the buddy
   allocator, physical memory, policies and address-space behaviour
   under the three kernels' strategies. *)

open Mk_engine
open Mk_mem

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let kib = 1024
let mib = 1024 * kib
let gib = 1024 * mib

(* ------------------------------------------------------------------ *)
(* Page *)

let test_page_bytes () =
  check_int "4K" (4 * kib) (Page.bytes Page.Small);
  check_int "2M" (2 * mib) (Page.bytes Page.Large);
  check_int "1G" gib (Page.bytes Page.Huge)

let test_page_align () =
  check_int "align up" 8192 (Page.align_up 4097 4096);
  check_int "align up exact" 4096 (Page.align_up 4096 4096);
  check_int "align down" 4096 (Page.align_down 8191 4096);
  check_bool "is aligned" true (Page.is_aligned 8192 4096);
  check_bool "is not aligned" false (Page.is_aligned 8193 4096)

let test_page_count () =
  check_int "one page" 1 (Page.count ~bytes:1 Page.Small);
  check_int "exact" 2 (Page.count ~bytes:(8 * kib) Page.Small);
  check_int "round up" 3 (Page.count ~bytes:((8 * kib) + 1) Page.Small)

let test_page_best_fit () =
  check_bool "huge" true (Page.best_fit ~addr:0 ~bytes:(2 * gib) = Page.Huge);
  check_bool "large" true
    (Page.best_fit ~addr:(2 * mib) ~bytes:(4 * mib) = Page.Large);
  check_bool "misaligned falls to small" true
    (Page.best_fit ~addr:4096 ~bytes:(2 * gib) = Page.Small);
  check_bool "short falls to small" true
    (Page.best_fit ~addr:0 ~bytes:(1 * mib) = Page.Small)

let test_tlb_overhead_ordering () =
  check_bool "small worst" true
    (Page.tlb_overhead Page.Small > Page.tlb_overhead Page.Large);
  check_bool "huge best" true (Page.tlb_overhead Page.Huge = 1.0)

(* ------------------------------------------------------------------ *)
(* Buddy *)

let test_buddy_alloc_free_roundtrip () =
  let b = Buddy.create ~base:0 ~bytes:(16 * mib) in
  check_int "total" (16 * mib) (Buddy.total b);
  let a1 = Buddy.alloc b ~bytes:(1 * mib) in
  check_bool "allocated" true (a1 <> None);
  check_int "used" (1 * mib) (Buddy.used_bytes b);
  (match a1 with
  | Some addr -> Buddy.free b ~addr ~bytes:(1 * mib)
  | None -> ());
  check_int "all free again" (16 * mib) (Buddy.free_bytes b)

let test_buddy_alignment () =
  let b = Buddy.create ~base:0 ~bytes:(4 * gib) in
  match Buddy.alloc b ~bytes:gib with
  | Some addr -> check_bool "1G aligned" true (addr mod gib = 0)
  | None -> Alcotest.fail "1G alloc failed"

let test_buddy_coalescing () =
  let b = Buddy.create ~base:0 ~bytes:(8 * mib) in
  let blocks =
    List.init 8 (fun _ ->
        match Buddy.alloc b ~bytes:mib with
        | Some a -> a
        | None -> Alcotest.fail "alloc failed")
  in
  check_int "exhausted" 0 (Buddy.free_bytes b);
  List.iter (fun addr -> Buddy.free b ~addr ~bytes:mib) blocks;
  check_int "coalesced to full region" (8 * mib) (Buddy.largest_free b)

let test_buddy_fragmentation_metric () =
  let b = Buddy.create ~base:0 ~bytes:(8 * mib) in
  Alcotest.(check (float 1e-9)) "pristine" 0.0 (Buddy.fragmentation b);
  (* Allocate everything, free alternating blocks: free space exists
     but the largest block is 1 MiB. *)
  let blocks = List.init 8 (fun _ -> Option.get (Buddy.alloc b ~bytes:mib)) in
  List.iteri (fun i addr -> if i mod 2 = 0 then Buddy.free b ~addr ~bytes:mib) blocks;
  check_int "half free" (4 * mib) (Buddy.free_bytes b);
  check_int "largest stuck at 1M" mib (Buddy.largest_free b);
  check_bool "fragmented" true (Buddy.fragmentation b > 0.5)

let test_buddy_oversize_rejected () =
  let b = Buddy.create ~base:0 ~bytes:(4 * mib) in
  check_bool "oversize" true (Buddy.alloc b ~bytes:(8 * mib) = None)

let test_buddy_double_free_rejected () =
  let b = Buddy.create ~base:0 ~bytes:(4 * mib) in
  let addr = Option.get (Buddy.alloc b ~bytes:mib) in
  Buddy.free b ~addr ~bytes:mib;
  check_bool "double free raises" true
    (try
       Buddy.free b ~addr ~bytes:mib;
       false
     with Invalid_argument _ -> true)

let test_buddy_non_pow2_region () =
  (* 3 MiB region is fully usable. *)
  let b = Buddy.create ~base:0 ~bytes:(3 * mib) in
  check_int "full capacity" (3 * mib) (Buddy.free_bytes b);
  let a1 = Buddy.alloc b ~bytes:(2 * mib) in
  let a2 = Buddy.alloc b ~bytes:mib in
  check_bool "both served" true (a1 <> None && a2 <> None)

let buddy_conservation_qcheck =
  QCheck.Test.make ~name:"buddy conserves bytes across random ops" ~count:100
    QCheck.(list (int_range 0 9))
    (fun ops ->
      let b = Buddy.create ~base:0 ~bytes:(32 * mib) in
      let live = ref [] in
      List.iter
        (fun op ->
          if op < 6 then begin
            (* alloc of 2^op pages *)
            let bytes = 4096 * (1 lsl op) in
            match Buddy.alloc b ~bytes with
            | Some addr -> live := (addr, bytes) :: !live
            | None -> ()
          end
          else begin
            match !live with
            | (addr, bytes) :: rest ->
                Buddy.free b ~addr ~bytes;
                live := rest
            | [] -> ()
          end)
        ops;
      let live_bytes =
        List.fold_left
          (fun acc (_, bytes) ->
            (* buddy rounds to pow2 pages, all our sizes already are *)
            acc + bytes)
          0 !live
      in
      Buddy.free_bytes b + live_bytes = 32 * mib)

(* The Hashtbl-based allocator [Buddy] replaced, kept as its oracle.
   Free lists are unit-valued tables; [take_any] picks the smallest
   free index, read here through [Sorted.keys] (the original folded
   over every binding for the minimum). *)
module Buddy_reference = struct
  let base_page = 4096

  type t = {
    base : int;
    total_pages : int;
    max_order : int;
    free_lists : (int, unit) Hashtbl.t array;
    allocated : (int, int) Hashtbl.t;
    mutable free_pages : int;
  }

  let order_of_pages pages =
    let rec go o = if 1 lsl o >= pages then o else go (o + 1) in
    go 0

  let create ~base ~bytes =
    let total_pages = bytes / base_page in
    let max_order = order_of_pages total_pages in
    let t =
      {
        base;
        total_pages;
        max_order;
        free_lists = Array.init (max_order + 1) (fun _ -> Hashtbl.create 16);
        allocated = Hashtbl.create 64;
        free_pages = 0;
      }
    in
    let rec seed idx remaining =
      if remaining > 0 then begin
        let rec pick o =
          let sz = 1 lsl o in
          if sz <= remaining && idx mod sz = 0 then o
          else if o = 0 then 0
          else pick (o - 1)
        in
        let o = pick max_order in
        Hashtbl.replace t.free_lists.(o) idx ();
        t.free_pages <- t.free_pages + (1 lsl o);
        seed (idx + (1 lsl o)) (remaining - (1 lsl o))
      end
    in
    seed 0 total_pages;
    t

  let free_bytes t = t.free_pages * base_page

  let take_any tbl =
    match Mk_analysis.Sorted.keys tbl with [] -> None | k :: _ -> Some k

  let rec split_down t o target =
    if o > target then begin
      match take_any t.free_lists.(o) with
      | None -> ()
      | Some idx ->
          Hashtbl.remove t.free_lists.(o) idx;
          let half = 1 lsl (o - 1) in
          Hashtbl.replace t.free_lists.(o - 1) idx ();
          Hashtbl.replace t.free_lists.(o - 1) (idx + half) ();
          split_down t (o - 1) target
    end

  let alloc t ~bytes =
    let pages = (bytes + base_page - 1) / base_page in
    let order = order_of_pages pages in
    if order > t.max_order then None
    else begin
      let rec find o =
        if o > t.max_order then None
        else if Hashtbl.length t.free_lists.(o) > 0 then Some o
        else find (o + 1)
      in
      match find order with
      | None -> None
      | Some o -> (
          split_down t o order;
          match take_any t.free_lists.(order) with
          | None -> None
          | Some idx ->
              Hashtbl.remove t.free_lists.(order) idx;
              Hashtbl.replace t.allocated idx order;
              t.free_pages <- t.free_pages - (1 lsl order);
              Some (t.base + (idx * base_page)))
    end

  let rec coalesce t idx order =
    if order < t.max_order then begin
      let size = 1 lsl order in
      let buddy = idx lxor size in
      if buddy + size <= t.total_pages && Hashtbl.mem t.free_lists.(order) buddy
      then begin
        Hashtbl.remove t.free_lists.(order) buddy;
        coalesce t (min idx buddy) (order + 1)
      end
      else Hashtbl.replace t.free_lists.(order) idx ()
    end
    else Hashtbl.replace t.free_lists.(order) idx ()

  let free t ~addr ~bytes =
    let idx = (addr - t.base) / base_page in
    let order = order_of_pages ((bytes + base_page - 1) / base_page) in
    Hashtbl.remove t.allocated idx;
    t.free_pages <- t.free_pages + (1 lsl order);
    coalesce t idx order

  let largest_free t =
    let rec go o =
      if o < 0 then 0
      else if Hashtbl.length t.free_lists.(o) > 0 then (1 lsl o) * base_page
      else go (o - 1)
    in
    go t.max_order
end

(* Random alloc/free sequences on a region of random (mostly
   non-power-of-two) size: after every operation both allocators must
   return the same address (or none) and agree on free bytes and the
   largest free block.  Any other choice among equal-order free blocks
   than the smallest index moves an address. *)
let buddy_matches_reference =
  QCheck.Test.make ~name:"buddy = Hashtbl reference allocator" ~count:200
    QCheck.(
      pair (int_range 1 3000)
        (list_of_size (Gen.int_range 1 120)
           (triple bool (int_range 1 (64 * 4096)) small_nat)))
    (fun (pages, ops) ->
      let bytes = pages * 4096 in
      let b = Buddy.create ~base:(1 lsl 30) ~bytes in
      let r = Buddy_reference.create ~base:(1 lsl 30) ~bytes in
      let live = ref [] in
      let agree () =
        Buddy.free_bytes b = Buddy_reference.free_bytes r
        && Buddy.largest_free b = Buddy_reference.largest_free r
      in
      List.for_all
        (fun (alloc, size, pick) ->
          if alloc || !live = [] then begin
            let got = Buddy.alloc b ~bytes:size in
            let want = Buddy_reference.alloc r ~bytes:size in
            Option.iter (fun addr -> live := (addr, size) :: !live) got;
            got = want && agree ()
          end
          else begin
            let addr, size = List.nth !live (pick mod List.length !live) in
            live := List.filter (fun (a, _) -> a <> addr) !live;
            Buddy.free b ~addr ~bytes:size;
            Buddy_reference.free r ~addr ~bytes:size;
            agree ()
          end)
        ops)

(* ------------------------------------------------------------------ *)
(* Phys *)

let numa = Mk_hw.Topology.numa (Mk_hw.Knl.topology Mk_hw.Knl.Snc4_flat)

let test_phys_capacity () =
  let p = Phys.create numa in
  check_int "ddr domain" (24 * gib) (Phys.free_bytes p ~domain:0);
  check_int "mcdram domain" (4 * gib) (Phys.free_bytes p ~domain:4)

let test_phys_alloc_free () =
  let p = Phys.create numa in
  match Phys.alloc p ~domain:4 ~bytes:gib with
  | Some block ->
      check_int "used" gib (Phys.used_bytes p ~domain:4);
      Phys.free p block;
      check_int "freed" 0 (Phys.used_bytes p ~domain:4)
  | None -> Alcotest.fail "alloc failed"

let test_phys_fragmented_caps_largest () =
  let p = Phys.create_fragmented numa ~max_block:(512 * mib) in
  check_bool "largest capped" true (Phys.largest_free p ~domain:4 <= 512 * mib);
  check_bool "1G contiguous impossible" true (Phys.alloc p ~domain:4 ~bytes:gib = None);
  (* But total capacity is intact. *)
  check_bool "capacity intact" true (Phys.free_bytes p ~domain:4 >= 4 * gib - 16 * mib)

let test_phys_reserve () =
  let p = Phys.create numa in
  Phys.reserve p ~domain:0 ~bytes:(4 * gib);
  check_int "reserved" (20 * gib) (Phys.free_bytes p ~domain:0)

let test_phys_kind_totals () =
  let p = Phys.create numa in
  check_int "mcdram total" (16 * gib)
    (Phys.free_bytes_of_kind p Mk_hw.Memory_kind.Mcdram);
  check_int "ddr total" (96 * gib) (Phys.free_bytes_of_kind p Mk_hw.Memory_kind.Ddr4)

(* ------------------------------------------------------------------ *)
(* Policy *)

let test_policy_mcdram_first_order () =
  let cands = Policy.candidates (Policy.Mcdram_first { home = 0 }) numa in
  (* All four MCDRAM domains come before any DDR domain; nearest
     MCDRAM (same quadrant: 4) first. *)
  (match cands with
  | first :: _ -> check_int "nearest mcdram first" 4 first
  | [] -> Alcotest.fail "no candidates");
  let mcdram_positions =
    List.filteri (fun _ id -> id >= 4) cands |> List.length
  in
  check_int "all eight domains" 8 (List.length cands);
  check_int "mcdram count" 4 mcdram_positions;
  let rec prefix_mcdram = function
    | [] -> 0
    | d :: rest -> if d >= 4 then 1 + prefix_mcdram rest else 0
  in
  check_int "mcdram strictly first" 4 (prefix_mcdram cands)

let test_policy_ddr_only () =
  let cands = Policy.candidates (Policy.Ddr_only { home = 0 }) numa in
  check_int "four candidates" 4 (List.length cands);
  check_bool "all ddr" true (List.for_all (fun d -> d < 4) cands)

let test_policy_strictness () =
  check_bool "bind strict" true (Policy.strict (Policy.Bind { domains = [ 0 ] }));
  check_bool "preferred not strict" false
    (Policy.strict (Policy.Preferred { domain = 0 }))

(* ------------------------------------------------------------------ *)
(* Fault cost model *)

let test_fault_costs_ordering () =
  let c = Fault.default in
  let demand =
    Fault.demand_fault_bytes c ~page:Page.Small ~bytes:(2 * mib) ~concurrency:1
  in
  let pre = Fault.prefault c ~page:Page.Large ~bytes:(2 * mib) ~zero_bytes:(4 * kib) in
  check_bool "prefault with 4K zeroing is much cheaper" true (pre * 10 < demand)

let test_fault_contention () =
  let c = Fault.default in
  let solo = Fault.demand_fault c ~page:Page.Small ~concurrency:1 in
  let crowd = Fault.demand_fault c ~page:Page.Small ~concurrency:64 in
  check_bool "contention inflates" true (crowd > solo);
  check_bool "inflation bounded" true (crowd < solo * 10)

(* ------------------------------------------------------------------ *)
(* Address space *)

let make_as strategy =
  let phys = Phys.create numa in
  ( phys,
    Address_space.create ~phys ~strategy
      ~default_policy:(Policy.Mcdram_first { home = 0 })
      () )

let make_linux_as () =
  let phys = Phys.create numa in
  ( phys,
    Address_space.create ~phys ~strategy:Address_space.linux_strategy
      ~default_policy:(Policy.Default { home = 0 })
      () )

let test_as_linux_demand_paging () =
  let _, asp = make_linux_as () in
  match Address_space.mmap asp ~bytes:(16 * mib) ~backing:Vma.Anonymous () with
  | Error `Enomem -> Alcotest.fail "linux mmap cannot fail"
  | Ok (addr, cost) ->
      check_bool "map cheap" true (cost < Units.us);
      check_int "nothing backed yet" 0 (Address_space.backed_bytes asp);
      let fault_cost = Address_space.touch asp ~addr ~bytes:(16 * mib) ~concurrency:1 in
      check_bool "faulting costs real time" true (fault_cost > 100 * Units.us);
      check_bool "backed after touch" true
        (Address_space.backed_bytes asp >= 16 * mib);
      (* Second touch is free. *)
      check_int "second touch free" 0
        (Address_space.touch asp ~addr ~bytes:(16 * mib) ~concurrency:1)

let test_as_lwk_prefault () =
  let _, asp = make_as Address_space.mckernel_strategy in
  match Address_space.mmap asp ~bytes:(16 * mib) ~backing:Vma.Anonymous () with
  | Error `Enomem -> Alcotest.fail "prefault mmap failed"
  | Ok (addr, cost) ->
      check_bool "population charged at map" true (cost > 0);
      check_bool "backed immediately" true
        (Address_space.backed_bytes asp >= 16 * mib);
      check_int "touch free" 0 (Address_space.touch asp ~addr ~bytes:(16 * mib) ~concurrency:1)

let test_as_lwk_uses_mcdram_first () =
  let _, asp = make_as Address_space.mckernel_strategy in
  (match Address_space.mmap asp ~bytes:(1 * gib) ~backing:Vma.Anonymous () with
  | Error `Enomem -> Alcotest.fail "mmap failed"
  | Ok _ -> ());
  Alcotest.(check (float 0.01)) "all in MCDRAM" 1.0 (Address_space.mcdram_fraction asp)

let test_as_lwk_spills_to_ddr () =
  (* Ask for more than the 16 GiB of MCDRAM: silent spill to DDR4. *)
  let _, asp = make_as Address_space.mckernel_strategy in
  (match Address_space.mmap asp ~bytes:(24 * gib) ~backing:Vma.Anonymous () with
  | Error `Enomem -> Alcotest.fail "spill must not fail"
  | Ok _ -> ());
  let f = Address_space.mcdram_fraction asp in
  check_bool "partial mcdram" true (f > 0.5 && f < 0.75)

let test_as_mos_quota () =
  (* A per-process MCDRAM quota (mOS upfront division) forces early
     spill even though MCDRAM is globally free. *)
  let phys = Phys.create numa in
  let strategy =
    { Address_space.mos_strategy with Address_space.mcdram_quota = Some (1 * gib) }
  in
  let asp =
    Address_space.create ~phys ~strategy
      ~default_policy:(Policy.Mcdram_first { home = 0 })
      ()
  in
  (match Address_space.mmap asp ~bytes:(4 * gib) ~backing:Vma.Anonymous () with
  | Error `Enomem -> Alcotest.fail "quota spill must not fail"
  | Ok _ -> ());
  check_bool "quota respected" true (Address_space.mcdram_bytes asp <= 1 * gib)

let test_as_mos_strict_enomem () =
  let phys = Phys.create numa in
  let asp =
    Address_space.create ~phys ~strategy:Address_space.mos_strategy
      ~default_policy:(Policy.Bind { domains = [ 4 ] })
      ()
  in
  (* Domain 4 holds 4 GiB; asking for 8 GiB bound to it must fail. *)
  match Address_space.mmap asp ~bytes:(8 * gib) ~backing:Vma.Anonymous () with
  | Error `Enomem -> ()
  | Ok _ -> Alcotest.fail "strict allocation must ENOMEM"

let test_as_mckernel_demand_fallback () =
  (* Fragment physical memory so no contiguous block exists; McKernel
     falls back to demand paging instead of failing. *)
  let phys = Phys.create_fragmented numa ~max_block:(64 * mib) in
  let asp =
    Address_space.create ~phys ~strategy:Address_space.mckernel_strategy
      ~default_policy:(Policy.Mcdram_first { home = 0 })
      ()
  in
  match Address_space.mmap asp ~bytes:(2 * gib) ~backing:Vma.Anonymous () with
  | Error `Enomem -> Alcotest.fail "fallback should succeed"
  | Ok (addr, _) ->
      (* Chunked allocation still backs what it can; the signature is
         that allocation succeeded and memory is usable. *)
      let _ = Address_space.touch asp ~addr ~bytes:(2 * gib) ~concurrency:1 in
      check_bool "fully usable" true (Address_space.backed_bytes asp >= 2 * gib)

let test_as_brk_grow_shrink_linux () =
  let _, asp = make_linux_as () in
  (match Address_space.brk asp ~delta:(10 * mib) with
  | Ok (brk1, _) ->
      check_bool "grew" true (brk1 > 0);
      let heap_cost = Address_space.touch asp ~addr:(brk1 - mib) ~bytes:mib ~concurrency:1 in
      check_bool "heap faults cost" true (heap_cost > 0)
  | Error `Enomem -> Alcotest.fail "linux brk grow failed");
  (* Shrink releases memory... *)
  (match Address_space.brk asp ~delta:(-10 * mib) with
  | Ok _ -> ()
  | Error `Enomem -> Alcotest.fail "shrink failed");
  let backed_after_shrink = Address_space.heap_mapped_bytes asp in
  check_int "heap released" 0 backed_after_shrink;
  (* ...so regrowing and touching faults again. *)
  (match Address_space.brk asp ~delta:(10 * mib) with
  | Ok (brk2, _) ->
      let refault =
        Address_space.touch asp ~addr:(brk2 - (10 * mib)) ~bytes:(10 * mib)
          ~concurrency:1
      in
      check_bool "linux refaults after shrink/grow" true (refault > 0)
  | Error `Enomem -> Alcotest.fail "regrow failed")

(* The Linux brk shrink frees heap blocks newest-first but leaves the
   survivors reversed, so the next shrink starts from the oldest block
   (ROADMAP item 2).  Rank 0 of a 64-rank Linux node replaying Lulesh
   on every rank pins the resulting order: the fix moves these figures
   and must update them along with the 12 lulesh/linux digests. *)
let test_as_brk_shrink_order_lulesh () =
  let lulesh = Mk_apps.Lulesh.app in
  let node =
    Mk_kernel.Node.boot ~os:(Mk_cluster.Scenario.linux.Mk_cluster.Scenario.make ())
      ~ranks:64 ~threads_per_rank:lulesh.Mk_apps.App.threads_per_rank ~seed:42
  in
  let trace = Option.get lulesh.Mk_apps.App.trace in
  let backed iteration =
    let ops = trace ~nodes:1 ~iteration in
    for rank = 0 to 63 do
      ignore (Mk_kernel.Node.run_ops node ~rank ops)
    done;
    Address_space.backed_bytes (Mk_kernel.Node.address_space node ~rank:0)
  in
  Alcotest.(check (list int))
    "rank 0 backed bytes after setup and iterations 0-3"
    [ 267_001_856; 264_552_448; 263_409_664; 263_409_664; 266_846_208 ]
    (List.map backed [ -1; 0; 1; 2; 3 ])

(* A shrink frees what it frees: on a heap of 256 one-MiB blocks,
   releasing one MiB must not walk, copy or rebuild the rest. *)
let test_as_brk_shrink_alloc_budget () =
  if Sys.backend_type <> Sys.Native then Alcotest.skip ();
  let _, asp = make_linux_as () in
  let grow_and_touch bytes =
    match Address_space.brk asp ~delta:bytes with
    | Ok (top, _) ->
        let rec touch off =
          if off < bytes then begin
            ignore (Address_space.touch asp ~addr:(top - bytes + off) ~bytes:mib ~concurrency:1);
            touch (off + mib)
          end
        in
        touch 0
    | Error `Enomem -> Alcotest.fail "linux brk grow failed"
  in
  grow_and_touch (256 * mib);
  let shrinks = 100 and words = ref 0.0 in
  for _ = 1 to shrinks do
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (Address_space.brk asp ~delta:(-mib)));
    words := !words +. (Gc.minor_words () -. before);
    grow_and_touch mib
  done;
  check_int "heap still backed" (256 * mib) (Address_space.backed_bytes asp);
  let per_shrink = !words /. float_of_int shrinks in
  if per_shrink > 64.0 then
    Alcotest.failf "%.1f words per one-block brk shrink > 64" per_shrink

let test_as_brk_lwk_ignores_shrink () =
  let _, asp = make_as Address_space.mckernel_strategy in
  (match Address_space.brk asp ~delta:(10 * mib) with
  | Ok _ -> ()
  | Error `Enomem -> Alcotest.fail "grow failed");
  let mapped = Address_space.heap_mapped_bytes asp in
  check_bool "mapped at least 10M" true (mapped >= 10 * mib);
  (match Address_space.brk asp ~delta:(-10 * mib) with
  | Ok _ -> ()
  | Error `Enomem -> Alcotest.fail "shrink failed");
  check_int "still mapped" mapped (Address_space.heap_mapped_bytes asp);
  (* Regrow is the cheap fast path: no new physical allocation. *)
  match Address_space.brk asp ~delta:(10 * mib) with
  | Ok (_, cost) -> check_bool "fast regrow" true (cost < Units.us)
  | Error `Enomem -> Alcotest.fail "regrow failed"

let test_as_brk_lwk_2m_alignment () =
  let _, asp = make_as Address_space.mckernel_strategy in
  (match Address_space.brk asp ~delta:100 with
  | Ok _ -> ()
  | Error `Enomem -> Alcotest.fail "grow failed");
  (* Physical growth is in 2M increments even for a 100-byte request. *)
  check_int "2M growth granularity" (2 * mib) (Address_space.heap_mapped_bytes asp)

let test_as_brk_stats () =
  let _, asp = make_as Address_space.mckernel_strategy in
  ignore (Address_space.brk asp ~delta:0);
  ignore (Address_space.brk asp ~delta:0);
  ignore (Address_space.brk asp ~delta:(5 * mib));
  ignore (Address_space.brk asp ~delta:(-1 * mib));
  let stats = Address_space.stats asp in
  check_int "queries" 2 stats.Address_space.brk_queries;
  check_int "grows" 1 stats.Address_space.brk_grows;
  check_int "shrinks" 1 stats.Address_space.brk_shrinks;
  check_int "cumulative growth" (5 * mib) stats.Address_space.cumulative_heap_growth;
  check_int "peak" (5 * mib) stats.Address_space.heap_peak

let test_as_large_pages_lower_tlb_factor () =
  let _, lwk = make_as Address_space.mckernel_strategy in
  let _, lin = make_linux_as () in
  (match Address_space.mmap lwk ~bytes:(1 * gib) ~backing:Vma.Anonymous () with
  | Ok _ -> ()
  | Error `Enomem -> Alcotest.fail "lwk mmap");
  (match Address_space.mmap lin ~bytes:(1 * gib) ~backing:Vma.Anonymous () with
  | Ok (addr, _) -> ignore (Address_space.touch lin ~addr ~bytes:(1 * gib) ~concurrency:1)
  | Error `Enomem -> Alcotest.fail "linux mmap");
  check_bool "lwk tlb factor at or below linux" true
    (Address_space.tlb_factor lwk <= Address_space.tlb_factor lin)

let test_as_munmap_returns_memory () =
  let phys, asp = make_as Address_space.mckernel_strategy in
  let free_before = Phys.free_bytes_of_kind phys Mk_hw.Memory_kind.Mcdram in
  (match Address_space.mmap asp ~bytes:(1 * gib) ~backing:Vma.Anonymous () with
  | Ok (addr, _) ->
      check_bool "memory taken" true
        (Phys.free_bytes_of_kind phys Mk_hw.Memory_kind.Mcdram < free_before);
      ignore (Address_space.munmap asp ~addr);
      check_int "memory returned" free_before
        (Phys.free_bytes_of_kind phys Mk_hw.Memory_kind.Mcdram)
  | Error `Enomem -> Alcotest.fail "mmap failed")


(* ------------------------------------------------------------------ *)
(* Page tables *)

let test_pgtbl_walk_levels () =
  check_int "4K walks 4 levels" 4 (Page_table.walk_levels Page.Small);
  check_int "2M walks 3" 3 (Page_table.walk_levels Page.Large);
  check_int "1G walks 2" 2 (Page_table.walk_levels Page.Huge)

let test_pgtbl_leaf_counts () =
  let pt = Page_table.create () in
  Page_table.map pt ~vaddr:0 ~bytes:(8 * mib) ~page:Page.Small;
  check_int "2048 4K leaves" 2048 (Page_table.leaf_entries pt);
  Page_table.map pt ~vaddr:(1 * gib) ~bytes:(8 * mib) ~page:Page.Large;
  check_int "plus 4 2M leaves" 2052 (Page_table.leaf_entries pt)

let test_pgtbl_footprint_by_page_size () =
  (* Mapping 1 GiB: 4K pages need 512 page tables + 1 PD + 1 PDPT;
     2M pages need 1 PD + 1 PDPT; a 1G page needs just the PDPT. *)
  let footprint page =
    let pt = Page_table.create () in
    Page_table.map pt ~vaddr:0 ~bytes:gib ~page;
    Page_table.table_pages pt
  in
  check_int "4K structures" 514 (footprint Page.Small);
  check_int "2M structures" 2 (footprint Page.Large);
  check_int "1G structures" 1 (footprint Page.Huge)

let test_pgtbl_map_unmap_roundtrip () =
  let pt = Page_table.create () in
  Page_table.map pt ~vaddr:0 ~bytes:(16 * mib) ~page:Page.Small;
  Page_table.unmap pt ~vaddr:0 ~bytes:(16 * mib) ~page:Page.Small;
  check_int "no leaves" 0 (Page_table.leaf_entries pt);
  check_int "no tables" 0 (Page_table.table_pages pt)

let test_pgtbl_shared_intermediates () =
  (* Two small mappings inside the same 2M region share one PT. *)
  let pt = Page_table.create () in
  Page_table.map pt ~vaddr:0 ~bytes:(4 * kib) ~page:Page.Small;
  Page_table.map pt ~vaddr:(64 * kib) ~bytes:(4 * kib) ~page:Page.Small;
  check_int "one PT + PD + PDPT" 3 (Page_table.table_pages pt)

let test_pgtbl_address_space_integration () =
  (* An LWK space mapping 1 GiB needs one huge-page translation;
     Linux covers the same gigabyte with hundreds of THP entries (and
     its 4K heap with hundreds of thousands). *)
  let leaves strategy policy =
    let phys = Phys.create numa in
    let asp = Address_space.create ~phys ~strategy ~default_policy:policy () in
    (match Address_space.mmap asp ~bytes:gib ~backing:Vma.Anonymous () with
    | Ok (addr, _) -> ignore (Address_space.touch asp ~addr ~bytes:gib ~concurrency:1)
    | Error `Enomem -> Alcotest.fail "mmap");
    Page_table.leaf_entries (Address_space.page_table asp)
  in
  let lwk = leaves Address_space.mckernel_strategy (Policy.Mcdram_first { home = 0 }) in
  let lin = leaves Address_space.linux_strategy (Policy.Default { home = 0 }) in
  check_int "one 1G translation" 1 lwk;
  check_bool "linux needs hundreds" true (lin >= 512)

(* A strict mmap that cannot be fully backed rolls back everything
   it took: every block goes back and no translation is left behind. *)
let test_pgtbl_failed_strict_mmap () =
  let phys = Phys.create numa in
  let free_total () =
    Phys.free_bytes_of_kind phys Mk_hw.Memory_kind.Ddr4
    + Phys.free_bytes_of_kind phys Mk_hw.Memory_kind.Mcdram
  in
  let free_before = free_total () in
  let asp =
    Address_space.create ~phys ~strategy:Address_space.mos_strategy
      ~default_policy:(Policy.Mcdram_first { home = 0 })
      ()
  in
  (match Address_space.mmap asp ~bytes:(200 * gib) ~backing:Vma.Anonymous () with
  | Error `Enomem -> ()
  | Ok _ -> Alcotest.fail "200 GiB must ENOMEM");
  check_int "nothing backed" 0 (Address_space.backed_bytes asp);
  check_int "every block returned" free_before (free_total ());
  let pt = Address_space.page_table asp in
  check_int "no leaf entries" 0 (Page_table.leaf_entries pt);
  check_int "no table pages" 0 (Page_table.table_pages pt)

let test_pgtbl_closed_form_op_count () =
  (* The acceptance bound for the closed-form span arithmetic: a
     4 GiB 4K mapping is 1M pages but only 2048 leaf tables, and the
     work must scale with the tables, not the pages. *)
  let pt = Page_table.create () in
  Page_table.map pt ~vaddr:0 ~bytes:(4 * gib) ~page:Page.Small;
  check_int "a million leaves" (1024 * 1024) (Page_table.leaf_entries pt);
  check_bool "map cost is O(leaf tables), not O(pages)" true
    (Page_table.op_count pt < 5_000);
  Page_table.unmap pt ~vaddr:0 ~bytes:(4 * gib) ~page:Page.Small;
  check_int "clean" 0 (Page_table.table_pages pt);
  check_bool "unmap too" true (Page_table.op_count pt < 10_000)

(* The executable specification: random (overlapping, boundary-
   crossing) map/unmap sequences through the closed-form code and the
   per-page reference walk must agree on every accounting observable
   after every operation. *)
let pgtbl_closed_form_matches_reference =
  QCheck.Test.make ~name:"closed-form page table = per-page reference"
    ~count:60
    QCheck.(list_of_size (Gen.int_range 1 12)
        (triple (int_range 0 2) (int_range 0 99) (int_range 0 99)))
    (fun ops ->
      let opt = Page_table.create () in
      let spec = Page_table.create () in
      let mapped = ref [] in
      let agree () =
        Page_table.leaf_entries opt = Page_table.leaf_entries spec
        && Page_table.table_pages opt = Page_table.table_pages spec
        && Page_table.table_bytes opt = Page_table.table_bytes spec
      in
      List.for_all
        (fun (psel, a, b) ->
          (match (!mapped, b mod 3) with
          | (vaddr, bytes, page) :: rest, 0 ->
              Page_table.unmap opt ~vaddr ~bytes ~page;
              Page_table.unmap_reference spec ~vaddr ~bytes ~page;
              mapped := rest
          | _ ->
              let page =
                match psel with
                | 0 -> Page.Small
                | 1 -> Page.Large
                | _ -> Page.Huge
              in
              let unit_ = Page.bytes page in
              (* Offsets and lengths in units of the page size, spread
                 far enough to straddle 2M/1G/512G span boundaries and
                 to overlap earlier mappings. *)
              let vaddr = a * 61 * unit_ in
              let bytes = (1 + (b mod 40)) * 37 * unit_ in
              Page_table.map opt ~vaddr ~bytes ~page;
              Page_table.map_reference spec ~vaddr ~bytes ~page;
              mapped := (vaddr, bytes, page) :: !mapped);
          agree ())
        ops)

let pgtbl_conservation =
  QCheck.Test.make ~name:"page table map/unmap conserves" ~count:100
    QCheck.(pair (int_range 1 64) (int_range 0 2))
    (fun (chunks, psel) ->
      let page = match psel with 0 -> Page.Small | 1 -> Page.Large | _ -> Page.Huge in
      let pt = Page_table.create () in
      let size = Page.bytes page in
      for i = 0 to chunks - 1 do
        Page_table.map pt ~vaddr:(i * size) ~bytes:size ~page
      done;
      for i = 0 to chunks - 1 do
        Page_table.unmap pt ~vaddr:(i * size) ~bytes:size ~page
      done;
      Page_table.leaf_entries pt = 0 && Page_table.table_pages pt = 0)


(* Model-based property: random op sequences against a reference
   model, under each kernel strategy.  Invariants: physical memory is
   conserved, the break tracks brk deltas exactly, backed bytes never
   exceed physical usage, and MCDRAM never exceeds its quota. *)
let address_space_model_based =
  QCheck.Test.make ~name:"address space vs reference model" ~count:60
    QCheck.(pair (int_range 0 2) (list (int_range 0 5)))
    (fun (strat_i, ops) ->
      let strategy, policy =
        match strat_i with
        | 0 -> (Address_space.linux_strategy, Policy.Default { home = 0 })
        | 1 -> (Address_space.mckernel_strategy, Policy.Mcdram_first { home = 0 })
        | _ ->
            ( { Address_space.mos_strategy with
                Address_space.mcdram_quota = Some (256 * mib) },
              Policy.Mcdram_first { home = 0 } )
      in
      let phys = Phys.create numa in
      let total_phys =
        Phys.free_bytes_of_kind phys Mk_hw.Memory_kind.Mcdram
        + Phys.free_bytes_of_kind phys Mk_hw.Memory_kind.Ddr4
      in
      let asp = Address_space.create ~phys ~strategy ~default_policy:policy () in
      let model_brk = ref (Address_space.sbrk_query asp) in
      let mapped = ref [] in
      let ok = ref true in
      List.iteri
        (fun i op ->
          match op with
          | 0 | 1 -> (
              (* mmap of a pseudo-random size *)
              let bytes = (1 + ((i * 7) mod 64)) * mib in
              match Address_space.mmap asp ~bytes ~backing:Vma.Anonymous () with
              | Ok (addr, _) -> mapped := (addr, bytes) :: !mapped
              | Error `Enomem -> ())
          | 2 -> (
              (* munmap the newest mapping *)
              match !mapped with
              | (addr, _) :: rest ->
                  ignore (Address_space.munmap asp ~addr);
                  mapped := rest
              | [] -> ())
          | 3 -> (
              let delta = (1 + ((i * 3) mod 8)) * mib in
              match Address_space.brk asp ~delta with
              | Ok (b, _) ->
                  model_brk := !model_brk + delta;
                  ok := !ok && b = !model_brk
              | Error `Enomem -> ())
          | 4 -> (
              let delta = -((1 + (i mod 4)) * mib) in
              let expected =
                max (!model_brk + delta)
                  (Address_space.sbrk_query asp - (Address_space.sbrk_query asp - 16 * mib))
              in
              ignore expected;
              match Address_space.brk asp ~delta with
              | Ok (b, _) ->
                  (* clamped at the heap base *)
                  model_brk := max (16 * mib) (!model_brk + delta);
                  ok := !ok && b = !model_brk
              | Error `Enomem -> ())
          | _ ->
              ignore (Address_space.touch_heap asp ~concurrency:1);
              List.iter
                (fun (addr, bytes) ->
                  ignore (Address_space.touch asp ~addr ~bytes ~concurrency:1))
                !mapped)
        ops;
      (* Conservation: free + backed-by-this-space <= total (the heap
         keeps whole increments, so allow the rounding slack). *)
      let free =
        Phys.free_bytes_of_kind phys Mk_hw.Memory_kind.Mcdram
        + Phys.free_bytes_of_kind phys Mk_hw.Memory_kind.Ddr4
      in
      let used = total_phys - free in
      let backed = Address_space.backed_bytes asp in
      !ok
      && backed <= used
      && used <= backed + (2 * gib)
      && (match strategy.Address_space.mcdram_quota with
         | Some q -> Address_space.mcdram_bytes asp <= q
         | None -> true))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let () =
  Alcotest.run "mk_mem"
    [
      ( "page",
        [
          Alcotest.test_case "bytes" `Quick test_page_bytes;
          Alcotest.test_case "alignment" `Quick test_page_align;
          Alcotest.test_case "count" `Quick test_page_count;
          Alcotest.test_case "best fit" `Quick test_page_best_fit;
          Alcotest.test_case "tlb ordering" `Quick test_tlb_overhead_ordering;
        ] );
      ( "buddy",
        Alcotest.test_case "alloc/free roundtrip" `Quick
          test_buddy_alloc_free_roundtrip
        :: Alcotest.test_case "alignment" `Quick test_buddy_alignment
        :: Alcotest.test_case "coalescing" `Quick test_buddy_coalescing
        :: Alcotest.test_case "fragmentation" `Quick test_buddy_fragmentation_metric
        :: Alcotest.test_case "oversize" `Quick test_buddy_oversize_rejected
        :: Alcotest.test_case "double free" `Quick test_buddy_double_free_rejected
        :: Alcotest.test_case "non-pow2 region" `Quick test_buddy_non_pow2_region
        :: qsuite [ buddy_conservation_qcheck; buddy_matches_reference ] );
      ( "phys",
        [
          Alcotest.test_case "capacity" `Quick test_phys_capacity;
          Alcotest.test_case "alloc/free" `Quick test_phys_alloc_free;
          Alcotest.test_case "fragmented" `Quick test_phys_fragmented_caps_largest;
          Alcotest.test_case "reserve" `Quick test_phys_reserve;
          Alcotest.test_case "kind totals" `Quick test_phys_kind_totals;
        ] );
      ( "policy",
        [
          Alcotest.test_case "mcdram first order" `Quick
            test_policy_mcdram_first_order;
          Alcotest.test_case "ddr only" `Quick test_policy_ddr_only;
          Alcotest.test_case "strictness" `Quick test_policy_strictness;
        ] );
      ( "fault",
        [
          Alcotest.test_case "cost ordering" `Quick test_fault_costs_ordering;
          Alcotest.test_case "contention" `Quick test_fault_contention;
        ] );
      ( "page_table",
        Alcotest.test_case "walk levels" `Quick test_pgtbl_walk_levels
        :: Alcotest.test_case "leaf counts" `Quick test_pgtbl_leaf_counts
        :: Alcotest.test_case "footprint by page size" `Quick
             test_pgtbl_footprint_by_page_size
        :: Alcotest.test_case "map/unmap roundtrip" `Quick
             test_pgtbl_map_unmap_roundtrip
        :: Alcotest.test_case "shared intermediates" `Quick
             test_pgtbl_shared_intermediates
        :: Alcotest.test_case "address space integration" `Quick
             test_pgtbl_address_space_integration
        :: Alcotest.test_case "closed-form op count" `Quick
             test_pgtbl_closed_form_op_count
        :: qsuite [ pgtbl_conservation; pgtbl_closed_form_matches_reference ]
        @ [
            Alcotest.test_case "failed strict mmap leaves no entries" `Quick
              test_pgtbl_failed_strict_mmap;
          ] );
      ( "address_space",
        [
          Alcotest.test_case "linux demand paging" `Quick test_as_linux_demand_paging;
          Alcotest.test_case "lwk prefault" `Quick test_as_lwk_prefault;
          Alcotest.test_case "mcdram first" `Quick test_as_lwk_uses_mcdram_first;
          Alcotest.test_case "mcdram spill" `Quick test_as_lwk_spills_to_ddr;
          Alcotest.test_case "mos quota" `Quick test_as_mos_quota;
          Alcotest.test_case "mos strict enomem" `Quick test_as_mos_strict_enomem;
          Alcotest.test_case "mckernel demand fallback" `Quick
            test_as_mckernel_demand_fallback;
          Alcotest.test_case "linux brk shrink/regrow" `Quick
            test_as_brk_grow_shrink_linux;
          Alcotest.test_case "lwk ignores shrink" `Quick test_as_brk_lwk_ignores_shrink;
          Alcotest.test_case "lwk 2M heap granularity" `Quick
            test_as_brk_lwk_2m_alignment;
          Alcotest.test_case "brk stats" `Quick test_as_brk_stats;
          Alcotest.test_case "tlb factor" `Quick test_as_large_pages_lower_tlb_factor;
          Alcotest.test_case "munmap returns memory" `Quick
            test_as_munmap_returns_memory;
        ]
        @ qsuite [ address_space_model_based ]
        @ [
            Alcotest.test_case "linux brk shrink order (lulesh)" `Quick
              test_as_brk_shrink_order_lulesh;
            Alcotest.test_case "brk shrink allocation budget" `Quick
              test_as_brk_shrink_alloc_budget;
          ] );
    ]
