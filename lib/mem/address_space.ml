open Mk_engine

type strategy = {
  prefault : bool;
  heap_prefault : bool;
  max_page : Page.size;
  thp : bool;
  heap_align : int;
  heap_increment : int;
  heap_ignore_shrink : bool;
  heap_zero_first_4k_only : bool;
  demand_fallback : bool;
  strict_physical : bool;
  mcdram_quota : int option;
}

let linux_strategy =
  {
    prefault = false;
    heap_prefault = false;
    max_page = Page.Large;
    thp = true;
    heap_align = Page.bytes Page.Small;
    heap_increment = Page.bytes Page.Small;
    heap_ignore_shrink = false;
    heap_zero_first_4k_only = false;
    demand_fallback = true;
    strict_physical = false;
    mcdram_quota = None;
  }

let mckernel_strategy =
  {
    prefault = true;
    heap_prefault = true;
    max_page = Page.Huge;
    thp = false;
    heap_align = Page.bytes Page.Large;
    heap_increment = Page.bytes Page.Large;
    heap_ignore_shrink = true;
    heap_zero_first_4k_only = true;
    demand_fallback = true;
    strict_physical = false;
    mcdram_quota = None;
  }

let mos_strategy =
  {
    prefault = true;
    heap_prefault = true;
    max_page = Page.Huge;
    thp = false;
    heap_align = Page.bytes Page.Large;
    heap_increment = Page.bytes Page.Large;
    heap_ignore_shrink = true;
    heap_zero_first_4k_only = true;
    demand_fallback = false;
    strict_physical = true;
    mcdram_quota = None;
  }

type stats = {
  mutable faults : int;
  mutable fault_time : Units.time;
  mutable brk_queries : int;
  mutable brk_grows : int;
  mutable brk_shrinks : int;
  mutable brk_time : Units.time;
  mutable mmap_calls : int;
  mutable mmap_time : Units.time;
  mutable demand_fallbacks : int;
  mutable zeroed_bytes : int;
  mutable cumulative_heap_growth : int;
  mutable heap_peak : int;
}

let fresh_stats () =
  {
    faults = 0;
    fault_time = 0;
    brk_queries = 0;
    brk_grows = 0;
    brk_shrinks = 0;
    brk_time = 0;
    mmap_calls = 0;
    mmap_time = 0;
    demand_fallbacks = 0;
    zeroed_bytes = 0;
    cumulative_heap_growth = 0;
    heap_peak = 0;
  }

(* Virtual layout: heap at 16 MiB, mmap area at 128 TiB growing up. *)
let heap_base_addr = 16 * 1024 * 1024
let mmap_base_addr = 128 * (1 lsl 40)

type t = {
  phys : Phys.t;
  mutable strategy : strategy;
  costs : Fault.costs;
  default_policy : Policy.t;
  mutable vmas : Vma.t list;  (** sorted by start, excludes the heap *)
  heap : Vma.t;  (** heap VMA; [len] is the physically-mapped extent *)
  mutable brk_current : int;
  mutable heap_mapped_top : int;
  mutable mmap_next : int;
  stats : stats;
  mutable mcdram_used : int;
}

let create ~phys ~strategy ?(costs = Fault.default) ~default_policy () =
  let heap =
    {
      (Vma.make ~start:heap_base_addr ~len:1 ~backing:Vma.Heap
         ~policy:default_policy)
      with
      Vma.len = 0;
    }
  in
  {
    phys;
    strategy;
    costs;
    default_policy;
    vmas = [];
    heap;
    brk_current = heap_base_addr;
    heap_mapped_top = heap_base_addr;
    mmap_next = mmap_base_addr;
    stats = fresh_stats ();
    mcdram_used = 0;
  }

let strategy t = t.strategy
let stats t = t.stats

let set_mcdram_quota t quota = t.strategy <- { t.strategy with mcdram_quota = quota }

(* ------------------------------------------------------------------ *)
(* Physical chunk allocation                                           *)

let is_mcdram t domain =
  Mk_hw.Memory_kind.equal (Mk_hw.Numa.kind (Phys.numa t.phys) domain)
    Mk_hw.Memory_kind.Mcdram

let quota_room t =
  match t.strategy.mcdram_quota with
  | None -> max_int
  | Some q -> Int.max 0 (q - t.mcdram_used)

let pow2_floor n =
  let rec go p = if p * 2 <= n then go (p * 2) else p in
  if n < 1 then 0 else go 1

(* Allocate up to [bytes] from [domain] in power-of-two chunks no
   larger than [chunk_cap], mapping each chunk at the largest page
   size allowed.  Returns bytes obtained and per-page-size accounting
   via [record]. *)
let alloc_from_domain t vma ~domain ~bytes ~max_page =
  let mc = is_mcdram t domain in
  let budget = if mc then Int.min bytes (quota_room t) else bytes in
  let page_bytes = Page.bytes Page.Small in
  (* Chunks up to 1 GiB so huge pages stay reachable. *)
  let chunk_cap = Page.bytes Page.Huge in
  let rec go remaining obtained =
    if remaining < page_bytes then obtained
    else begin
      let largest = Phys.largest_free t.phys ~domain in
      let want = Int.min (Int.min remaining chunk_cap) largest in
      let chunk = pow2_floor want in
      if chunk < page_bytes then obtained
      else
        match Phys.alloc t.phys ~domain ~bytes:chunk with
        | None -> obtained
        | Some block ->
            Blocklist.add vma.Vma.blocks block;
            let page =
              (* The chunk is size-aligned, so page size is bounded by
                 the chunk itself and the kernel's maximum. *)
              let fits s = chunk >= Page.bytes s in
              match max_page with
              | Page.Huge when fits Page.Huge -> Page.Huge
              | Page.Huge | Page.Large ->
                  if fits Page.Large then Page.Large else Page.Small
              | Page.Small -> Page.Small
            in
            (* 2M mappings (THP promotions on Linux, native large
               pages on the LWKs) are the mechanism behind the TLB
               columns of Section IV. *)
            if page = Page.Large then
              Mk_obs.Hook.count ~subsystem:"mem" ~name:"pages_2m"
                (chunk / Page.bytes Page.Large);
            Vma.record vma ~bytes:chunk ~mcdram:(if mc then chunk else 0) ~page;
            if mc then t.mcdram_used <- t.mcdram_used + chunk;
            go (remaining - chunk) (obtained + chunk)
    end
  in
  go budget 0

(* Populate [bytes] of [vma] following [policy]'s candidate order. *)
let populate t vma ~bytes ~policy ~max_page =
  let candidates = Policy.candidates policy (Phys.numa t.phys) in
  (* When the policy's first choice is MCDRAM, bytes obtained from any
     DDR4 domain are spill — the pressure effect the MCDRAM columns
     of Section IV attribute cost to. *)
  let prefer_mc =
    match candidates with d :: _ -> is_mcdram t d | [] -> false
  in
  let rec go remaining spilled = function
    | [] -> (bytes - remaining, spilled)
    | d :: rest ->
        if remaining <= 0 then (bytes - remaining, spilled)
        else begin
          let got = alloc_from_domain t vma ~domain:d ~bytes:remaining ~max_page in
          let spilled =
            if prefer_mc && not (is_mcdram t d) then spilled + got else spilled
          in
          go (remaining - got) spilled rest
        end
  in
  let populated, spilled = go (Page.round_up bytes Page.Small) 0 candidates in
  if spilled > 0 then
    Mk_obs.Hook.count ~subsystem:"mem" ~name:"mcdram_spill_bytes" spilled;
  populated

(* ------------------------------------------------------------------ *)
(* mmap / munmap                                                       *)

let vma_setup_cost = 400

let insert_vma t vma =
  t.vmas <-
    List.sort (fun (a : Vma.t) (b : Vma.t) -> compare a.start b.start) (vma :: t.vmas)

let interior_page t ~bytes =
  (* Page size Linux THP would use for a well-aligned anonymous
     mapping: the 2M-aligned interior gets 2M pages, modelled as the
     whole region when it spans at least a few 2M pages. *)
  if t.strategy.thp && bytes >= 4 * Page.bytes Page.Large then Page.Large
  else Page.Small

let mmap t ~bytes ~backing ?policy () =
  let policy = Option.value policy ~default:t.default_policy in
  let len = Page.round_up bytes Page.Small in
  let start = Page.align_up t.mmap_next (Page.bytes Page.Huge) in
  t.mmap_next <- start + len;
  let vma = Vma.make ~start ~len ~backing ~policy in
  t.stats.mmap_calls <- t.stats.mmap_calls + 1;
  (* Shared segments are populated by whichever rank touches a page
     first — a kernel cannot prefault them for everyone.  This is the
     gap McKernel's --mpol-shm-premap closes explicitly. *)
  let prefault =
    t.strategy.prefault
    && match backing with Vma.Shared _ -> false | _ -> true
  in
  if not prefault then begin
    insert_vma t vma;
    t.stats.mmap_time <- t.stats.mmap_time + vma_setup_cost;
    Ok (start, vma_setup_cost)
  end
  else begin
    let populated = populate t vma ~bytes:len ~policy ~max_page:t.strategy.max_page in
    if populated >= len then begin
      insert_vma t vma;
      let acct = vma.Vma.acct in
      let zero = len in
      let cost =
        vma_setup_cost
        + Fault.prefault t.costs ~page:Page.Small ~bytes:0 ~zero_bytes:0
        + Fault.prefault t.costs ~page:Page.Huge ~bytes:acct.Vma.huge ~zero_bytes:0
        + Fault.prefault t.costs ~page:Page.Large ~bytes:acct.Vma.large ~zero_bytes:0
        + Fault.prefault t.costs ~page:Page.Small ~bytes:acct.Vma.small
            ~zero_bytes:zero
      in
      t.stats.zeroed_bytes <- t.stats.zeroed_bytes + zero;
      t.stats.mmap_time <- t.stats.mmap_time + cost;
      Ok (start, cost)
    end
    else if t.strategy.strict_physical || Policy.strict policy then begin
      (* Roll back: return whatever we grabbed. *)
      t.mcdram_used <- t.mcdram_used - vma.Vma.acct.Vma.mcdram;
      Blocklist.release_all vma.Vma.blocks t.phys;
      Error `Enomem
    end
    else begin
      (* McKernel: keep what we got and demand-page the rest
         best-effort from the requested domains (Section II-D3). *)
      t.stats.demand_fallbacks <- t.stats.demand_fallbacks + 1;
      Mk_obs.Hook.count ~subsystem:"mem" ~name:"demand_fallbacks" 1;
      insert_vma t vma;
      t.stats.mmap_time <- t.stats.mmap_time + vma_setup_cost;
      Ok (start, vma_setup_cost)
    end
  end

let find_vma t addr =
  if Vma.contains t.heap addr then Some t.heap
  else List.find_opt (fun v -> Vma.contains v addr) t.vmas

let munmap t ~addr =
  match List.find_opt (fun (v : Vma.t) -> v.start = addr) t.vmas with
  | None -> invalid_arg (Printf.sprintf "Address_space.munmap: no VMA at %#x" addr)
  | Some vma ->
      t.mcdram_used <- t.mcdram_used - vma.Vma.acct.Vma.mcdram;
      Blocklist.release_all vma.Vma.blocks t.phys;
      t.vmas <- List.filter (fun (v : Vma.t) -> v.start <> addr) t.vmas;
      let pages = Page.count ~bytes:vma.len Page.Small in
      (* unmap + TLB shootdown, amortised per page *)
      vma_setup_cost + (pages * 15)

(* ------------------------------------------------------------------ *)
(* brk                                                                 *)

let brk_fast_cost = 150
let brk_vma_cost = 300

let sbrk_query t = t.brk_current

let heap_used t = t.brk_current - heap_base_addr

let grow_heap_physical t target =
  (* Extend physical backing of the heap from [heap_mapped_top] to
     [target] (already increment-aligned). *)
  let need = target - t.heap_mapped_top in
  if need <= 0 then Ok 0
  else begin
    let before = t.heap.Vma.acct.Vma.backed in
    t.heap.Vma.len <- target - heap_base_addr;
    let populated =
      if t.strategy.heap_prefault then
        populate t t.heap ~bytes:need ~policy:t.heap.Vma.policy
          ~max_page:t.strategy.max_page
      else 0
    in
    if t.strategy.heap_prefault && populated < need then begin
      if t.strategy.strict_physical then begin
        (* Roll back the length; keep blocks already threaded into the
           heap accounting is complex, so release the surplus. *)
        t.heap.Vma.len <- t.heap_mapped_top - heap_base_addr;
        Error `Enomem
      end
      else begin
        t.stats.demand_fallbacks <- t.stats.demand_fallbacks + 1;
        Mk_obs.Hook.count ~subsystem:"mem" ~name:"demand_fallbacks" 1;
        t.heap_mapped_top <- target;
        Ok 0
      end
    end
    else begin
      t.heap_mapped_top <- target;
      let added = t.heap.Vma.acct.Vma.backed - before in
      let zero_bytes =
        if not t.strategy.heap_prefault then 0
        else if t.strategy.heap_zero_first_4k_only then
          (* One 4K memset per fresh 2M page (the AMG 2013 workaround,
             Section IV). *)
          Page.count ~bytes:added Page.Large * Page.bytes Page.Small
        else added
      in
      t.stats.zeroed_bytes <- t.stats.zeroed_bytes + zero_bytes;
      let acct = t.heap.Vma.acct in
      ignore acct;
      let cost =
        if t.strategy.heap_prefault then
          let page =
            if t.strategy.heap_increment >= Page.bytes Page.Large then Page.Large
            else Page.Small
          in
          Fault.prefault t.costs ~page ~bytes:added ~zero_bytes
        else 0
      in
      Ok cost
    end
  end

let brk t ~delta =
  if delta = 0 then begin
    t.stats.brk_queries <- t.stats.brk_queries + 1;
    Mk_obs.Hook.count ~subsystem:"mem" ~name:"brk_queries" 1;
    t.stats.brk_time <- t.stats.brk_time + brk_fast_cost;
    Ok (t.brk_current, brk_fast_cost)
  end
  else if delta > 0 then begin
    t.stats.brk_grows <- t.stats.brk_grows + 1;
    Mk_obs.Hook.count ~subsystem:"mem" ~name:"brk_grows" 1;
    t.stats.cumulative_heap_growth <- t.stats.cumulative_heap_growth + delta;
    let new_brk = t.brk_current + delta in
    let target =
      Page.align_up (Int.max new_brk t.heap_mapped_top) t.strategy.heap_increment
    in
    if new_brk <= t.heap_mapped_top then begin
      (* LWK fast path: the regrown range is still mapped. *)
      t.brk_current <- new_brk;
      t.stats.heap_peak <- Int.max t.stats.heap_peak (heap_used t);
      t.stats.brk_time <- t.stats.brk_time + brk_fast_cost;
      Ok (new_brk, brk_fast_cost)
    end
    else
      match grow_heap_physical t target with
      | Error `Enomem -> Error `Enomem
      | Ok populate_cost ->
          t.brk_current <- new_brk;
          t.stats.heap_peak <- Int.max t.stats.heap_peak (heap_used t);
          let cost = brk_vma_cost + populate_cost in
          t.stats.brk_time <- t.stats.brk_time + cost;
          Ok (new_brk, cost)
  end
  else begin
    t.stats.brk_shrinks <- t.stats.brk_shrinks + 1;
    Mk_obs.Hook.count ~subsystem:"mem" ~name:"brk_shrinks" 1;
    let new_brk = Int.max heap_base_addr (t.brk_current + delta) in
    t.brk_current <- new_brk;
    if t.strategy.heap_ignore_shrink then begin
      (* Memory stays mapped; only the logical break moves.  (This is
         the behaviour that makes LTP's fault-after-shrink test fail.) *)
      t.stats.brk_time <- t.stats.brk_time + brk_fast_cost;
      Ok (new_brk, brk_fast_cost)
    end
    else begin
      (* Linux: pages above the new break go back to the system, so a
         later regrow will fault and re-zero them.  Physical blocks
         are released newest-first until the target amount is out. *)
      let new_top = Page.align_up new_brk t.strategy.heap_increment in
      let released = t.heap_mapped_top - new_top in
      let cost =
        if released > 0 then begin
          let acct = t.heap.Vma.acct in
          let freed = ref 0 in
          let keep =
            List.filter
              (fun (b : Phys.block) ->
                if !freed < released then begin
                  Phys.free t.phys b;
                  freed := !freed + b.Phys.bytes;
                  let mc = is_mcdram t b.Phys.domain in
                  acct.Vma.backed <- Int.max 0 (acct.Vma.backed - b.Phys.bytes);
                  if mc then begin
                    acct.Vma.mcdram <- Int.max 0 (acct.Vma.mcdram - b.Phys.bytes);
                    t.mcdram_used <- Int.max 0 (t.mcdram_used - b.Phys.bytes)
                  end;
                  (* Heap pages under Linux are small-page backed. *)
                  acct.Vma.small <- Int.max 0 (acct.Vma.small - b.Phys.bytes);
                  false
                end
                else true)
              (Blocklist.blocks t.heap.Vma.blocks)
          in
          let bag = Blocklist.empty () in
          List.iter (Blocklist.add bag) keep;
          t.heap.Vma.blocks <- bag;
          (* Newest-first mappings go away with the freed blocks. *)
          let dropped = ref 0 in
          t.heap.Vma.mappings <-
            List.filter
              (fun (_, bytes, _) ->
                if !dropped < !freed then begin
                  dropped := !dropped + bytes;
                  false
                end
                else true)
              t.heap.Vma.mappings;
          t.heap_mapped_top <- new_top;
          t.heap.Vma.len <- Int.max 0 (new_top - heap_base_addr);
          brk_vma_cost + (Page.count ~bytes:released Page.Small * 15)
        end
        else brk_fast_cost
      in
      t.stats.brk_time <- t.stats.brk_time + cost;
      Ok (new_brk, cost)
    end
  end

(* ------------------------------------------------------------------ *)
(* Demand faulting                                                     *)

let demand_fault_range t (vma : Vma.t) ~bytes ~concurrency =
  (* Fault [bytes] of unbacked memory in [vma]: allocate physical
     pages following the VMA policy and charge per-page fault costs.
     The heap never gets THP treatment: its boundary is only 4K
     aligned under Linux (Section IV). *)
  let page =
    match vma.Vma.backing with
    | Vma.Heap -> Page.Small
    | Vma.Anonymous | Vma.Stack | Vma.Shared _ -> interior_page t ~bytes
  in
  let before = vma.Vma.acct.Vma.backed in
  let _ = populate t vma ~bytes ~policy:vma.Vma.policy ~max_page:page in
  let added = vma.Vma.acct.Vma.backed - before in
  (* Force demand-paged accounting to the fault granularity: the
     chunks were recorded at up to [page], which is already <= THP. *)
  let faulted = Int.min bytes added in
  if faulted <= 0 then 0
  else begin
    let cost = Fault.demand_fault_bytes t.costs ~page ~bytes:faulted ~concurrency in
    let pages = Page.count ~bytes:faulted page in
    t.stats.faults <- t.stats.faults + pages;
    t.stats.fault_time <- t.stats.fault_time + cost;
    t.stats.zeroed_bytes <- t.stats.zeroed_bytes + faulted;
    Mk_obs.Hook.count ~subsystem:"mem" ~name:"demand_faults" pages;
    Mk_obs.Hook.count ~subsystem:"mem" ~name:"fault_ns" cost;
    cost
  end

let touch t ~addr ~bytes ~concurrency =
  match find_vma t addr with
  | None -> 0
  | Some vma ->
      let span_end = Int.min (addr + bytes) (Vma.end_ vma) in
      let span = Int.max 0 (span_end - addr) in
      let un = Vma.unbacked vma in
      let to_fault = Int.min span un in
      if to_fault <= 0 then 0
      else demand_fault_range t vma ~bytes:to_fault ~concurrency

let premap t ~addr ~bytes =
  (* Populate without taking faults: bulk mapping and zeroing, as a
     kernel does when asked to pre-populate a region (MAP_POPULATE,
     or McKernel's --mpol-shm-premap). *)
  match find_vma t addr with
  | None -> 0
  | Some vma ->
      let span_end = Int.min (addr + bytes) (Vma.end_ vma) in
      let span = Int.max 0 (span_end - addr) in
      let to_map = Int.min span (Vma.unbacked vma) in
      if to_map <= 0 then 0
      else begin
        let page = interior_page t ~bytes:to_map in
        let before = vma.Vma.acct.Vma.backed in
        let _ = populate t vma ~bytes:to_map ~policy:vma.Vma.policy ~max_page:page in
        let added = vma.Vma.acct.Vma.backed - before in
        t.stats.zeroed_bytes <- t.stats.zeroed_bytes + added;
        Fault.prefault t.costs ~page ~bytes:added ~zero_bytes:added
      end

let touch_heap t ~concurrency =
  let heap_extent = Int.max 0 (t.brk_current - heap_base_addr) in
  if heap_extent > t.heap.Vma.len then t.heap.Vma.len <- heap_extent;
  let un = Vma.unbacked t.heap in
  if un <= 0 then 0 else demand_fault_range t t.heap ~bytes:un ~concurrency

let touch_all t ~concurrency =
  let cost = ref 0 in
  List.iter
    (fun (v : Vma.t) ->
      let un = Vma.unbacked v in
      if un > 0 then cost := !cost + demand_fault_range t v ~bytes:un ~concurrency)
    t.vmas;
  let heap_extent = Int.max 0 (t.brk_current - heap_base_addr) in
  if heap_extent > t.heap.Vma.len then t.heap.Vma.len <- heap_extent;
  let un = Vma.unbacked t.heap in
  if un > 0 then cost := !cost + demand_fault_range t t.heap ~bytes:un ~concurrency;
  !cost

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)

let all_accts t = t.heap.Vma.acct :: List.map (fun (v : Vma.t) -> v.Vma.acct) t.vmas

let backed_bytes t =
  List.fold_left (fun acc (a : Vma.acct) -> acc + a.Vma.backed) 0 (all_accts t)

let mcdram_bytes t =
  List.fold_left (fun acc (a : Vma.acct) -> acc + a.Vma.mcdram) 0 (all_accts t)

let mcdram_fraction t =
  let b = backed_bytes t in
  if b = 0 then 1.0 else float_of_int (mcdram_bytes t) /. float_of_int b

let tlb_factor t = Vma.tlb_factor (Vma.merge_acct (all_accts t))

let heap_mapped_bytes t = t.heap_mapped_top - heap_base_addr

(* Built per call from the live extents: no simulated output reads the
   table, so keeping one current on every chunk would be pure host
   cost. *)
let page_table t =
  let pt = Page_table.create () in
  let map_extents (v : Vma.t) =
    List.iter
      (fun (vaddr, bytes, page) -> Page_table.map pt ~vaddr ~bytes ~page)
      v.Vma.mappings
  in
  map_extents t.heap;
  List.iter map_extents t.vmas;
  pt
