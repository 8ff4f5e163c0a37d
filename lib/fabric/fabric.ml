type t = {
  nic : Nic.t;
  topology : Topology.t;
  link_factors : float array;
  mutable degraded : bool;
}

let make ?(nic = Nic.make ()) ~nodes () =
  {
    nic;
    topology = Topology.make ~nodes () ;
    link_factors = Array.make (max 1 nodes) 1.0;
    degraded = false;
  }

let nic t = t.nic
let topology t = t.topology

let set_link_factor t ~node ~factor =
  if factor < 1.0 then invalid_arg "Fabric.set_link_factor: factor must be >= 1";
  if node >= 0 && node < Array.length t.link_factors then begin
    t.link_factors.(node) <- factor;
    t.degraded <- t.degraded || factor > 1.0
  end

let reset_link_factors t =
  Array.fill t.link_factors 0 (Array.length t.link_factors) 1.0;
  t.degraded <- false

(* Omni-Path end-to-end MPI latency is ~1 us nearest-neighbour;
   each extra switch hop adds ~150 ns. *)
let base_latency = 950
let per_hop = 150

let[@inline] hop_time ~hops ~bytes =
  base_latency + (hops * per_hop) + Nic.injection_overhead
  + Mk_engine.Units.transfer_time ~bytes ~bw:Nic.wire_bandwidth

let degraded t = t.degraded

let[@inline] link_factor t n =
  if n >= 0 && n < Array.length t.link_factors then t.link_factors.(n) else 1.0

let[@inline] scale_link t ~src ~dst w =
  (* The integer fast path is load-bearing: with no degraded link the
     arithmetic must be bit-for-bit what it was before fault
     injection existed. *)
  if not t.degraded then w
  else begin
    let factor = Float.max (link_factor t src) (link_factor t dst) in
    if factor = 1.0 then w else int_of_float (Float.round (float w *. factor))
  end

let wire_time t ~src ~dst ~bytes =
  if src = dst then 0
  else
    scale_link t ~src ~dst
      (hop_time ~hops:(Topology.hops t.topology ~src ~dst) ~bytes)

(* The healthy-path cost is identical for every cross-region pair, and
   link degradation only multiplies it upward, so this is a sound
   lower bound on any message between nodes under different edge
   switches — the sharded DES's lookahead.  [max_int] when the fabric
   has a single region: no cross-region message can exist at all. *)
let min_cross_region_time t ~bytes =
  if Topology.regions t.topology <= 1 then max_int else hop_time ~hops:3 ~bytes

let message t ~src ~dst ~bytes =
  let wire = wire_time t ~src ~dst ~bytes in
  let control = if src = dst then [] else Nic.control_syscalls t.nic ~bytes in
  (wire, control)
