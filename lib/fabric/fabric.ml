type t = { nic : Nic.t; topology : Topology.t }

let make ?(nic = Nic.make ()) ~nodes () =
  { nic; topology = Topology.make ~nodes () }

let nic t = t.nic
let topology t = t.topology

(* Omni-Path end-to-end MPI latency is ~1 us nearest-neighbour;
   each extra switch hop adds ~150 ns. *)
let base_latency = 950
let per_hop = 150

let[@inline] hop_time ~hops ~bytes =
  base_latency + (hops * per_hop) + Nic.injection_overhead
  + Mk_engine.Units.transfer_time ~bytes ~bw:Nic.wire_bandwidth

let wire_time t ~src ~dst ~bytes =
  if src = dst then 0
  else hop_time ~hops:(Topology.hops t.topology ~src ~dst) ~bytes

(* Every cross-region pair costs the same 3-hop price, so this is the
   exact cost of any message between nodes under different edge
   switches — the sharded DES's lookahead.  [max_int] when the fabric
   has a single region: no cross-region message can exist at all. *)
let min_cross_region_time t ~bytes =
  if Topology.regions t.topology <= 1 then max_int else hop_time ~hops:3 ~bytes

let message t ~src ~dst ~bytes =
  let wire = wire_time t ~src ~dst ~bytes in
  let control = if src = dst then [] else Nic.control_syscalls t.nic ~bytes in
  (wire, control)
