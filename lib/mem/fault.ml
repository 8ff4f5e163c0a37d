open Mk_engine

type costs = {
  trap : Units.time;
  map_small : Units.time;
  map_large : Units.time;
  map_huge : Units.time;
  zero_bandwidth : float;
  bulk_zero_bandwidth : float;
  contention : float;
}

let default =
  {
    trap = 900;
    map_small = 250;
    map_large = 450;
    map_huge = 700;
    zero_bandwidth = 4.0;
    bulk_zero_bandwidth = 9.0;
    contention = 0.03;
  }

let map_cost c = function
  | Page.Small -> c.map_small
  | Page.Large -> c.map_large
  | Page.Huge -> c.map_huge

let contention_factor c concurrency =
  1.0 +. (c.contention *. float_of_int (Int.max 0 (concurrency - 1)))

let demand_fault c ~page ~concurrency =
  let zero = Units.transfer_time ~bytes:(Page.bytes page) ~bw:c.zero_bandwidth in
  let base = c.trap + map_cost c page + zero in
  int_of_float (float_of_int base *. contention_factor c concurrency)

let demand_fault_bytes c ~page ~bytes ~concurrency =
  if bytes <= 0 then 0
  else
    let pages = Page.count ~bytes page in
    pages * demand_fault c ~page ~concurrency

let prefault c ~page ~bytes ~zero_bytes =
  if bytes <= 0 then 0
  else begin
    let pages = Page.count ~bytes page in
    let map = pages * map_cost c page in
    let zero = Units.transfer_time ~bytes:zero_bytes ~bw:c.bulk_zero_bandwidth in
    map + zero
  end
