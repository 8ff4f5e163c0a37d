type time = int
type size = int

let ns = 1
let us = 1_000
let ms = 1_000_000
let sec = 1_000_000_000

let of_us f = int_of_float (f *. float_of_int us)
let of_ms f = int_of_float (f *. float_of_int ms)
let of_sec f = int_of_float (f *. float_of_int sec)
let to_sec t = float_of_int t /. float_of_int sec

let kib = 1024
let mib = 1024 * 1024
let gib = 1024 * 1024 * 1024

let of_kib n = n * kib
let of_mib n = n * mib
let of_gib n = n * gib

let pp_time ppf t =
  let f = float_of_int t in
  if t < us then Format.fprintf ppf "%dns" t
  else if t < ms then Format.fprintf ppf "%.2fus" (f /. float_of_int us)
  else if t < sec then Format.fprintf ppf "%.2fms" (f /. float_of_int ms)
  else Format.fprintf ppf "%.3fs" (f /. float_of_int sec)

let pp_size ppf s =
  let f = float_of_int s in
  if s < kib then Format.fprintf ppf "%dB" s
  else if s < mib then Format.fprintf ppf "%.1fKiB" (f /. float_of_int kib)
  else if s < gib then Format.fprintf ppf "%.1fMiB" (f /. float_of_int mib)
  else Format.fprintf ppf "%.2fGiB" (f /. float_of_int gib)

let time_to_string t = Format.asprintf "%a" pp_time t
let size_to_string s = Format.asprintf "%a" pp_size s

let bytes_per_sec_to_bytes_per_ns bps = bps /. float_of_int sec

let gib_per_sec g = bytes_per_sec_to_bytes_per_ns (g *. float_of_int gib)

let transfer_time ~bytes ~bw =
  if bytes <= 0 then 0
  else
    let t = float_of_int bytes /. bw in
    Int.max 1 (int_of_float (Float.ceil t))
