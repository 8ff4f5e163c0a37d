let max_nodes = 1_048_576
let max_runs = 1_000
let max_jobs = 512
let max_des_shards = 512

let nodes n =
  if n >= 1 && n <= max_nodes then Ok n
  else
    Error
      (Printf.sprintf "invalid node count %d: expected 1 to %d" n max_nodes)

let node_counts l =
  if l = [] then Error "empty node-count list: give at least one node count"
  else
    let rec go = function
      | [] -> Ok l
      | n :: rest -> ( match nodes n with Ok _ -> go rest | Error e -> Error e)
    in
    go l

let jobs n =
  if n >= 0 && n <= max_jobs then Ok n
  else
    Error
      (Printf.sprintf
         "invalid jobs value %d: expected 0 (all cores) to %d" n max_jobs)

let des_shards n =
  if n >= 0 && n <= max_des_shards then Ok n
  else
    Error
      (Printf.sprintf
         "invalid des-shards value %d: expected 0 (one per core) to %d" n
         max_des_shards)

let runs n =
  if n >= 1 && n <= max_runs then Ok n
  else Error (Printf.sprintf "invalid runs value %d: expected 1 to %d" n max_runs)

let app name =
  match Mk_apps.Registry.find name with
  | Some a -> Ok a
  | None ->
      Error
        (Printf.sprintf "unknown application %S: valid choices are %s" name
           (String.concat ", " Mk_apps.Registry.names))

let scenario_names =
  List.map
    (fun (s : Scenario.t) -> s.Scenario.label)
    (Scenario.trio @ [ Scenario.linux_default_noise ])

let scenario name =
  match Scenario.find name with
  | Some s -> Ok s
  | None ->
      Error
        (Printf.sprintf "unknown scenario %S: valid choices are %s" name
           (String.concat ", " scenario_names))

let fault_preset name =
  let n = String.lowercase_ascii (String.trim name) in
  if List.mem n Mk_fault.Plan.preset_names then Ok n
  else
    Error
      (Printf.sprintf "unknown fault preset %S: valid choices are %s" name
         (String.concat ", " Mk_fault.Plan.preset_names))

let rates s =
  let parts =
    String.split_on_char ',' s |> List.map String.trim
    |> List.filter (fun p -> p <> "")
  in
  if parts = [] then Error "empty rate list: give e.g. 0.5,1,2"
  else
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | p :: rest -> (
          match float_of_string_opt p with
          | Some r when r >= 0.0 -> go (r :: acc) rest
          | Some _ -> Error (Printf.sprintf "invalid rate %S: must be >= 0" p)
          | None -> Error (Printf.sprintf "invalid rate %S: not a number" p))
    in
    go [] parts
