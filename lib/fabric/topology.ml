type t = { nodes : int; edge_size : int }

let make ?(ports_per_edge = 48) ~nodes () =
  if nodes <= 0 then invalid_arg "Topology.make: nodes must be positive";
  (* Half the ports go down to nodes, half up to spines. *)
  { nodes; edge_size = max 1 (ports_per_edge / 2) }

let nodes t = t.nodes

let region t n = n / t.edge_size

let regions t = ((t.nodes - 1) / t.edge_size) + 1

let fill_regions t a =
  let r = ref 0 and left = ref t.edge_size in
  for x = 0 to Array.length a - 1 do
    a.(x) <- !r;
    decr left;
    if !left = 0 then begin
      incr r;
      left := t.edge_size
    end
  done

let same_edge t a b = a / t.edge_size = b / t.edge_size

let hops t ~src ~dst =
  if src = dst then 0 else if same_edge t src dst then 1 else 3
