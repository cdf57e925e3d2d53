open Netgraph

let covered_mark g ids =
  let mark = Array.make (Graph.n g) false in
  List.iter
    (fun id ->
      let e = Graph.edge g id in
      mark.(e.Graph.u) <- true;
      mark.(e.Graph.v) <- true)
    ids;
  mark

let is_matching g ids =
  let count = Array.make (Graph.n g) 0 in
  List.for_all
    (fun id ->
      let e = Graph.edge g id in
      count.(e.Graph.u) <- count.(e.Graph.u) + 1;
      count.(e.Graph.v) <- count.(e.Graph.v) + 1;
      count.(e.Graph.u) <= 1 && count.(e.Graph.v) <= 1)
    ids

let is_edge_cover g ids =
  let mark = covered_mark g ids in
  Array.for_all Fun.id mark

let is_vertex_cover g vs =
  let mark = Array.make (Graph.n g) false in
  List.iter (fun v -> mark.(v) <- true) vs;
  Graph.fold_edges g ~init:true ~f:(fun acc _ e ->
      acc && (mark.(e.Graph.u) || mark.(e.Graph.v)))

let is_independent_set g vs =
  let mark = Array.make (Graph.n g) false in
  List.iter (fun v -> mark.(v) <- true) vs;
  Graph.fold_edges g ~init:true ~f:(fun acc _ e ->
      acc && not (mark.(e.Graph.u) && mark.(e.Graph.v)))

let uncovered_vertices g ids =
  let mark = covered_mark g ids in
  let out = ref [] in
  for v = Graph.n g - 1 downto 0 do
    if not mark.(v) then out := v :: !out
  done;
  !out
