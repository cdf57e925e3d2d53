type summary = {
  n : int;
  m : int;
  min_degree : int;
  max_degree : int;
  mean_degree : float;
  connected : bool;
  bipartite : bool;
  isolated : int;
  components : int;
}

let degree_sequence g =
  Graph.fold_vertices g ~init:[] ~f:(fun acc v -> Graph.degree g v :: acc)
  |> List.sort (fun a b -> compare b a)

let summary g =
  let n = Graph.n g and m = Graph.m g in
  let degs = degree_sequence g in
  let min_degree = match List.rev degs with d :: _ -> d | [] -> 0 in
  let max_degree = match degs with d :: _ -> d | [] -> 0 in
  let mean_degree = if n = 0 then 0.0 else 2.0 *. float_of_int m /. float_of_int n in
  let comps = Traverse.components g in
  {
    n;
    m;
    min_degree;
    max_degree;
    mean_degree;
    connected = List.length comps <= 1;
    bipartite = Bipartite.is_bipartite g;
    isolated = List.length (Graph.isolated_vertices g);
    components = List.length comps;
  }

let is_valid_instance g =
  Graph.n g >= 2 && (not (Graph.has_isolated_vertex g)) && Traverse.is_connected g

let pp_summary fmt s =
  Format.fprintf fmt
    "n=%d m=%d deg=[%d..%d] mean=%.2f %s %s components=%d isolated=%d" s.n s.m
    s.min_degree s.max_degree s.mean_degree
    (if s.connected then "connected" else "disconnected")
    (if s.bipartite then "bipartite" else "non-bipartite")
    s.components s.isolated
