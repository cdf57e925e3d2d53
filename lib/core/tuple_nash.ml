open Netgraph
module E = Tuple_instance.Engine

let rec gcd a b = if b = 0 then a else gcd b (a mod b)
let delta ~e_num ~k = e_num / gcd e_num k
let multiplicity ~e_num ~k = k / gcd e_num k

let is_k_matching_configuration m =
  let g = Model.graph (E.Profile.instance m) in
  let vp = E.Profile.vp_support_union m in
  let support_tuples = E.Profile.tp_support m in
  let support_edges = Tuple.edge_union support_tuples in
  let incident_count v =
    List.length
      (List.filter
         (fun id ->
           let e = Graph.edge g id in
           e.Graph.u = v || e.Graph.v = v)
         support_edges)
  in
  Matching.Checks.is_independent_set g vp
  && List.for_all (fun v -> incident_count v = 1) vp
  &&
  (* Condition (3): equal tuple-multiplicity for each support edge. *)
  match support_edges with
  | [] -> false
  | first :: rest ->
      let count id =
        List.length (List.filter (fun t -> Tuple.contains_edge t id) support_tuples)
      in
      let reference = count first in
      List.for_all (fun id -> count id = reference) rest

let is_k_matching_ne_support m =
  let g = Model.graph (E.Profile.instance m) in
  let support_edges = Tuple.edge_union (E.Profile.tp_support m) in
  is_k_matching_configuration m
  && Matching.Checks.is_edge_cover g support_edges
  &&
  let sub, _ = Graph.edge_subgraph g support_edges in
  Matching.Checks.is_vertex_cover sub (E.Profile.vp_support_union m)

let cyclic_tuples g edges ~k =
  let arr = Array.of_list edges in
  let e_num = Array.length arr in
  if List.length (List.sort_uniq Int.compare edges) <> e_num then
    invalid_arg "Tuple_nash.cyclic_tuples: repeated edge id";
  if k < 1 || k > e_num then
    invalid_arg "Tuple_nash.cyclic_tuples: k outside [1, |edges|]";
  let count = delta ~e_num ~k in
  List.init count (fun i ->
      let window = List.init k (fun j -> arr.(((i * k) + j) mod e_num)) in
      Tuple.of_list g window)

let a_tuple model partition =
  let g = Model.graph model in
  let k = Model.k model in
  match Matching_nash.support_edges g partition with
  | Error _ as e -> e
  | Ok edges ->
      let e_num = List.length edges in
      if k > e_num then
        Error
          (Printf.sprintf
             "k = %d exceeds |IS| = %d: no k-matching NE exists on this \
              partition (|E(D(tp))| = |IS| in any k-matching NE)"
             k e_num)
      else
        let tuples = cyclic_tuples g edges ~k in
        Ok
          (E.Profile.uniform model ~vp_support:partition.Matching_nash.is
             ~tp_support:tuples)

let a_tuple_auto model =
  match Matching_nash.find_partition (Model.graph model) with
  | None -> Error "no admissible (IS, VC) partition found"
  | Some p -> a_tuple model p
