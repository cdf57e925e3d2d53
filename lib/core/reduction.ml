open Netgraph
module E = Tuple_instance.Engine

let tuple_to_edge m =
  if not (Tuple_nash.is_k_matching_ne_support m) then
    invalid_arg "Reduction.tuple_to_edge: input is not a k-matching NE support";
  let model = E.Profile.instance m in
  let g = Model.graph model in
  let edge_model = Model.edge_model model in
  let support_edges = Tuple.edge_union (E.Profile.tp_support m) in
  let tuples = List.map (fun id -> Tuple.of_list g [ id ]) support_edges in
  E.Profile.uniform edge_model ~vp_support:(E.Profile.vp_support_union m)
    ~tp_support:tuples

let edge_to_tuple ~k m =
  let model = E.Profile.instance m in
  if Model.k model <> 1 then
    invalid_arg "Reduction.edge_to_tuple: input must be an Edge-model profile";
  if not (Matching_nash.is_matching_configuration m)
     || not (Matching_nash.lemma21_cover_conditions m)
  then invalid_arg "Reduction.edge_to_tuple: input is not a matching NE support";
  let g = Model.graph model in
  let edges = Tuple.edge_union (E.Profile.tp_support m) in
  let e_num = List.length edges in
  if k < 1 || k > Graph.m g then Error (Printf.sprintf "k = %d outside [1, m]" k)
  else if k > e_num then
    Error
      (Printf.sprintf "k = %d exceeds |D(tp)| = %d: cyclic lift impossible" k e_num)
  else
    let lifted_model = Model.with_k model ~k in
    let tuples = Tuple_nash.cyclic_tuples g edges ~k in
    Ok
      (E.Profile.uniform lifted_model ~vp_support:(E.Profile.vp_support_union m)
         ~tp_support:tuples)

let round_trip_preserves ~k m =
  match edge_to_tuple ~k m with
  | Error _ -> false
  | Ok lifted ->
      let back = tuple_to_edge lifted in
      E.Profile.vp_support_union back = E.Profile.vp_support_union m
      && Tuple.edge_union (E.Profile.tp_support back)
         = Tuple.edge_union (E.Profile.tp_support m)
