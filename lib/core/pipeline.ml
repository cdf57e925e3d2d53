open Netgraph
module E = Tuple_instance.Engine

type outcome = {
  profile : E.Profile.mixed;
  partition : Matching_nash.partition;
  edge_profile : E.Profile.mixed;
}

let koenig_partition g =
  if not (Bipartite.is_bipartite g) then
    invalid_arg "Pipeline: graph is not bipartite";
  let koenig = Matching.Koenig.solve g in
  {
    Matching_nash.is = koenig.Matching.Koenig.independent_set;
    vc = koenig.Matching.Koenig.vertex_cover;
  }

let solve model =
  let g = Model.graph model in
  let partition = koenig_partition g in
  match Matching_nash.solve (Model.edge_model model) partition with
  | Error _ as e -> e
  | Ok edge_profile -> (
      match Tuple_nash.a_tuple model partition with
      | Error _ as e -> e
      | Ok profile -> Ok { profile; partition; edge_profile })

let max_feasible_k g = List.length (koenig_partition g).Matching_nash.is
