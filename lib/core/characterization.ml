open Netgraph
module Q = Exact.Q
module E = Tuple_instance.Engine

type report = {
  cond1_edge_cover : bool;
  cond1_vertex_cover : bool;
  cond2a_uniform_minimal_hit : bool;
  cond2b_tp_probability_sums : bool;
  cond3a_support_loads : E.Verify.verdict;
  cond3b_total_load : bool;
}

let verdict r =
  let fail name = E.Verify.Refuted (Printf.sprintf "condition %s fails" name) in
  if not r.cond1_edge_cover then fail "1 (edge cover)"
  else if not r.cond1_vertex_cover then fail "1 (vertex cover)"
  else if not r.cond2a_uniform_minimal_hit then fail "2a"
  else if not r.cond2b_tp_probability_sums then fail "2b"
  else if not r.cond3b_total_load then fail "3b"
  else r.cond3a_support_loads

let check mode m =
  let g = Model.graph (E.Profile.instance m) in
  let support_edges = Tuple.edge_union (E.Profile.tp_support m) in
  let cond1_edge_cover = Matching.Checks.is_edge_cover g support_edges in
  let cond1_vertex_cover =
    let sub, _ = Graph.edge_subgraph g support_edges in
    Matching.Checks.is_vertex_cover sub (E.Profile.vp_support_union m)
  in
  let cond2a_uniform_minimal_hit =
    match E.Profile.vp_support_union m with
    | [] -> false
    | support ->
        let hits = List.map (E.Profile.hit_prob m) support in
        let h0 = List.hd hits in
        List.for_all (Q.equal h0) hits
        &&
        let global_min =
          Q.min_list
            (List.init (Graph.n g) (E.Profile.hit_prob m))
        in
        Q.equal h0 global_min
  in
  let cond2b_tp_probability_sums =
    Q.equal (Q.sum (List.map snd (E.Profile.tp_strategy m))) Q.one
  in
  let cond3a_support_loads = E.Verify.tp_side mode m in
  let cond3b_total_load =
    let covered = Tuple.vertex_union g (E.Profile.tp_support m) in
    let total = Q.sum (List.map (E.Profile.expected_load m) covered) in
    Q.equal total (Q.of_int (Model.nu (E.Profile.instance m)))
  in
  {
    cond1_edge_cover;
    cond1_vertex_cover;
    cond2a_uniform_minimal_hit;
    cond2b_tp_probability_sums;
    cond3a_support_loads;
    cond3b_total_load;
  }

let holds mode m =
  E.Verify.verdict_is_confirmed (verdict (check mode m))

let pp_report fmt r =
  Format.fprintf fmt
    "@[<v>1.edge-cover: %b@,1.vertex-cover: %b@,2a.uniform-min-hit: %b@,\
     2b.prob-sums: %b@,3a.support-loads: %s@,3b.total-load: %b@]"
    r.cond1_edge_cover r.cond1_vertex_cover r.cond2a_uniform_minimal_hit
    r.cond2b_tp_probability_sums
    (E.Verify.verdict_to_string r.cond3a_support_loads)
    r.cond3b_total_load
