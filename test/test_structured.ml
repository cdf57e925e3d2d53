(* Tests for the structured equilibria: matching NE (algorithm A),
   k-matching NE (Lemma 4.1, algorithm A_tuple), the Theorem 4.5
   reduction, the gain laws (Corollaries 4.7/4.10) and the bipartite
   pipeline (Theorem 5.1). *)

open Netgraph
module Q = Exact.Q
module MN = Defender.Matching_nash
module TN = Defender.Tuple_nash
module Engine = Defender.Tuple_instance.Engine
module V = Engine.Verify

let q = Alcotest.testable Q.pp Q.equal
let exhaustive = V.Exhaustive

let model ~g ~nu ~k = Defender.Model.make ~graph:g ~nu ~k

let ok = function
  | Ok x -> x
  | Error e -> Alcotest.fail ("unexpected error: " ^ e)

(* --- Matching NE / algorithm A --- *)

let test_partition_of_is () =
  let g = Gen.path 4 in
  let p = MN.partition_of_is g [ 0; 2 ] in
  Alcotest.(check (list int)) "is" [ 0; 2 ] p.MN.is;
  Alcotest.(check (list int)) "vc" [ 1; 3 ] p.MN.vc;
  Alcotest.check_raises "dependent set rejected"
    (Invalid_argument "Matching_nash.partition_of_is: set is not independent")
    (fun () -> ignore (MN.partition_of_is g [ 0; 1 ]))

(* Theorem 2.2's test for a partition whose [is] is independent: G is a
   [vc]-expander. *)
let admits g p = (Matching.Hall.check g ~vc:p.MN.vc).Matching.Hall.expander

let test_partition_admits () =
  let g = Gen.path 4 in
  Alcotest.(check bool) "ends+middle admits" true
    (admits g (MN.partition_of_is g [ 0; 2 ]));
  let star = Gen.star 5 in
  Alcotest.(check bool) "star leaves admit" true
    (admits star (MN.partition_of_is star [ 1; 2; 3; 4 ]));
  Alcotest.(check bool) "star centre does not" false
    (admits star (MN.partition_of_is star [ 0 ]))

let test_find_partition_bipartite () =
  List.iter
    (fun g ->
      match MN.find_partition g with
      | None -> Alcotest.fail "bipartite graph must admit a partition"
      | Some p ->
          Alcotest.(check bool) "admits" true (admits g p))
    [ Gen.path 6; Gen.cycle 8; Gen.star 7; Gen.complete_bipartite 3 4; Gen.grid 3 3 ]

let test_find_partition_general () =
  (* Odd cycle C5: IS of size 2, VC of size 3 — VC cannot expand into 2
     vertices, so no matching NE partition exists. *)
  Alcotest.(check bool) "C5 has none" true (MN.find_partition (Gen.cycle 5) = None);
  (* K4 likewise. *)
  Alcotest.(check bool) "K4 has none" true (MN.find_partition (Gen.complete 4) = None);
  (* C5 plus a pendant on each vertex: the pendants form an IS and each
     cycle vertex matches its own pendant. *)
  let edges = List.init 5 (fun i -> (i, (i + 1) mod 5)) @ List.init 5 (fun i -> (i, i + 5)) in
  let sun = Graph.make ~n:10 edges in
  match MN.find_partition sun with
  | None -> Alcotest.fail "sun graph admits a partition"
  | Some p -> Alcotest.(check bool) "sun admits" true (admits sun p)

let test_all_partitions_invariant () =
  (* Selection independence (DESIGN.md): every admissible partition has
     |IS| = alpha = rho, and matching NEs exist iff tau = mu. *)
  List.iter
    (fun (name, g) ->
      if Graph.n g <= 20 then begin
        let all = MN.all_partitions g in
        let alpha = Matching.Independent.independence_number g in
        let rho = Matching.Edge_cover.rho g in
        let mu = Matching.Blossom.matching_number g in
        let tau = Graph.n g - alpha in
        List.iter
          (fun p ->
            Alcotest.(check int) (name ^ " |IS| = alpha") alpha
              (List.length p.MN.is);
            Alcotest.(check int) (name ^ " |IS| = rho") rho (List.length p.MN.is))
          all;
        Alcotest.(check bool) (name ^ " exists iff Koenig-Egervary") (tau = mu)
          (all <> [])
      end)
    (Gen.atlas_small ())

let test_extremal_partitions () =
  match MN.all_partitions (Gen.path 4) with
  | [] -> Alcotest.fail "P4 admits partitions"
  | first :: _ as all ->
      let last = List.nth all (List.length all - 1) in
      Alcotest.(check int) "sizes equal" (List.length first.MN.is)
        (List.length last.MN.is);
      Alcotest.(check bool) "C5 has none" true (MN.all_partitions (Gen.cycle 5) = [])

let test_support_edges_structure () =
  let g = Gen.path 6 in
  let p = MN.partition_of_is g [ 1; 3; 5 ] in
  let edges = ok (MN.support_edges g p) in
  Alcotest.(check int) "one edge per IS vertex" 3 (List.length edges);
  Alcotest.(check bool) "edge cover" true (Matching.Checks.is_edge_cover g edges);
  (* every support edge has exactly one endpoint in IS *)
  List.iter
    (fun id ->
      let e = Graph.edge g id in
      let in_is v = List.mem v p.MN.is in
      Alcotest.(check bool) "crosses partition" true (in_is e.Graph.u <> in_is e.Graph.v))
    edges

let test_support_edges_error () =
  let star = Gen.star 5 in
  match MN.support_edges star (MN.partition_of_is star [ 0 ]) with
  | Error msg ->
      Alcotest.(check bool) "mentions expander" true
        (String.length msg > 0)
  | Ok _ -> Alcotest.fail "centre-only IS cannot work"

let test_algorithm_a_produces_matching_ne () =
  List.iter
    (fun g ->
      let m = model ~g ~nu:3 ~k:1 in
      let prof = ok (MN.solve_auto m) in
      Alcotest.(check bool) "matching configuration" true
        (MN.is_matching_configuration prof);
      Alcotest.(check bool) "lemma 2.1 covers" true (MN.lemma21_cover_conditions prof);
      Alcotest.(check bool) "verified NE" true
        (V.verdict_is_confirmed (V.mixed_ne exhaustive prof)))
    [ Gen.path 5; Gen.cycle 6; Gen.star 6; Gen.complete_bipartite 2 4; Gen.grid 2 3 ]

let test_matching_ne_gain () =
  (* IP_tp = nu / |IS| in a matching NE. *)
  let g = Gen.path 6 in
  let m = model ~g ~nu:5 ~k:1 in
  let prof = ok (MN.solve m (MN.partition_of_is g [ 1; 3; 5 ])) in
  Alcotest.check q "gain = nu/|IS|" (Q.make 5 3) (Defender.Gain.defender_gain prof)

(* --- k-matching configurations / A_tuple --- *)

let test_cyclic_tuples_claim49 () =
  (* Claim 4.9: delta = E/gcd(E,k) tuples; each edge in k/gcd(E,k). *)
  let g = Gen.complete_bipartite 3 4 in
  (* 12 edges *)
  let check e_num k =
    let edges = List.init e_num Fun.id in
    let tuples = TN.cyclic_tuples g edges ~k in
    let delta = TN.delta ~e_num ~k in
    Alcotest.(check int) (Printf.sprintf "delta(%d,%d)" e_num k) delta
      (List.length tuples);
    let expected_mult = TN.multiplicity ~e_num ~k in
    List.iter
      (fun id ->
        let count =
          List.length (List.filter (fun t -> Defender.Tuple.contains_edge t id) tuples)
        in
        Alcotest.(check int) "multiplicity" expected_mult count)
      edges;
    (* tuples are distinct *)
    Alcotest.(check int) "distinct tuples" delta
      (List.length (List.sort_uniq Defender.Tuple.compare tuples))
  in
  check 6 2;
  check 6 4;
  check 5 3;
  check 12 5;
  check 7 7;
  check 9 3

let test_cyclic_tuples_guards () =
  let g = Gen.path 4 in
  Alcotest.check_raises "k too big"
    (Invalid_argument "Tuple_nash.cyclic_tuples: k outside [1, |edges|]") (fun () ->
      ignore (TN.cyclic_tuples g [ 0; 1 ] ~k:3));
  Alcotest.check_raises "repeated edges"
    (Invalid_argument "Tuple_nash.cyclic_tuples: repeated edge id") (fun () ->
      ignore (TN.cyclic_tuples g [ 0; 0 ] ~k:1))

let test_gcd_lcm () =
  Alcotest.(check int) "gcd" 3 (TN.gcd 12 9);
  Alcotest.(check int) "gcd coprime" 1 (TN.gcd 7 5);
  Alcotest.(check int) "delta" 4 (TN.delta ~e_num:12 ~k:9);
  Alcotest.(check int) "multiplicity" 3 (TN.multiplicity ~e_num:12 ~k:9)

let test_a_tuple_on_families () =
  let cases =
    [
      ("P6", Gen.path 6, 2);
      ("P6", Gen.path 6, 3);
      ("C8", Gen.cycle 8, 3);
      ("star7", Gen.star 7, 4);
      ("K(3,4)", Gen.complete_bipartite 3 4, 2);
      ("grid 3x3", Gen.grid 3 3, 3);
    ]
  in
  List.iter
    (fun (name, g, k) ->
      let m = model ~g ~nu:4 ~k in
      let prof = ok (TN.a_tuple_auto m) in
      Alcotest.(check bool) (name ^ " NE support") true
        (TN.is_k_matching_ne_support prof);
      Alcotest.(check bool)
        (name ^ " certificate verifies")
        true
        (V.verdict_is_confirmed (V.mixed_ne V.Certificate prof));
      (* exhaustive verification when the tuple space is small enough *)
      match Defender.Model.tuple_space_size m with
      | Some c when c <= 200_000 ->
          Alcotest.(check bool) (name ^ " exhaustive verifies") true
            (V.verdict_is_confirmed (V.mixed_ne V.Exhaustive prof))
      | _ -> ())
    cases

let test_a_tuple_k_too_large () =
  (* P4: IS = {0,2} or similar of size 2; k = 3 > |IS| must fail. *)
  let g = Gen.path 4 in
  let m = model ~g ~nu:2 ~k:3 in
  match TN.a_tuple_auto m with
  | Error msg ->
      Alcotest.(check bool) "mentions bound" true
        (String.length msg > 0)
  | Ok _ -> Alcotest.fail "k > |IS| must be infeasible"

let test_k_matching_rejects_violations () =
  let g = Gen.path 6 in
  let m = model ~g ~nu:2 ~k:2 in
  (* Support with unequal tuple multiplicity per edge: edges {0,2},{0,4}:
     edge 0 appears twice, 2 and 4 once. *)
  let t1 = Defender.Tuple.of_list g [ 0; 2 ] in
  let t2 = Defender.Tuple.of_list g [ 0; 4 ] in
  let prof = Engine.Profile.uniform m ~vp_support:[ 1; 3; 5 ] ~tp_support:[ t1; t2 ] in
  Alcotest.(check bool) "multiplicity violated" false
    (TN.is_k_matching_ne_support prof);
  (* Tuples {0,2}, {2,4}, {0,4}: each support edge is in two tuples and
     the support edges (0,1), (2,3), (4,5) cover every vertex.  Attackers
     on {1,3,5} meet one support edge each and cover them: an NE support.
     Adding vertex 0 keeps conditions (2) and (3) and the covers, but 0
     and 1 are adjacent, so only condition (1) fails. *)
  let tuples =
    List.map (Defender.Tuple.of_list g) [ [ 0; 2 ]; [ 2; 4 ]; [ 0; 4 ] ]
  in
  let independent =
    Engine.Profile.uniform m ~vp_support:[ 1; 3; 5 ] ~tp_support:tuples
  in
  Alcotest.(check bool) "independent support" true
    (TN.is_k_matching_ne_support independent);
  let dependent =
    Engine.Profile.uniform m ~vp_support:[ 0; 1; 3; 5 ] ~tp_support:tuples
  in
  Alcotest.(check bool) "dependent support" false
    (TN.is_k_matching_ne_support dependent)

(* --- Reduction (Theorem 4.5) --- *)

let test_reduction_forward () =
  (* k-matching NE -> matching NE of the edge model. *)
  let g = Gen.grid 2 3 in
  let m = model ~g ~nu:3 ~k:2 in
  let prof = ok (TN.a_tuple_auto m) in
  let edge_prof = Defender.Reduction.tuple_to_edge prof in
  Alcotest.(check int) "edge model k" 1
    (Defender.Model.k (Engine.Profile.instance edge_prof));
  Alcotest.(check bool) "matching configuration" true
    (MN.is_matching_configuration edge_prof);
  Alcotest.(check bool) "verified NE" true
    (V.verdict_is_confirmed (V.mixed_ne exhaustive edge_prof))

let test_reduction_backward () =
  (* matching NE -> k-matching NE. *)
  let g = Gen.cycle 8 in
  let m1 = model ~g ~nu:4 ~k:1 in
  let edge_prof = ok (MN.solve_auto m1) in
  let lifted = ok (Defender.Reduction.edge_to_tuple ~k:3 edge_prof) in
  Alcotest.(check int) "lifted k" 3 (Defender.Model.k (Engine.Profile.instance lifted));
  Alcotest.(check bool) "k-matching NE support" true
    (TN.is_k_matching_ne_support lifted);
  Alcotest.(check bool) "verified" true
    (V.verdict_is_confirmed (V.mixed_ne V.Certificate lifted))

let test_reduction_round_trip () =
  List.iter
    (fun (g, k) ->
      let m1 = model ~g ~nu:2 ~k:1 in
      let edge_prof = ok (MN.solve_auto m1) in
      Alcotest.(check bool) "round trip preserves supports" true
        (Defender.Reduction.round_trip_preserves ~k edge_prof))
    [ (Gen.path 6, 2); (Gen.cycle 6, 3); (Gen.star 8, 5); (Gen.grid 3 3, 4) ]

let test_reduction_rejects_bad_input () =
  let g = Gen.path 4 in
  let m = model ~g ~nu:1 ~k:1 in
  (* Not a matching configuration: dependent support. *)
  let bad =
    Engine.Profile.uniform m ~vp_support:[ 0; 1 ]
      ~tp_support:[ Defender.Tuple.of_list g [ 0 ] ]
  in
  Alcotest.(check bool) "edge_to_tuple rejects" true
    (try
       ignore (Defender.Reduction.edge_to_tuple ~k:2 bad);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "tuple_to_edge rejects" true
    (try
       ignore (Defender.Reduction.tuple_to_edge bad);
       false
     with Invalid_argument _ -> true)

let test_reduction_infeasible_k () =
  let g = Gen.path 4 in
  let m1 = model ~g ~nu:1 ~k:1 in
  let edge_prof = ok (MN.solve_auto m1) in
  match Defender.Reduction.edge_to_tuple ~k:3 edge_prof with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "k beyond |D(tp)| must fail"

(* --- Gain (Corollaries 4.7 / 4.10) --- *)

let test_gain_linear_in_k () =
  let g = Gen.cycle 8 in
  let nu = 6 in
  let m1 = model ~g ~nu ~k:1 in
  let edge_prof = ok (MN.solve_auto m1) in
  let base_gain = Defender.Gain.defender_gain edge_prof in
  let is_size = List.length (Engine.Profile.vp_support_union edge_prof) in
  for k = 1 to is_size do
    let lifted = ok (Defender.Reduction.edge_to_tuple ~k edge_prof) in
    let gain = Defender.Gain.defender_gain lifted in
    Alcotest.check q
      (Printf.sprintf "IP_tp(k=%d) = k * IP_tp(1)" k)
      (Q.mul_int base_gain k) gain;
    Alcotest.check q "matches prediction"
      (Defender.Gain.predicted_gain (Engine.Profile.instance lifted) ~is_size)
      gain;
    Alcotest.check q "ratio is k" (Q.of_int k)
      (Defender.Gain.gain_ratio lifted edge_prof)
  done

let test_escape_probability () =
  let g = Gen.path 6 in
  let m = model ~g ~nu:4 ~k:2 in
  let prof = ok (TN.a_tuple_auto m) in
  let is_size = List.length (Engine.Profile.vp_support_union prof) in
  (* 1 - k/|IS| in a k-matching NE *)
  let predicted = Q.sub Q.one (Q.make 2 is_size) in
  for i = 0 to 3 do
    Alcotest.check q
      (Printf.sprintf "escape probability of vp%d" i)
      predicted
      (Defender.Gain.escape_probability prof i)
  done;
  (* protection quality = k/|IS| *)
  Alcotest.check q "protection quality" (Q.make 2 3)
    (Defender.Gain.protection_quality prof)

(* --- Bipartite pipeline (Theorem 5.1) --- *)

let test_pipeline_bipartite_families () =
  List.iter
    (fun (name, g, k) ->
      let m = model ~g ~nu:3 ~k in
      let outcome = ok (Defender.Pipeline.solve m) in
      Alcotest.(check bool) (name ^ " k-matching NE") true
        (TN.is_k_matching_ne_support outcome.Defender.Pipeline.profile);
      Alcotest.(check bool) (name ^ " verified") true
        (V.verdict_is_confirmed
           (V.mixed_ne V.Certificate outcome.Defender.Pipeline.profile));
      Alcotest.(check bool) (name ^ " edge profile is matching NE") true
        (MN.is_matching_configuration outcome.Defender.Pipeline.edge_profile))
    [
      ("P7", Gen.path 7, 2);
      ("C10", Gen.cycle 10, 4);
      ("K(3,5)", Gen.complete_bipartite 3 5, 3);
      ("grid 3x4", Gen.grid 3 4, 5);
      ("tree", Gen.binary_tree 3, 4);
    ]

let test_pipeline_rejects_non_bipartite () =
  let g = Gen.cycle 5 in
  let m = model ~g ~nu:1 ~k:1 in
  Alcotest.check_raises "odd cycle" (Invalid_argument "Pipeline: graph is not bipartite")
    (fun () -> ignore (Defender.Pipeline.solve m))

let test_pipeline_max_feasible_k () =
  (* K(a,b): minimum VC = min(a,b), IS = max(a,b). *)
  Alcotest.(check int) "K(3,5)" 5 (Defender.Pipeline.max_feasible_k (Gen.complete_bipartite 3 5));
  (* star: VC = centre, IS = leaves *)
  Alcotest.(check int) "star 7" 6 (Defender.Pipeline.max_feasible_k (Gen.star 7));
  (* P4: IS max independent = 2 *)
  Alcotest.(check int) "P4" 2 (Defender.Pipeline.max_feasible_k (Gen.path 4));
  let g = Gen.complete_bipartite 2 3 in
  let feasible = Defender.Pipeline.max_feasible_k g in
  let m_ok = model ~g ~nu:2 ~k:feasible in
  ignore (ok (Defender.Pipeline.solve m_ok));
  if feasible + 1 <= Graph.m g then
    match Defender.Pipeline.solve (model ~g ~nu:2 ~k:(feasible + 1)) with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "beyond max feasible k must fail"

(* --- random bipartite property --- *)

let props =
  let bip_gen =
    QCheck.make
      (QCheck.Gen.map
         (fun seed ->
           let r = Prng.Rng.create seed in
           let a = 2 + Prng.Rng.int r 4 and b = 2 + Prng.Rng.int r 5 in
           Gen.random_bipartite r ~a ~b ~p:0.3)
         QCheck.Gen.int)
  in
  [
    QCheck.Test.make ~name:"pipeline produces verified k-matching NE" ~count:40 bip_gen
      (fun g ->
        let feasible = Defender.Pipeline.max_feasible_k g in
        QCheck.assume (feasible >= 1);
        let k = 1 + (Graph.m g mod feasible) in
        let m = model ~g ~nu:3 ~k in
        match Defender.Pipeline.solve m with
        | Error _ -> false
        | Ok outcome ->
            TN.is_k_matching_ne_support outcome.Defender.Pipeline.profile
            && V.verdict_is_confirmed
                 (V.mixed_ne V.Certificate outcome.Defender.Pipeline.profile));
    QCheck.Test.make ~name:"gain ratio k across reduction" ~count:40 bip_gen (fun g ->
        let m1 = model ~g ~nu:4 ~k:1 in
        match MN.solve_auto m1 with
        | Error _ -> false
        | Ok edge_prof -> (
            let is_size = List.length (Engine.Profile.vp_support_union edge_prof) in
            QCheck.assume (is_size >= 2);
            let k = 1 + (Graph.n g mod is_size) in
            match Defender.Reduction.edge_to_tuple ~k edge_prof with
            | Error _ -> false
            | Ok lifted ->
                Q.equal (Q.of_int k) (Defender.Gain.gain_ratio lifted edge_prof)));
  ]

let () =
  Alcotest.run "structured"
    [
      ( "matching NE (algorithm A)",
        [
          Alcotest.test_case "partition_of_is" `Quick test_partition_of_is;
          Alcotest.test_case "partition_admits" `Quick test_partition_admits;
          Alcotest.test_case "find_partition bipartite" `Quick
            test_find_partition_bipartite;
          Alcotest.test_case "find_partition general" `Quick test_find_partition_general;
          Alcotest.test_case "all partitions invariant" `Quick
            test_all_partitions_invariant;
          Alcotest.test_case "extremal partitions" `Quick test_extremal_partitions;
          Alcotest.test_case "support edges" `Quick test_support_edges_structure;
          Alcotest.test_case "support edges error" `Quick test_support_edges_error;
          Alcotest.test_case "produces matching NE" `Quick
            test_algorithm_a_produces_matching_ne;
          Alcotest.test_case "gain nu/|IS|" `Quick test_matching_ne_gain;
        ] );
      ( "k-matching / A_tuple",
        [
          Alcotest.test_case "claim 4.9 cyclic tuples" `Quick test_cyclic_tuples_claim49;
          Alcotest.test_case "cyclic guards" `Quick test_cyclic_tuples_guards;
          Alcotest.test_case "gcd/lcm/delta" `Quick test_gcd_lcm;
          Alcotest.test_case "A_tuple on families" `Quick test_a_tuple_on_families;
          Alcotest.test_case "k > |IS| infeasible" `Quick test_a_tuple_k_too_large;
          Alcotest.test_case "rejects violations" `Quick test_k_matching_rejects_violations;
        ] );
      ( "reduction (thm 4.5)",
        [
          Alcotest.test_case "forward" `Quick test_reduction_forward;
          Alcotest.test_case "backward" `Quick test_reduction_backward;
          Alcotest.test_case "round trip" `Quick test_reduction_round_trip;
          Alcotest.test_case "rejects bad input" `Quick test_reduction_rejects_bad_input;
          Alcotest.test_case "infeasible k" `Quick test_reduction_infeasible_k;
        ] );
      ( "gain (cor 4.7/4.10)",
        [
          Alcotest.test_case "linear in k" `Quick test_gain_linear_in_k;
          Alcotest.test_case "escape probability" `Quick test_escape_probability;
        ] );
      ( "bipartite pipeline (thm 5.1)",
        [
          Alcotest.test_case "families" `Quick test_pipeline_bipartite_families;
          Alcotest.test_case "rejects non-bipartite" `Quick
            test_pipeline_rejects_non_bipartite;
          Alcotest.test_case "max feasible k" `Quick test_pipeline_max_feasible_k;
        ] );
      ("properties", List.map (QCheck_alcotest.to_alcotest ~verbose:false) props);
    ]
