(* Tests for pure Nash equilibria (Theorem 3.1, Corollaries 3.2-3.3),
   best-response machinery, direct NE verification and the Theorem 3.4
   characterization. *)

open Netgraph
module Q = Exact.Q
module Engine = Defender.Tuple_instance.Engine
module P = Defender.Pure_nash
module V = Engine.Verify
module C = Defender.Characterization

let q = Alcotest.testable Q.pp Q.equal
let exhaustive = V.Exhaustive

let model ~g ~nu ~k = Defender.Model.make ~graph:g ~nu ~k

(* --- Theorem 3.1: pure NE iff edge cover of size k --- *)

let test_pure_ne_small_graphs () =
  let k2 = Gen.path 2 in
  Alcotest.(check bool) "K2 k=1" true (P.exists (model ~g:k2 ~nu:2 ~k:1));
  let p3 = Gen.path 3 in
  Alcotest.(check bool) "P3 k=1" false (P.exists (model ~g:p3 ~nu:2 ~k:1));
  Alcotest.(check bool) "P3 k=2" true (P.exists (model ~g:p3 ~nu:2 ~k:2));
  let c4 = Gen.cycle 4 in
  Alcotest.(check bool) "C4 k=1" false (P.exists (model ~g:c4 ~nu:1 ~k:1));
  Alcotest.(check bool) "C4 k=2" true (P.exists (model ~g:c4 ~nu:1 ~k:2));
  let s5 = Gen.star 5 in
  Alcotest.(check bool) "star5 k=3" false (P.exists (model ~g:s5 ~nu:1 ~k:3));
  Alcotest.(check bool) "star5 k=4" true (P.exists (model ~g:s5 ~nu:1 ~k:4))

let test_pure_ne_construction () =
  let g = Gen.complete 4 in
  let m = model ~g ~nu:3 ~k:2 in
  match P.construct m with
  | None -> Alcotest.fail "K4 with k=2 admits a pure NE"
  | Some profile ->
      Alcotest.(check bool) "constructed profile verifies" true
        (Engine.Pure.is_pure_ne m profile);
      Alcotest.(check int) "defender catches everyone" 3
        (Engine.Profit.pure_tp m profile)

let test_pure_ne_none_constructed () =
  let g = Gen.path 5 in
  Alcotest.(check bool) "P5 k=1 no construction" true
    (P.construct (model ~g ~nu:1 ~k:1) = None)

let test_is_pure_ne_rejects () =
  let g = Gen.path 3 in
  let m = model ~g ~nu:1 ~k:1 in
  (* Defender on edge (0,1); attacker on 2 escapes: defender deviates. *)
  let prof =
    Engine.Profile.make_pure m ~vp_choices:[ 2 ]
      ~tp_choice:(Defender.Tuple.of_list g [ 0 ])
  in
  Alcotest.(check bool) "defender wants to deviate" false (Engine.Pure.is_pure_ne m prof);
  (* Attacker on covered vertex 1 while 2 is free: attacker deviates. *)
  let prof2 =
    Engine.Profile.make_pure m ~vp_choices:[ 1 ]
      ~tp_choice:(Defender.Tuple.of_list g [ 0 ])
  in
  Alcotest.(check bool) "attacker wants to deviate" false (Engine.Pure.is_pure_ne m prof2)

let test_theorem31_vs_brute_force_atlas () =
  List.iter
    (fun (name, g) ->
      let max_k = min 3 (Graph.m g) in
      for k = 1 to max_k do
        let m = model ~g ~nu:2 ~k in
        Alcotest.(check bool)
          (Printf.sprintf "%s k=%d theorem = brute" name k)
          (Engine.Pure.exists_brute_force m) (P.exists m)
      done)
    (Gen.atlas_small ())

let test_corollary33 () =
  let check g k expected_exists =
    let m = model ~g ~nu:1 ~k in
    Alcotest.(check bool)
      (Printf.sprintf "n=%d k=%d" (Graph.n g) k)
      expected_exists (P.exists m);
    if P.cor33_applies m then
      Alcotest.(check bool) "cor 3.3 forces non-existence" false (P.exists m)
  in
  check (Gen.path 2) 1 true;
  (* n = 3 = 2k+1 with k=1: no pure NE *)
  check (Gen.path 3) 1 false;
  check (Gen.cycle 4) 2 true;
  check (Gen.cycle 5) 2 false;
  (* boundary n = 2k with a perfect matching *)
  check (Gen.cycle 6) 3 true

(* --- Best response --- *)

let sample_profile () =
  (* P4, nu=2, k=1; attackers uniform on {0,3}; defender uniform {e0,e2}. *)
  let g = Gen.path 4 in
  let m = model ~g ~nu:2 ~k:1 in
  let tuples = List.map (fun id -> Defender.Tuple.of_list g [ id ]) [ 0; 2 ] in
  (g, m, Engine.Profile.uniform m ~vp_support:[ 0; 3 ] ~tp_support:tuples)

let test_vp_best_value () =
  let _, _, prof = sample_profile () in
  (* Every vertex has hit probability 1/2 under {e0, e2} uniform. *)
  Alcotest.check q "vp best value" (Q.make 1 2)
    (Engine.Best_response.vp_best_value prof)

let test_vp_best_vertex_prefers_uncovered () =
  let g = Gen.path 4 in
  let m = model ~g ~nu:1 ~k:1 in
  let prof =
    Engine.Profile.uniform m ~vp_support:[ 0 ]
      ~tp_support:[ Defender.Tuple.of_list g [ 0 ] ]
  in
  (* Defender always on edge (0,1): vertices 2,3 are free. *)
  let v = Engine.Best_response.vp_best_vertex prof in
  Alcotest.(check bool) "free vertex" true (v = 2 || v = 3);
  Alcotest.check q "value 1" Q.one (Engine.Best_response.vp_best_value prof)

let test_tp_best_exhaustive () =
  let g = Gen.path 4 in
  let m = model ~g ~nu:2 ~k:1 in
  let prof =
    Engine.Profile.uniform m ~vp_support:[ 1 ]
      ~tp_support:[ Defender.Tuple.of_list g [ 2 ] ]
  in
  (* Both attackers on vertex 1: best edge catches both. *)
  Alcotest.check q "best catches 2" (Q.of_int 2)
    (Engine.Best_response.tp_best_value_exhaustive prof);
  let best = Engine.Best_response.tp_best_exhaustive prof in
  Alcotest.(check bool) "best tuple covers vertex 1" true
    (Defender.Tuple.covers g best 1)

let test_tp_upper_bound_sound () =
  let _, _, prof = sample_profile () in
  Alcotest.(check bool) "upper bound >= exhaustive max" true
    (Q.( >= )
       (Engine.Best_response.tp_upper_bound prof)
       (Engine.Best_response.tp_best_value_exhaustive prof))

let test_tp_greedy_sound () =
  let _, _, prof = sample_profile () in
  Alcotest.(check bool) "greedy <= exhaustive max" true
    (Q.( <= )
       (Defender.Tuple_game.tp_greedy_value (Engine.Profile.instance prof)
          ~load:(Engine.Profile.expected_load prof))
       (Engine.Best_response.tp_best_value_exhaustive prof))

(* --- Verify --- *)

let ne_p6_k2 () =
  let g = Gen.path 6 in
  let m = model ~g ~nu:4 ~k:2 in
  match Defender.Tuple_nash.a_tuple_auto m with
  | Ok prof -> prof
  | Error e -> Alcotest.fail ("a_tuple_auto failed: " ^ e)

let test_verify_confirms_constructed_ne () =
  let prof = ne_p6_k2 () in
  Alcotest.(check bool) "exhaustive verify" true
    (V.verdict_is_confirmed (V.mixed_ne exhaustive prof));
  Alcotest.(check bool) "certificate verify" true
    (V.verdict_is_confirmed (V.mixed_ne V.Certificate prof))

let test_verify_refutes_perturbed () =
  let prof = ne_p6_k2 () in
  (* Move one attacker onto a covered VC vertex: its hit probability rises
     strictly, so the profile stops being an NE. *)
  let perturbed = Engine.Profile.replace_vp prof 0 (Dist.Finite.point 0) in
  (match V.mixed_ne exhaustive perturbed with
  | V.Refuted _ -> ()
  | other -> Alcotest.fail ("expected refutation, got " ^ V.verdict_to_string other));
  (* Degrade the defender: all mass on a single tuple. *)
  let first_tuple = List.hd (Engine.Profile.tp_support prof) in
  let lazy_defender = Engine.Profile.replace_tp prof [ (first_tuple, Q.one) ] in
  match V.mixed_ne exhaustive lazy_defender with
  | V.Refuted _ -> ()
  | other -> Alcotest.fail ("expected refutation, got " ^ V.verdict_to_string other)

let test_verify_vp_side_detects () =
  let g = Gen.path 4 in
  let m = model ~g ~nu:1 ~k:1 in
  (* Defender always scans (0,1); attacker splits mass between covered 0
     and free 3: misallocated mass on 0. *)
  let prof =
    Engine.Profile.make_mixed m
      ~vp:[ Dist.Finite.uniform [ 0; 3 ] ]
      ~tp:[ (Defender.Tuple.of_list g [ 0 ], Q.one) ]
  in
  match V.vp_side prof with
  | V.Refuted _ -> ()
  | other -> Alcotest.fail ("expected vp refutation, got " ^ V.verdict_to_string other)

let test_tp_side_detects_unequal_support () =
  let g = Gen.star 4 in
  let m = model ~g ~nu:1 ~k:1 in
  (* Attacker mass on {0,1}: support edge (0,1) has load 1,
     support edge (0,2) has load 1/2 -> defender support not indifferent. *)
  let prof =
    Engine.Profile.make_mixed m
      ~vp:[ Dist.Finite.uniform [ 0; 1 ] ]
      ~tp:
        [
          (Defender.Tuple.of_list g [ 0 ], Q.make 1 2);
          (Defender.Tuple.of_list g [ 1 ], Q.make 1 2);
        ]
  in
  match V.tp_side V.Certificate prof with
  | V.Refuted _ -> ()
  | other -> Alcotest.fail ("expected refutation, got " ^ V.verdict_to_string other)

let test_certificate_unknown_when_loose () =
  (* Defender plays only edge (2,3) of P4 while the attacker hides on 0:
     support loads are equal (single tuple) but below the top-1 bound, and
     the certificate cannot decide optimality. *)
  let g = Gen.path 4 in
  let m = model ~g ~nu:1 ~k:1 in
  let prof =
    Engine.Profile.make_mixed m
      ~vp:[ Dist.Finite.point 0 ]
      ~tp:[ (Defender.Tuple.of_list g [ 2 ], Q.one) ]
  in
  (match V.tp_side V.Certificate prof with
  | V.Unknown _ -> ()
  | other -> Alcotest.fail ("expected unknown, got " ^ V.verdict_to_string other));
  (* The exhaustive mode settles it as a refutation. *)
  match V.tp_side exhaustive prof with
  | V.Refuted _ -> ()
  | other -> Alcotest.fail ("expected refutation, got " ^ V.verdict_to_string other)

(* --- Characterization (Theorem 3.4) --- *)

let test_characterization_confirms_ne () =
  let prof = ne_p6_k2 () in
  let report = C.check exhaustive prof in
  Alcotest.(check bool) "cond 1 edge cover" true report.C.cond1_edge_cover;
  Alcotest.(check bool) "cond 1 vertex cover" true report.C.cond1_vertex_cover;
  Alcotest.(check bool) "cond 2a" true report.C.cond2a_uniform_minimal_hit;
  Alcotest.(check bool) "cond 2b" true report.C.cond2b_tp_probability_sums;
  Alcotest.(check bool) "cond 3b" true report.C.cond3b_total_load;
  Alcotest.(check bool) "holds" true (C.holds exhaustive prof)

let random_uniform_profile rng =
  let g = Gen.gnp_connected rng ~n:(4 + Prng.Rng.int rng 3) ~p:0.4 in
  let nu = 1 + Prng.Rng.int rng 3 in
  let k = 1 + Prng.Rng.int rng (min 2 (Graph.m g)) in
  let m = model ~g ~nu ~k in
  let vertices = Array.init (Graph.n g) Fun.id in
  let support_size = 1 + Prng.Rng.int rng (Graph.n g) in
  let vp_support =
    Array.to_list (Prng.Rng.sample_without_replacement rng ~count:support_size vertices)
  in
  let edge_ids = Array.init (Graph.m g) Fun.id in
  let tuples =
    List.init
      (1 + Prng.Rng.int rng 3)
      (fun _ ->
        Defender.Tuple.of_list g
          (Array.to_list (Prng.Rng.sample_without_replacement rng ~count:k edge_ids)))
    |> List.sort_uniq Defender.Tuple.compare
  in
  Engine.Profile.uniform m ~vp_support ~tp_support:tuples

let test_characterization_agrees_with_direct () =
  (* Theorem 3.4 vs the definitional best-response check on random
     profiles (mostly non-NE, occasionally NE).  Per DESIGN.md, the
     theorem's necessity direction provably holds whenever IP_tp < nu;
     the only admissible disagreements are "saturating" NEs in which the
     defender already catches every attacker with probability 1. *)
  let rng = Prng.Rng.create 4242 in
  for _ = 1 to 80 do
    let prof = random_uniform_profile rng in
    let nu = Defender.Model.nu (Engine.Profile.instance prof) in
    let direct = V.verdict_is_confirmed (V.mixed_ne exhaustive prof) in
    let characterized = C.holds exhaustive prof in
    let saturating =
      Q.equal (Engine.Profit.expected_tp prof) (Q.of_int nu)
    in
    if direct <> characterized && not (direct && saturating) then
      Alcotest.failf "disagreement (direct %b vs characterization %b) on %s" direct
        characterized
        (Format.asprintf "%a" Engine.Profile.pp prof)
  done

let test_characterization_gap_single_tuple () =
  (* Known gap in the paper's Theorem 3.4 (documented in DESIGN.md): when
     the defender plays a single tuple covering every vertex, the profile
     is an NE by the definitional check, yet condition 1's vertex-cover
     half can fail because attackers need not sit on every support edge. *)
  let g = Gen.path 4 in
  let m = model ~g ~nu:1 ~k:2 in
  let full_cover = Defender.Tuple.of_list g [ 0; 2 ] in
  let prof =
    Engine.Profile.make_mixed m
      ~vp:[ Dist.Finite.point 0 ]
      ~tp:[ (full_cover, Q.one) ]
  in
  Alcotest.(check bool) "direct check: NE" true
    (V.verdict_is_confirmed (V.mixed_ne exhaustive prof));
  let report = C.check exhaustive prof in
  Alcotest.(check bool) "vertex-cover condition fails" false
    report.C.cond1_vertex_cover

let test_characterization_gap_saturating_mixed () =
  (* The genuinely mixed counterexample from DESIGN.md: both support
     tuples cover all attacker mass (IP_tp = nu), the profile is a direct
     NE, and the vertex-cover half of condition 1 still fails. *)
  let g = Graph.make ~n:4 [ (2, 3); (0, 2); (0, 3); (0, 1); (1, 2) ] in
  let m = model ~g ~nu:2 ~k:2 in
  let t1 = Defender.Tuple.of_list g [ 0; 3 ] in
  let t2 = Defender.Tuple.of_list g [ 2; 4 ] in
  let prof =
    Engine.Profile.make_mixed m
      ~vp:[ Dist.Finite.point 1; Dist.Finite.point 1 ]
      ~tp:[ (t1, Q.make 1 2); (t2, Q.make 1 2) ]
  in
  Alcotest.(check bool) "direct check: NE" true
    (V.verdict_is_confirmed (V.mixed_ne exhaustive prof));
  Alcotest.(check bool) "saturating: IP_tp = nu" true
    (Q.equal (Engine.Profit.expected_tp prof) (Q.of_int 2));
  let report = C.check exhaustive prof in
  Alcotest.(check bool) "vertex-cover condition fails" false
    report.C.cond1_vertex_cover;
  Alcotest.(check bool) "all other conditions hold" true
    (report.C.cond1_edge_cover && report.C.cond2a_uniform_minimal_hit
   && report.C.cond2b_tp_probability_sums && report.C.cond3b_total_load)

let test_characterization_refutes_non_cover () =
  let g = Gen.path 4 in
  let m = model ~g ~nu:1 ~k:1 in
  (* Support edge {1} = (1,2) is not an edge cover. *)
  let prof =
    Engine.Profile.uniform m ~vp_support:[ 0 ]
      ~tp_support:[ Defender.Tuple.of_list g [ 1 ] ]
  in
  let report = C.check exhaustive prof in
  Alcotest.(check bool) "edge cover fails" false report.C.cond1_edge_cover;
  Alcotest.(check bool) "overall fails" false (C.holds exhaustive prof)

let test_characterization_condition_3b () =
  let g = Gen.path 4 in
  let m = model ~g ~nu:2 ~k:1 in
  let prof =
    Engine.Profile.uniform m ~vp_support:[ 0; 3 ]
      ~tp_support:[ Defender.Tuple.of_list g [ 0 ]; Defender.Tuple.of_list g [ 2 ] ]
  in
  let report = C.check exhaustive prof in
  Alcotest.(check bool) "3b holds" true report.C.cond3b_total_load

let () =
  Alcotest.run "equilibria"
    [
      ( "pure (thm 3.1)",
        [
          Alcotest.test_case "small graphs" `Quick test_pure_ne_small_graphs;
          Alcotest.test_case "construction" `Quick test_pure_ne_construction;
          Alcotest.test_case "no construction" `Quick test_pure_ne_none_constructed;
          Alcotest.test_case "is_pure_ne rejects" `Quick test_is_pure_ne_rejects;
          Alcotest.test_case "theorem vs brute force" `Quick
            test_theorem31_vs_brute_force_atlas;
          Alcotest.test_case "corollary 3.3" `Quick test_corollary33;
        ] );
      ( "best response",
        [
          Alcotest.test_case "vp best value" `Quick test_vp_best_value;
          Alcotest.test_case "vp prefers uncovered" `Quick
            test_vp_best_vertex_prefers_uncovered;
          Alcotest.test_case "tp exhaustive" `Quick test_tp_best_exhaustive;
          Alcotest.test_case "upper bound sound" `Quick test_tp_upper_bound_sound;
          Alcotest.test_case "greedy sound" `Quick test_tp_greedy_sound;
        ] );
      ( "verify",
        [
          Alcotest.test_case "confirms constructed NE" `Quick
            test_verify_confirms_constructed_ne;
          Alcotest.test_case "refutes perturbed" `Quick test_verify_refutes_perturbed;
          Alcotest.test_case "vp side detects" `Quick test_verify_vp_side_detects;
          Alcotest.test_case "tp unequal support" `Quick
            test_tp_side_detects_unequal_support;
          Alcotest.test_case "certificate unknown when loose" `Quick
            test_certificate_unknown_when_loose;
        ] );
      ( "characterization (thm 3.4)",
        [
          Alcotest.test_case "confirms NE" `Quick test_characterization_confirms_ne;
          Alcotest.test_case "agrees with direct check" `Quick
            test_characterization_agrees_with_direct;
          Alcotest.test_case "gap: single full-cover tuple" `Quick
            test_characterization_gap_single_tuple;
          Alcotest.test_case "gap: saturating mixed defender" `Quick
            test_characterization_gap_saturating_mixed;
          Alcotest.test_case "refutes non-cover" `Quick
            test_characterization_refutes_non_cover;
          Alcotest.test_case "condition 3b" `Quick test_characterization_condition_3b;
        ] );
    ]
