(* Tests for the extension layer: the Path model of [8], perturbation
   robustness (epsilon-NE), the exact simplex LP and the max-min defense,
   fictitious play, and the Price of Defense. *)

open Netgraph
module Q = Exact.Q
module Engine = Defender.Tuple_instance.Engine
module Sim_tuple = Sim.Sim_instance.Tuple

let q = Alcotest.testable Q.pp Q.equal

let ok = function
  | Ok x -> x
  | Error e -> Alcotest.fail ("unexpected error: " ^ e)

let model ~g ~nu ~k = Defender.Model.make ~graph:g ~nu ~k

(* --- Path model --- *)

let test_hamiltonian_path () =
  (* [pure_thresholds] reports n - 1 exactly when a Hamiltonian path
     exists. *)
  let traceable g = snd (Defender.Path_model.pure_thresholds g) <> None in
  Alcotest.(check bool) "path graph has one" true (traceable (Gen.path 5));
  Alcotest.(check bool) "cycle has one" true (traceable (Gen.cycle 6));
  Alcotest.(check bool) "star does not" false (traceable (Gen.star 5));
  Alcotest.(check bool) "petersen does" true (traceable (Gen.petersen ()));
  Alcotest.(check bool) "K(1,3) does not" false
    (traceable (Gen.complete_bipartite 1 3));
  Alcotest.(check bool) "grid 3x3 does" true (traceable (Gen.grid 3 3))

let test_path_model_pure_ne () =
  (* P5: a pure NE needs k = n - 1 = 4, the Hamiltonian path being the
     graph itself. *)
  Alcotest.(check (option int)) "P5 path threshold" (Some 4)
    (snd (Defender.Path_model.pure_thresholds (Gen.path 5)));
  (* star: rho = n-1 gives Tuple-model pure NE at k=4, but no Hamiltonian
     path, so the Path model never has one. *)
  let s = Gen.star 5 in
  Alcotest.(check bool) "star tuple-model k=4" true
    (Defender.Pure_nash.exists (model ~g:s ~nu:2 ~k:4));
  Alcotest.(check (option int)) "star path-model never" None
    (snd (Defender.Path_model.pure_thresholds s))

let test_path_model_thresholds () =
  let rho, path_k = Defender.Path_model.pure_thresholds (Gen.cycle 6) in
  Alcotest.(check int) "C6 tuple threshold" 3 rho;
  Alcotest.(check (option int)) "C6 path threshold" (Some 5) path_k;
  let rho_s, path_s = Defender.Path_model.pure_thresholds (Gen.star 5) in
  Alcotest.(check int) "star tuple threshold" 4 rho_s;
  Alcotest.(check (option int)) "star path threshold" None path_s

(* --- Robustness --- *)

let ne_profile () =
  let g = Gen.path 6 in
  ok (Defender.Tuple_nash.a_tuple_auto (model ~g ~nu:4 ~k:2))

let test_regret_zero_at_ne () =
  let prof = ne_profile () in
  let r = Defender.Robustness.regret prof in
  Alcotest.check q "attacker regret 0" Q.zero r.Defender.Robustness.attacker;
  Alcotest.check q "defender regret 0" Q.zero r.Defender.Robustness.defender;
  Alcotest.check q "0-NE" Q.zero (Defender.Robustness.max_regret r)

let test_tilt_vp_regret () =
  let prof = ne_profile () in
  (* Tilt one attacker toward VC vertex 0.  In this equilibrium every
     vertex has the same hit probability, so the tilted attacker itself
     loses nothing — but the load shift unbalances the defender's support
     tuples, giving the DEFENDER positive regret. *)
  let eps = Q.make 1 10 in
  let current = Engine.Profile.vp_strategy prof 0 in
  let tilted =
    Engine.Profile.replace_vp prof 0
      (Dist.Finite.make
         ((0, eps)
         :: List.map
              (fun v -> (v, Q.mul (Q.sub Q.one eps) (Dist.Finite.prob current v)))
              (Dist.Finite.support current)))
  in
  let r = Defender.Robustness.regret tilted in
  Alcotest.check q "attacker regret stays zero" Q.zero r.Defender.Robustness.attacker;
  Alcotest.(check bool) "defender regret positive" true
    Q.(r.Defender.Robustness.defender > zero);
  Alcotest.(check bool) "still an eps'-NE for generous eps'" true
    Q.(Defender.Robustness.max_regret r <= one)

let test_tilt_tp_regret_scales_linearly () =
  let prof = ne_profile () in
  let towards = List.hd (Engine.Profile.tp_support prof) in
  let regret_at eps =
    Defender.Robustness.max_regret
      (Defender.Robustness.regret
         (Defender.Robustness.tilt_tp prof ~epsilon:eps ~towards))
  in
  let r1 = regret_at (Q.make 1 10) in
  let r2 = regret_at (Q.make 2 10) in
  let r3 = regret_at (Q.make 3 10) in
  Alcotest.(check bool) "positive" true Q.(r1 > zero);
  (* exact linearity of the attacker regret in the tilt *)
  Alcotest.check q "doubling" r2 (Q.mul_int r1 2);
  Alcotest.check q "tripling" r3 (Q.mul_int r1 3)

let test_tilt_validation () =
  let prof = ne_profile () in
  Alcotest.check_raises "epsilon out of range"
    (Invalid_argument "Robustness: epsilon outside [0, 1]") (fun () ->
      ignore
        (Defender.Robustness.tilt_tp prof ~epsilon:(Q.of_int 2)
           ~towards:(List.hd (Engine.Profile.tp_support prof))));
  (* tilting with epsilon = 0 is the identity on payoffs *)
  let t0 =
    Defender.Robustness.tilt_tp prof ~epsilon:Q.zero
      ~towards:(List.hd (Engine.Profile.tp_support prof))
  in
  Alcotest.check q "no-op tilt keeps gain" (Defender.Gain.defender_gain prof)
    (Defender.Gain.defender_gain t0)

(* --- Simplex --- *)

let qa = Array.map Q.of_int

let test_simplex_textbook () =
  (* max 3x + 5y st x <= 4; 2y <= 12; 3x + 2y <= 18 -> opt 36 at (2,6) *)
  let a =
    [|
      qa [| 1; 0 |];
      qa [| 0; 2 |];
      qa [| 3; 2 |];
    |]
  in
  let b = qa [| 4; 12; 18 |] in
  let c = qa [| 3; 5 |] in
  match Lp.Simplex.maximize ~a ~b ~c with
  | Lp.Simplex.Unbounded -> Alcotest.fail "bounded LP"
  | Lp.Simplex.Optimal { objective; x; dual; _ } ->
      Alcotest.check q "objective 36" (Q.of_int 36) objective;
      Alcotest.check q "x" (Q.of_int 2) x.(0);
      Alcotest.check q "y" (Q.of_int 6) x.(1);
      Alcotest.(check bool) "primal feasible" true (Lp.Simplex.feasible ~a ~b ~x);
      (* weak duality tightness: b . dual = objective *)
      let dual_value =
        Array.fold_left Q.add Q.zero (Array.mapi (fun i yi -> Q.mul yi b.(i)) dual)
      in
      Alcotest.check q "strong duality" objective dual_value

let test_simplex_fractional_optimum () =
  (* max x + y st 2x + y <= 3; x + 2y <= 3 -> opt 2 at (1,1); then tweak:
     max 2x + y, same constraints -> x=3/2, y=0 obj 3. *)
  let a = [| qa [| 2; 1 |]; qa [| 1; 2 |] |] in
  let b = qa [| 3; 3 |] in
  (match Lp.Simplex.maximize ~a ~b ~c:(qa [| 1; 1 |]) with
  | Lp.Simplex.Optimal { objective; _ } ->
      Alcotest.check q "sym objective" (Q.of_int 2) objective
  | Lp.Simplex.Unbounded -> Alcotest.fail "bounded");
  match Lp.Simplex.maximize ~a ~b ~c:(qa [| 2; 1 |]) with
  | Lp.Simplex.Optimal { objective; x; _ } ->
      Alcotest.check q "asym objective" (Q.of_int 3) objective;
      Alcotest.check q "x = 3/2" (Q.make 3 2) x.(0)
  | Lp.Simplex.Unbounded -> Alcotest.fail "bounded"

let test_simplex_unbounded () =
  (* max x with only y constrained. *)
  let a = [| qa [| 0; 1 |] |] in
  let b = qa [| 1 |] in
  let c = qa [| 1; 0 |] in
  match Lp.Simplex.maximize ~a ~b ~c with
  | Lp.Simplex.Unbounded -> ()
  | Lp.Simplex.Optimal _ -> Alcotest.fail "expected unbounded"

let test_simplex_zero_problem () =
  (* degenerate: zero objective on a feasible region *)
  let a = [| qa [| 1; 1 |] |] in
  let b = qa [| 5 |] in
  let c = qa [| 0; 0 |] in
  match Lp.Simplex.maximize ~a ~b ~c with
  | Lp.Simplex.Optimal { objective; _ } -> Alcotest.check q "zero" Q.zero objective
  | Lp.Simplex.Unbounded -> Alcotest.fail "bounded"

let test_simplex_validation () =
  Alcotest.check_raises "negative rhs"
    (Invalid_argument "Simplex.maximize: negative right-hand side (packing form)")
    (fun () ->
      ignore
        (Lp.Simplex.maximize ~a:[| qa [| 1 |] |] ~b:[| Q.of_int (-1) |] ~c:(qa [| 1 |])));
  Alcotest.check_raises "ragged" (Invalid_argument "Simplex.maximize: ragged matrix")
    (fun () ->
      ignore (Lp.Simplex.maximize ~a:[| qa [| 1; 2 |] |] ~b:(qa [| 1 |]) ~c:(qa [| 1 |])))

(* --- Minimax defense --- *)

let test_minimax_known_values () =
  let check name g expected =
    let d = Defender.Minimax.solve g in
    Alcotest.check q (name ^ " rho*") expected d.Defender.Minimax.rho_star;
    Alcotest.(check bool) (name ^ " certified") true (Defender.Minimax.certified g d)
  in
  check "C5" (Gen.cycle 5) (Q.make 5 2);
  check "C7" (Gen.cycle 7) (Q.make 7 2);
  check "K4" (Gen.complete 4) (Q.of_int 2);
  check "K5" (Gen.complete 5) (Q.make 5 2);
  check "P4" (Gen.path 4) (Q.of_int 2);
  check "star6" (Gen.star 6) (Q.of_int 5);
  check "petersen" (Gen.petersen ()) (Q.of_int 5);
  check "K(3,3)" (Gen.complete_bipartite 3 3) (Q.of_int 3)

let test_minimax_bipartite_equals_integral () =
  (* On bipartite graphs rho* = rho (fractional = integral), so the NE
     defense and the max-min defense have the same strength. *)
  let rng = Prng.Rng.create 61 in
  for _ = 1 to 10 do
    let g = Gen.random_bipartite rng ~a:4 ~b:5 ~p:0.3 in
    let d = Defender.Minimax.solve g in
    Alcotest.check q "rho* = rho"
      (Q.of_int (Matching.Edge_cover.rho g))
      d.Defender.Minimax.rho_star;
    Alcotest.(check bool) "certified" true (Defender.Minimax.certified g d)
  done

let test_minimax_beats_integral_on_odd_cycles () =
  (* C5: max-min hit 2/5 > 1/3 (best integral cover of size 3). *)
  let d = Defender.Minimax.solve (Gen.cycle 5) in
  Alcotest.check q "value 2/5" (Q.make 2 5) d.Defender.Minimax.value;
  Alcotest.(check bool) "beats 1/3" true Q.(d.Defender.Minimax.value > make 1 3)

let test_minimax_matches_matching_ne_floor () =
  (* When a matching NE exists on a bipartite graph, its hit floor
     1/|IS| equals the max-min value. *)
  List.iter
    (fun g ->
      let prof = ok (Defender.Matching_nash.solve_auto (model ~g ~nu:2 ~k:1)) in
      let is_size = List.length (Engine.Profile.vp_support_union prof) in
      let d = Defender.Minimax.solve g in
      Alcotest.check q "NE floor = max-min value" (Q.make 1 is_size)
        d.Defender.Minimax.value)
    [ Gen.path 6; Gen.cycle 8; Gen.star 7; Gen.grid 2 4 ]

(* --- Fictitious play --- *)

let test_fictitious_converges_to_ne_value () =
  let g = Gen.path 6 in
  let m = model ~g ~nu:4 ~k:2 in
  let r = Sim_tuple.Fictitious.run (Prng.Rng.create 5) m ~rounds:20_000 in
  let expected = 8.0 /. 3.0 in
  Alcotest.(check bool)
    (Printf.sprintf "tail avg %.4f near %.4f" r.Sim_tuple.Fictitious.tail_avg_gain expected)
    true
    (abs_float (r.Sim_tuple.Fictitious.tail_avg_gain -. expected) < 0.05 *. expected)

let test_fictitious_converges_to_minimax_without_ne () =
  (* C5 admits no matching NE; fictitious play still converges — to the
     LP max-min value nu * 2/5. *)
  let g = Gen.cycle 5 in
  let m = model ~g ~nu:3 ~k:1 in
  let r = Sim_tuple.Fictitious.run (Prng.Rng.create 5) m ~rounds:20_000 in
  let expected = 3.0 *. 0.4 in
  Alcotest.(check bool)
    (Printf.sprintf "tail avg %.4f near %.4f" r.Sim_tuple.Fictitious.tail_avg_gain expected)
    true
    (abs_float (r.Sim_tuple.Fictitious.tail_avg_gain -. expected) < 0.05 *. expected)

let test_fictitious_bookkeeping () =
  let g = Gen.grid 2 3 in
  let m = model ~g ~nu:2 ~k:2 in
  let r = Sim_tuple.Fictitious.run (Prng.Rng.create 9) m ~rounds:500 in
  Alcotest.(check int) "rounds" 500 r.Sim_tuple.Fictitious.rounds;
  let freq_total = Array.fold_left ( +. ) 0.0 r.Sim_tuple.Fictitious.attack_frequency in
  Alcotest.(check (float 1e-9)) "attack frequencies sum to 1" 1.0 freq_total;
  let scan_total = Array.fold_left ( +. ) 0.0 r.Sim_tuple.Fictitious.scan_frequency in
  Alcotest.(check (float 1e-9)) "scan marginals sum to k" 2.0 scan_total;
  Alcotest.(check int) "series length" 500 (Array.length r.Sim_tuple.Fictitious.gain_series);
  Alcotest.check_raises "needs 2 rounds"
    (Invalid_argument "Fictitious.run: need at least two rounds") (fun () ->
      ignore (Sim_tuple.Fictitious.run (Prng.Rng.create 1) m ~rounds:1))

(* --- Gauss --- *)

let qa = Array.map Q.of_int

let test_gauss_unique () =
  (* x + y = 3, x - y = 1 -> (2, 1) *)
  match Lp.Gauss.solve ~a:[| qa [| 1; 1 |]; qa [| 1; -1 |] |] ~b:(qa [| 3; 1 |]) with
  | Lp.Gauss.Unique x ->
      Alcotest.check q "x" (Q.of_int 2) x.(0);
      Alcotest.check q "y" Q.one x.(1)
  | _ -> Alcotest.fail "expected unique solution"

let test_gauss_underdetermined () =
  match Lp.Gauss.solve ~a:[| qa [| 1; 1 |] |] ~b:(qa [| 3 |]) with
  | Lp.Gauss.Underdetermined -> ()
  | _ -> Alcotest.fail "expected underdetermined"

let test_gauss_inconsistent () =
  match
    Lp.Gauss.solve ~a:[| qa [| 1; 1 |]; qa [| 2; 2 |] |] ~b:(qa [| 1; 3 |])
  with
  | Lp.Gauss.Inconsistent -> ()
  | _ -> Alcotest.fail "expected inconsistent"

let test_gauss_redundant_rows () =
  (* consistent duplicates reduce to a unique solution *)
  match
    Lp.Gauss.solve
      ~a:[| qa [| 1; 0 |]; qa [| 0; 1 |]; qa [| 1; 1 |] |]
      ~b:(qa [| 2; 3; 5 |])
  with
  | Lp.Gauss.Unique x ->
      Alcotest.check q "x" (Q.of_int 2) x.(0);
      Alcotest.check q "y" (Q.of_int 3) x.(1)
  | _ -> Alcotest.fail "expected unique solution"

(* --- Support solver --- *)

let failure_to_string = function
  | `Ambiguous -> "ambiguous"
  | `Inconsistent -> "inconsistent"
  | `Nonpositive -> "nonpositive"
  | `Not_equilibrium why -> "not an equilibrium: " ^ why

let test_support_solver_recovers_matching_ne () =
  let g = Gen.path 4 in
  let m = model ~g ~nu:2 ~k:1 in
  let t id = Defender.Tuple.of_list g [ id ] in
  match Defender.Support_solver.solve m ~vp_support:[ 0; 2 ] ~tp_support:[ t 0; t 2 ] with
  | Ok prof ->
      Alcotest.check q "uniform attacker" (Q.make 1 2)
        (Dist.Finite.prob (Engine.Profile.vp_strategy prof 0) 0);
      Alcotest.check q "gain" Q.one (Defender.Gain.defender_gain prof)
  | Error f -> Alcotest.fail (failure_to_string f)

let test_support_solver_failures () =
  let g = Gen.path 4 in
  let m = model ~g ~nu:2 ~k:1 in
  let t id = Defender.Tuple.of_list g [ id ] in
  (* |S| < |T|: defender system underdetermined. *)
  (match
     Defender.Support_solver.solve m ~vp_support:[ 0 ]
       ~tp_support:[ t 0; t 1 ]
   with
  | Error `Ambiguous -> ()
  | Error f -> Alcotest.fail ("expected ambiguous: " ^ failure_to_string f)
  | Ok _ -> Alcotest.fail "expected failure");
  (* Hit(0) = p0 while Hit(1) = p0 + p1 forces p1 = 0. *)
  (match
     Defender.Support_solver.solve m ~vp_support:[ 0; 1 ] ~tp_support:[ t 0; t 1 ]
   with
  | Error `Nonpositive -> ()
  | Error f ->
      Alcotest.fail ("expected nonpositive: " ^ failure_to_string f)
  | Ok _ -> Alcotest.fail "expected failure");
  (* S={1,3} with T={e0,e1}: Hit(1) = p0+p1 must equal Hit(3) = 0, which
     contradicts normalization — inconsistent. *)
  match
    Defender.Support_solver.solve m ~vp_support:[ 1; 3 ] ~tp_support:[ t 0; t 1 ]
  with
  | Error `Inconsistent -> ()
  | Error f ->
      Alcotest.fail ("expected inconsistent: " ^ failure_to_string f)
  | Ok _ -> Alcotest.fail "expected failure"

let test_support_solver_detects_non_equilibrium () =
  (* P5: S = {1,3} with T = {e1=(1,2), e3=(3,4)} equalizes hits at 1/2
     each, but vertex 0 is never scanned — attackers would deviate. *)
  let g = Gen.path 5 in
  let m = model ~g ~nu:2 ~k:1 in
  let t id = Defender.Tuple.of_list g [ id ] in
  match
    Defender.Support_solver.solve m ~vp_support:[ 1; 3 ] ~tp_support:[ t 1; t 3 ]
  with
  | Error (`Not_equilibrium _) -> ()
  | Error f ->
      Alcotest.fail ("expected non-equilibrium: " ^ failure_to_string f)
  | Ok _ -> Alcotest.fail "vertex 0 is a free haven; cannot be an NE"

let test_support_search_paw () =
  (* The paw graph (triangle + pendant): exactly two symmetric
     equilibria, both with gain 1 (= nu/rho = 2/2). *)
  let paw = Graph.make ~n:4 [ (0, 1); (1, 2); (0, 2); (2, 3) ] in
  let m = Defender.Model.make ~graph:paw ~nu:2 ~k:1 in
  let candidates = List.init (Graph.m paw) (fun id -> Defender.Tuple.of_list paw [ id ]) in
  let nes = Defender.Support_solver.search m ~candidate_tuples:candidates in
  Alcotest.(check int) "two equilibria" 2 (List.length nes);
  List.iter
    (fun p -> Alcotest.check q "gain nu/rho" Q.one (Defender.Gain.defender_gain p))
    nes

let test_support_search_c5_full_support_ne () =
  (* C5 admits no matching NE, yet support enumeration finds its unique
     symmetric equilibrium: full supports, gain nu * 2/5 — exactly the
     minimax value (the game is strategically zero-sum). *)
  let g = Gen.cycle 5 in
  let nu = 3 in
  let m = model ~g ~nu ~k:1 in
  let candidates = List.init 5 (fun id -> Defender.Tuple.of_list g [ id ]) in
  match Defender.Support_solver.search m ~candidate_tuples:candidates with
  | [ ne ] ->
      Alcotest.(check int) "full attacker support" 5
        (List.length (Engine.Profile.vp_support_union ne));
      Alcotest.(check int) "full defender support" 5
        (List.length (Engine.Profile.tp_support ne));
      let minimax = (Defender.Minimax.solve g).Defender.Minimax.value in
      Alcotest.check q "gain = nu * minimax value"
        (Q.mul_int minimax nu)
        (Defender.Gain.defender_gain ne)
  | nes -> Alcotest.failf "expected exactly one equilibrium, got %d" (List.length nes)

let test_support_search_guards () =
  let g = Gen.grid 3 3 in
  let m = model ~g ~nu:1 ~k:1 in
  Alcotest.check_raises "n too large"
    (Invalid_argument "Support_solver.search: graph too large (n > 8)") (fun () ->
      ignore (Defender.Support_solver.search m ~candidate_tuples:[]))

(* --- Price of defense --- *)

let test_price_of_defense () =
  let g = Gen.path 6 in
  let m = model ~g ~nu:4 ~k:2 in
  let prof = ok (Defender.Tuple_nash.a_tuple_auto m) in
  (* |IS| = 3, k = 2: PoD = 3/2 *)
  Alcotest.check q "PoD = |IS|/k" (Q.make 3 2) (Defender.Gain.price_of_defense prof);
  Alcotest.check q "matches prediction"
    (Defender.Gain.predicted_price_of_defense m ~is_size:3)
    (Defender.Gain.price_of_defense prof);
  (* PoD is independent of nu *)
  let m8 = model ~g ~nu:8 ~k:2 in
  let prof8 = ok (Defender.Tuple_nash.a_tuple_auto m8) in
  Alcotest.check q "independent of nu" (Q.make 3 2)
    (Defender.Gain.price_of_defense prof8)

let () =
  Alcotest.run "extensions"
    [
      ( "path model",
        [
          Alcotest.test_case "hamiltonian path" `Quick test_hamiltonian_path;
          Alcotest.test_case "pure NE" `Quick test_path_model_pure_ne;
          Alcotest.test_case "thresholds" `Quick test_path_model_thresholds;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "zero regret at NE" `Quick test_regret_zero_at_ne;
          Alcotest.test_case "tilted attacker regret" `Quick test_tilt_vp_regret;
          Alcotest.test_case "tilt scales linearly" `Quick
            test_tilt_tp_regret_scales_linearly;
          Alcotest.test_case "validation" `Quick test_tilt_validation;
        ] );
      ( "simplex",
        [
          Alcotest.test_case "textbook LP" `Quick test_simplex_textbook;
          Alcotest.test_case "fractional optimum" `Quick test_simplex_fractional_optimum;
          Alcotest.test_case "unbounded" `Quick test_simplex_unbounded;
          Alcotest.test_case "zero objective" `Quick test_simplex_zero_problem;
          Alcotest.test_case "validation" `Quick test_simplex_validation;
        ] );
      ( "minimax defense",
        [
          Alcotest.test_case "known values" `Quick test_minimax_known_values;
          Alcotest.test_case "bipartite = integral" `Quick
            test_minimax_bipartite_equals_integral;
          Alcotest.test_case "beats integral on C5" `Quick
            test_minimax_beats_integral_on_odd_cycles;
          Alcotest.test_case "matches NE floor" `Quick
            test_minimax_matches_matching_ne_floor;
        ] );
      ( "fictitious play",
        [
          Alcotest.test_case "converges to NE value" `Slow
            test_fictitious_converges_to_ne_value;
          Alcotest.test_case "converges to minimax on C5" `Slow
            test_fictitious_converges_to_minimax_without_ne;
          Alcotest.test_case "bookkeeping" `Quick test_fictitious_bookkeeping;
        ] );
      ( "gauss",
        [
          Alcotest.test_case "unique" `Quick test_gauss_unique;
          Alcotest.test_case "underdetermined" `Quick test_gauss_underdetermined;
          Alcotest.test_case "inconsistent" `Quick test_gauss_inconsistent;
          Alcotest.test_case "redundant rows" `Quick test_gauss_redundant_rows;
        ] );
      ( "support solver",
        [
          Alcotest.test_case "recovers matching NE" `Quick
            test_support_solver_recovers_matching_ne;
          Alcotest.test_case "failure modes" `Quick test_support_solver_failures;
          Alcotest.test_case "detects non-equilibrium" `Quick
            test_support_solver_detects_non_equilibrium;
          Alcotest.test_case "paw census" `Quick test_support_search_paw;
          Alcotest.test_case "C5 full-support NE" `Quick
            test_support_search_c5_full_support_ne;
          Alcotest.test_case "guards" `Quick test_support_search_guards;
        ] );
      ( "price of defense",
        [ Alcotest.test_case "PoD = |IS|/k" `Quick test_price_of_defense ] );
    ]
