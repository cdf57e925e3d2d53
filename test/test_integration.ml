(* End-to-end integration tests across every library: the full story of the
   paper exercised on realistic instances, cross-validated between the
   analytic (exact-rational) layer, the brute-force oracles and the
   Monte-Carlo simulator. *)

open Netgraph
module Q = Exact.Q
module Engine = Defender.Tuple_instance.Engine
module Sim_tuple = Sim.Sim_instance.Tuple
module V = Engine.Verify

let q = Alcotest.testable Q.pp Q.equal

let ok = function
  | Ok x -> x
  | Error e -> Alcotest.fail ("unexpected error: " ^ e)

(* Scenario 1: the full bipartite pipeline on a random enterprise-ish
   two-tier network, verified three ways. *)
let test_full_pipeline_random_bipartite () =
  let rng = Prng.Rng.create 2026 in
  for _ = 1 to 8 do
    let g = Gen.random_bipartite rng ~a:4 ~b:6 ~p:0.3 in
    let feasible = Defender.Pipeline.max_feasible_k g in
    let k = max 1 (feasible / 2) in
    let nu = 5 in
    let m = Defender.Model.make ~graph:g ~nu ~k in
    let outcome = ok (Defender.Pipeline.solve m) in
    let prof = outcome.Defender.Pipeline.profile in
    (* 1. certificate verification *)
    Alcotest.(check bool) "certificate" true
      (V.verdict_is_confirmed (V.mixed_ne V.Certificate prof));
    (* 2. exhaustive verification when feasible *)
    (match Defender.Model.tuple_space_size m with
    | Some c when c <= 100_000 ->
        Alcotest.(check bool) "exhaustive" true
          (V.verdict_is_confirmed (V.mixed_ne V.Exhaustive prof))
    | _ -> ());
    (* 3. characterization *)
    Alcotest.(check bool) "characterization" true
      (Defender.Characterization.holds V.Certificate prof);
    (* 4. Monte-Carlo agreement *)
    let stats = Sim_tuple.Engine.play (Prng.Rng.create 55) prof ~rounds:8000 in
    Alcotest.(check bool) "simulation agrees" true
      (Sim_tuple.Engine.agrees_with_analytic stats prof);
    (* 5. gain law *)
    let is_size = List.length (Engine.Profile.vp_support_union prof) in
    Alcotest.check q "gain = k*nu/|IS|"
      (Q.make (k * nu) is_size)
      (Defender.Gain.defender_gain prof)
  done

(* Scenario 2: the reduction commutes with profit scaling across a k-sweep
   ("the power of the defender" measured end to end). *)
let test_power_of_the_defender_sweep () =
  let g = Gen.grid 3 4 in
  let nu = 7 in
  let m1 = Defender.Model.make ~graph:g ~nu ~k:1 in
  let edge_prof = ok (Defender.Matching_nash.solve_auto m1) in
  let is_size = List.length (Engine.Profile.vp_support_union edge_prof) in
  let base = Defender.Gain.defender_gain edge_prof in
  let points = ref [] in
  for k = 1 to is_size do
    let lifted = ok (Defender.Reduction.edge_to_tuple ~k edge_prof) in
    let gain = Defender.Gain.defender_gain lifted in
    Alcotest.check q "exact linear law" (Q.mul_int base k) gain;
    points := (float_of_int k, Q.to_float gain) :: !points
  done;
  (* The measured curve is exactly linear with slope nu/|IS|. *)
  let fit = Harness.Stats.linear_fit !points in
  Alcotest.(check (float 1e-9)) "slope nu/|IS|"
    (float_of_int nu /. float_of_int is_size)
    fit.Harness.Stats.slope;
  Alcotest.(check bool) "R^2 = 1" true (Harness.Stats.is_linear !points)

(* Scenario 3: Theorem 3.1 pure NE boundary, theorem vs brute force vs
   dynamics, on a family crossing the n = 2k boundary. *)
let test_pure_ne_boundary_triangulated () =
  for half_n = 1 to 4 do
    let n = 2 * half_n in
    if n >= 3 then begin
      let g = Gen.cycle n in
      let k = half_n in
      let m = Defender.Model.make ~graph:g ~nu:2 ~k in
      (* Cycle C_{2k} has a perfect matching: pure NE at k = n/2. *)
      Alcotest.(check bool)
        (Printf.sprintf "C%d k=%d exists" n k)
        true (Defender.Pure_nash.exists m);
      Alcotest.(check bool) "brute agrees" true (Engine.Pure.exists_brute_force m);
      Alcotest.(check bool) "dynamics converge" true
        (Sim_tuple.Dynamics.is_converged
           (Sim_tuple.Dynamics.run (Prng.Rng.create 3) m ~max_steps:5000));
      (* One fewer edge of power: no pure NE (rho = n/2 > k-1). *)
      if k > 1 then begin
        let m' = Defender.Model.make ~graph:g ~nu:2 ~k:(k - 1) in
        Alcotest.(check bool) "below rho: none" false (Defender.Pure_nash.exists m');
        Alcotest.(check bool) "dynamics churn" false
          (Sim_tuple.Dynamics.is_converged
             (Sim_tuple.Dynamics.run (Prng.Rng.create 3) m' ~max_steps:2000))
      end
    end
  done

(* Scenario 4: serialization round trip carries equilibria: save a graph,
   reload it, recompute the NE, identical supports and gain. *)
let test_serialization_roundtrip_equilibrium () =
  let g = Gen.grid 2 4 in
  let text = Edge_list.to_string g in
  let g' = Edge_list.of_string text in
  let solve graph =
    let m = Defender.Model.make ~graph ~nu:3 ~k:2 in
    ok (Defender.Tuple_nash.a_tuple_auto m)
  in
  let a = solve g and b = solve g' in
  Alcotest.(check (list int)) "same attacker support"
    (Engine.Profile.vp_support_union a)
    (Engine.Profile.vp_support_union b);
  Alcotest.check q "same gain" (Defender.Gain.defender_gain a)
    (Defender.Gain.defender_gain b)

(* Scenario 5: simulator triangulation on the Edge model (k = 1), the
   original [7] setting, including per-player escape rates. *)
let test_edge_model_end_to_end () =
  let g = Gen.star 9 in
  let nu = 6 in
  let m = Defender.Model.make ~graph:g ~nu ~k:1 in
  let prof = ok (Defender.Matching_nash.solve_auto m) in
  (* star: IS = 8 leaves, each support edge = spoke; gain = nu/8. *)
  Alcotest.check q "gain nu/8" (Q.make nu 8) (Defender.Gain.defender_gain prof);
  let stats = Sim_tuple.Engine.play (Prng.Rng.create 77) prof ~rounds:30_000 in
  Alcotest.(check bool) "simulation agrees" true
    (Sim_tuple.Engine.agrees_with_analytic stats prof);
  for i = 0 to nu - 1 do
    let rate = Sim_tuple.Engine.escape_rate stats i in
    Alcotest.(check bool)
      (Printf.sprintf "escape rate of vp%d near 7/8" i)
      true
      (abs_float (rate -. 0.875) < 0.02)
  done

(* Scenario 6: defender policy ablation — at equilibrium the NE defense
   yields at least the gain of naive baselines against NE attackers. *)
let test_defense_ablation () =
  let g = Gen.path 8 in
  let m = Defender.Model.make ~graph:g ~nu:4 ~k:2 in
  let prof = ok (Defender.Tuple_nash.a_tuple_auto m) in
  let ne_attacker =
    Sim_tuple.Workload.Attacker_fixed (Engine.Profile.vp_strategy prof 0)
  in
  let run defender =
    (Sim_tuple.Workload.run (Prng.Rng.create 31) m ~attacker:ne_attacker ~defender
       ~rounds:15_000)
      .Sim_tuple.Workload.mean_caught
  in
  let ne_gain = run (Sim_tuple.Workload.Defender_fixed (Engine.Profile.tp_strategy prof)) in
  let uniform_gain = run Sim_tuple.Workload.Defender_uniform_tuple in
  let analytic = Q.to_float (Defender.Gain.defender_gain prof) in
  Alcotest.(check bool)
    (Printf.sprintf "NE empirical %.3f matches analytic %.3f" ne_gain analytic)
    true
    (abs_float (ne_gain -. analytic) < 0.1);
  (* Against NE attackers every defense gets at most the NE value
     (attackers are indifferent): uniform defense cannot beat it. *)
  Alcotest.(check bool)
    (Printf.sprintf "uniform %.3f <= NE %.3f + noise" uniform_gain ne_gain)
    true
    (uniform_gain <= ne_gain +. 0.1)

(* Scenario 7: cross-model consistency — A_tuple equals the lift of
   algorithm A's output through the reduction (they are the same
   construction, Theorem 4.12). *)
let test_a_tuple_equals_reduction_lift () =
  let g = Gen.complete_bipartite 3 4 in
  let nu = 3 and k = 2 in
  let partition =
    match Defender.Matching_nash.find_partition g with
    | Some p -> p
    | None -> Alcotest.fail "bipartite graph admits partition"
  in
  let m1 = Defender.Model.make ~graph:g ~nu ~k:1 in
  let mk = Defender.Model.make ~graph:g ~nu ~k in
  let edge_prof = ok (Defender.Matching_nash.solve m1 partition) in
  let via_reduction = ok (Defender.Reduction.edge_to_tuple ~k edge_prof) in
  let via_a_tuple = ok (Defender.Tuple_nash.a_tuple mk partition) in
  Alcotest.(check (list int)) "same attacker support"
    (Engine.Profile.vp_support_union via_reduction)
    (Engine.Profile.vp_support_union via_a_tuple);
  Alcotest.(check (list int)) "same defender edges"
    (Defender.Tuple.edge_union (Engine.Profile.tp_support via_reduction))
    (Defender.Tuple.edge_union (Engine.Profile.tp_support via_a_tuple));
  Alcotest.(check int) "same tuple count"
    (List.length (Engine.Profile.tp_support via_reduction))
    (List.length (Engine.Profile.tp_support via_a_tuple))

let () =
  Alcotest.run "integration"
    [
      ( "end-to-end",
        [
          Alcotest.test_case "random bipartite pipeline (5 oracles)" `Slow
            test_full_pipeline_random_bipartite;
          Alcotest.test_case "power-of-defender sweep" `Quick
            test_power_of_the_defender_sweep;
          Alcotest.test_case "pure NE boundary triangulated" `Slow
            test_pure_ne_boundary_triangulated;
          Alcotest.test_case "serialization carries equilibria" `Quick
            test_serialization_roundtrip_equilibrium;
          Alcotest.test_case "edge model end to end" `Quick test_edge_model_end_to_end;
          Alcotest.test_case "defense ablation" `Slow test_defense_ablation;
          Alcotest.test_case "A_tuple = reduction lift" `Quick
            test_a_tuple_equals_reduction_lift;
        ] );
    ]
