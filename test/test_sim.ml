(* Tests for the Monte-Carlo simulation substrate: the round engine, the
   policy workloads and better-response dynamics. *)

open Netgraph
module Rng = Prng.Rng
module Q = Exact.Q
module Engine = Defender.Tuple_instance.Engine
module Sim_tuple = Sim.Sim_instance.Tuple

(* Did the best-response dynamics reach a pure profile? *)
let converged = function
  | Sim_tuple.Dynamics.Converged _ -> true
  | Sim_tuple.Dynamics.Cycling _ -> false

(* Empirical escape probability of attacker [i]. *)
let escape_rate stats i =
  float_of_int stats.Sim_tuple.Engine.per_player_escapes.(i)
  /. float_of_int stats.Sim_tuple.Engine.rounds

let model ~g ~nu ~k = Defender.Model.make ~graph:g ~nu ~k

let ok = function
  | Ok x -> x
  | Error e -> Alcotest.fail ("unexpected error: " ^ e)

let ne_profile () =
  let g = Gen.path 6 in
  let m = model ~g ~nu:4 ~k:2 in
  ok (Defender.Tuple_nash.a_tuple_auto m)

(* --- Engine --- *)

let test_engine_basic_counts () =
  let prof = ne_profile () in
  let stats = Sim_tuple.Engine.play (Rng.create 1) prof ~rounds:500 in
  Alcotest.(check int) "rounds" 500 stats.Sim_tuple.Engine.rounds;
  Alcotest.(check bool) "caught within [0, nu*rounds]" true
    (stats.Sim_tuple.Engine.total_caught >= 0 && stats.Sim_tuple.Engine.total_caught <= 4 * 500);
  Alcotest.(check int) "per-player stats arity" 4
    (Array.length stats.Sim_tuple.Engine.per_player_escapes);
  Array.iteri
    (fun i esc ->
      Alcotest.(check bool)
        (Printf.sprintf "player %d escapes bounded" i)
        true
        (esc >= 0 && esc <= 500))
    stats.Sim_tuple.Engine.per_player_escapes

let test_engine_matches_analytic () =
  let prof = ne_profile () in
  let stats = Sim_tuple.Engine.play (Rng.create 7) prof ~rounds:20_000 in
  Alcotest.(check bool) "empirical mean within CI of exact value" true
    (Sim_tuple.Engine.agrees_with_analytic stats prof);
  (* escape rates near 1 - k/|IS| = 1/3 *)
  for i = 0 to 3 do
    let rate = escape_rate stats i in
    Alcotest.(check bool)
      (Printf.sprintf "player %d escape rate near 1/3" i)
      true
      (abs_float (rate -. (1.0 /. 3.0)) < 0.02)
  done

let test_engine_deterministic_profile () =
  (* Pure profile: attacker caught every single round. *)
  let g = Gen.path 2 in
  let m = model ~g ~nu:2 ~k:1 in
  let prof =
    Engine.Profile.make_mixed m
      ~vp:[ Dist.Finite.point 0; Dist.Finite.point 1 ]
      ~tp:[ (Defender.Tuple.of_list g [ 0 ], Q.one) ]
  in
  let stats = Sim_tuple.Engine.play (Rng.create 3) prof ~rounds:100 in
  Alcotest.(check int) "everyone caught always" 200 stats.Sim_tuple.Engine.total_caught;
  Alcotest.(check (float 1e-9)) "zero variance" 0.0 stats.Sim_tuple.Engine.stddev_caught;
  Alcotest.(check bool) "agrees with analytic" true
    (Sim_tuple.Engine.agrees_with_analytic stats prof)

let test_engine_record () =
  let prof = ne_profile () in
  let recorded = ref 0 in
  let check_round (r : Sim_tuple.Engine.round) =
    incr recorded;
    Alcotest.(check int) "choices arity" 4 (Array.length r.Sim_tuple.Engine.choices);
    Alcotest.(check bool) "caught consistent" true
      (r.Sim_tuple.Engine.caught >= 0 && r.Sim_tuple.Engine.caught <= 4)
  in
  ignore (Sim_tuple.Engine.play ~record:check_round (Rng.create 5) prof ~rounds:50);
  Alcotest.(check int) "all rounds recorded" 50 !recorded

let test_engine_reproducible () =
  let prof = ne_profile () in
  let a = Sim_tuple.Engine.play (Rng.create 11) prof ~rounds:1000 in
  let b = Sim_tuple.Engine.play (Rng.create 11) prof ~rounds:1000 in
  Alcotest.(check int) "same totals for same seed" a.Sim_tuple.Engine.total_caught
    b.Sim_tuple.Engine.total_caught

let test_engine_validation () =
  let prof = ne_profile () in
  Alcotest.check_raises "zero rounds"
    (Invalid_argument "Engine.play: rounds must be positive") (fun () ->
      ignore (Sim_tuple.Engine.play (Rng.create 1) prof ~rounds:0))

(* --- Workload --- *)

let test_workload_ne_defense_is_uniform_over_attackers () =
  (* Against the NE defense, adaptive attackers gain nothing: catch rate
     stays at the equilibrium value. *)
  let g = Gen.path 6 in
  let m = model ~g ~nu:4 ~k:2 in
  let prof = ok (Defender.Tuple_nash.a_tuple_auto m) in
  let ne_def = Sim_tuple.Workload.Defender_fixed (Engine.Profile.tp_strategy prof) in
  let adaptive = Sim_tuple.Workload.Attacker_adaptive { epsilon = 0.1 } in
  let outcome =
    Sim_tuple.Workload.run (Rng.create 2) m ~attacker:adaptive ~defender:ne_def
      ~rounds:20_000
  in
  (* equilibrium floor: with the NE defense, ANY attacker behaviour yields
     at least the uniform-hit floor only in expectation over vertices the
     attackers pick; adaptive attackers at best reach escape 1 - k/|IS|
     on IS vertices, but may do worse.  Catch rate must be at least the
     NE value minus noise... at least, it cannot drop below the value on
     minimum-hit vertices: k/|IS| * nu = 8/3 per round / nu. *)
  let ne_value = Q.to_float (Defender.Gain.defender_gain prof) in
  Alcotest.(check bool)
    (Printf.sprintf "mean %.3f >= NE value %.3f - slack" outcome.Sim_tuple.Workload.mean_caught
       ne_value)
    true
    (outcome.Sim_tuple.Workload.mean_caught >= ne_value -. 0.15)

let test_workload_policies_run () =
  let g = Gen.grid 2 3 in
  let m = model ~g ~nu:3 ~k:2 in
  let attackers =
    [
      Sim_tuple.Workload.Attacker_uniform;
      Sim_tuple.Workload.Attacker_fixed (Dist.Finite.uniform [ 0; 5 ]);
      Sim_tuple.Workload.Attacker_hotspot { targets = [ 0; 1 ]; concentration = 0.8 };
      Sim_tuple.Workload.Attacker_adaptive { epsilon = 0.2 };
    ]
  in
  let defenders =
    [
      Sim_tuple.Workload.Defender_uniform_tuple;
      Sim_tuple.Workload.Defender_greedy { epsilon = 0.1 };
      Sim_tuple.Workload.Defender_round_robin;
    ]
  in
  List.iter
    (fun attacker ->
      List.iter
        (fun defender ->
          let o = Sim_tuple.Workload.run (Rng.create 9) m ~attacker ~defender ~rounds:300 in
          Alcotest.(check int) "series length" 300
            (Array.length o.Sim_tuple.Workload.caught_series);
          Alcotest.(check bool) "mean bounded" true
            (o.Sim_tuple.Workload.mean_caught >= 0.0 && o.Sim_tuple.Workload.mean_caught <= 3.0))
        defenders)
    attackers

let test_workload_greedy_beats_uniform_on_hotspot () =
  (* Hotspot attackers concentrated on two adjacent vertices: the greedy
     defender should catch far more than the uniform-tuple defender. *)
  let g = Gen.grid 2 3 in
  let m = model ~g ~nu:3 ~k:1 in
  let attacker =
    Sim_tuple.Workload.Attacker_hotspot { targets = [ 0; 1 ]; concentration = 0.95 }
  in
  let greedy =
    Sim_tuple.Workload.run (Rng.create 21) m ~attacker
      ~defender:(Sim_tuple.Workload.Defender_greedy { epsilon = 0.05 })
      ~rounds:4000
  in
  let uniform =
    Sim_tuple.Workload.run (Rng.create 21) m ~attacker
      ~defender:Sim_tuple.Workload.Defender_uniform_tuple ~rounds:4000
  in
  Alcotest.(check bool)
    (Printf.sprintf "greedy %.2f > uniform %.2f" greedy.Sim_tuple.Workload.mean_caught
       uniform.Sim_tuple.Workload.mean_caught)
    true
    (greedy.Sim_tuple.Workload.mean_caught > uniform.Sim_tuple.Workload.mean_caught)

let test_workload_flaky_degrades_linearly () =
  (* Failure injection: a flaky NE defense loses exactly the failed
     fraction of its gain against NE attackers. *)
  let g = Gen.path 6 in
  let m = model ~g ~nu:4 ~k:2 in
  let prof = ok (Defender.Tuple_nash.a_tuple_auto m) in
  let attacker = Sim_tuple.Workload.Attacker_fixed (Engine.Profile.vp_strategy prof 0) in
  let gain_at f =
    let base = Sim_tuple.Workload.Defender_fixed (Engine.Profile.tp_strategy prof) in
    let defender =
      if f = 0.0 then base else Sim_tuple.Workload.Defender_flaky { base; failure_rate = f }
    in
    (Sim_tuple.Workload.run (Rng.create 77) m ~attacker ~defender ~rounds:30_000)
      .Sim_tuple.Workload.mean_caught
  in
  let full = gain_at 0.0 in
  let analytic = Q.to_float (Defender.Gain.defender_gain prof) in
  Alcotest.(check bool) "full gain matches analytic" true
    (abs_float (full -. analytic) < 0.05);
  List.iter
    (fun f ->
      let measured = gain_at f in
      let predicted = (1.0 -. f) *. analytic in
      Alcotest.(check bool)
        (Printf.sprintf "f=%.2f: %.3f near %.3f" f measured predicted)
        true
        (abs_float (measured -. predicted) < 0.06))
    [ 0.25; 0.5; 0.75 ];
  Alcotest.(check string) "policy name" "flaky(fixed/NE, f=0.50)"
    (Sim_tuple.Workload.policy_name
       (Sim_tuple.Workload.Defender_flaky
          { base = Sim_tuple.Workload.Defender_fixed (Engine.Profile.tp_strategy prof);
            failure_rate = 0.5 }));
  Alcotest.check_raises "failure rate validated"
    (Invalid_argument "Workload.run: failure_rate outside [0, 1)") (fun () ->
      ignore
        (Sim_tuple.Workload.run (Rng.create 1) m ~attacker
           ~defender:
             (Sim_tuple.Workload.Defender_flaky
                { base = Sim_tuple.Workload.Defender_uniform_tuple; failure_rate = 1.5 })
           ~rounds:10))

let test_workload_validation () =
  let g = Gen.path 4 in
  let m = model ~g ~nu:1 ~k:2 in
  Alcotest.check_raises "wrong tuple size"
    (Invalid_argument "Workload.run: fixed defender tuple size <> k") (fun () ->
      ignore
        (Sim_tuple.Workload.run (Rng.create 1) m ~attacker:Sim_tuple.Workload.Attacker_uniform
           ~defender:
             (Sim_tuple.Workload.Defender_fixed [ (Defender.Tuple.of_list g [ 0 ], Q.one) ])
           ~rounds:10));
  Alcotest.(check string) "policy names" "greedy"
    (Sim_tuple.Workload.policy_name (Sim_tuple.Workload.Defender_greedy { epsilon = 0.1 }));
  Alcotest.(check string) "attacker names" "adaptive"
    (Sim_tuple.Workload.attacker_name (Sim_tuple.Workload.Attacker_adaptive { epsilon = 0.1 }))

(* --- Dynamics --- *)

let test_dynamics_converges_when_pure_ne_exists () =
  (* K4 with k = 2: an edge cover of size 2 exists, dynamics must converge. *)
  let g = Gen.complete 4 in
  let m = model ~g ~nu:2 ~k:2 in
  match Sim_tuple.Dynamics.run (Rng.create 13) m ~max_steps:10_000 with
  | Sim_tuple.Dynamics.Converged { profile; _ } ->
      Alcotest.(check bool) "converged profile is pure NE" true
        (Engine.Pure.is_pure_ne m profile)
  | Sim_tuple.Dynamics.Cycling _ -> Alcotest.fail "K4 k=2 dynamics should converge"

let test_dynamics_cycles_when_no_pure_ne () =
  (* P6 with k = 1: n = 6 >= 3 = 2k+1, no pure NE, dynamics churn forever. *)
  let g = Gen.path 6 in
  let m = model ~g ~nu:2 ~k:1 in
  match Sim_tuple.Dynamics.run (Rng.create 17) m ~max_steps:3000 with
  | Sim_tuple.Dynamics.Cycling { steps } -> Alcotest.(check int) "budget exhausted" 3000 steps
  | Sim_tuple.Dynamics.Converged _ -> Alcotest.fail "P6 k=1 has no pure NE"

let test_dynamics_agrees_with_theorem31_on_atlas () =
  List.iter
    (fun (name, g) ->
      if Graph.m g >= 2 then begin
        let k = 2 in
        let m = model ~g ~nu:2 ~k in
        let converged =
          converged
            (Sim_tuple.Dynamics.run (Rng.create 19) m ~max_steps:4000)
        in
        Alcotest.(check bool)
          (Printf.sprintf "%s: dynamics converge iff pure NE exists" name)
          (Defender.Pure_nash.exists m) converged
      end)
    (Gen.atlas_small ())

let test_dynamics_record () =
  let g = Gen.path 5 in
  let m = model ~g ~nu:1 ~k:1 in
  let steps = ref 0 in
  let record (r : Sim_tuple.Dynamics.step_record) =
    incr steps;
    Alcotest.(check bool) "caught in range" true
      (r.Sim_tuple.Dynamics.caught_after >= 0 && r.Sim_tuple.Dynamics.caught_after <= 1)
  in
  ignore (Sim_tuple.Dynamics.run ~record (Rng.create 23) m ~max_steps:200);
  Alcotest.(check bool) "steps recorded" true (!steps > 0)

(* --- Convergence traces --- *)

module C = Sim.Convergence

let pt i value lower upper =
  { C.iteration = i; value; lower; upper }

let qt = Alcotest.testable Q.pp Q.equal

let test_convergence_basic () =
  let t = C.create () in
  Alcotest.(check int) "empty" 0 (C.length t);
  Alcotest.(check bool) "no final" true (C.final t = None);
  Alcotest.(check (list (pair int int)) "no points" [])
    (List.map (fun _ -> (0, 0)) (C.points t));
  C.record t (pt 1 Q.one Q.zero Q.one);
  C.record t (pt 2 (Q.make 1 2) (Q.make 1 2) Q.one);
  Alcotest.(check int) "length" 2 (C.length t);
  Alcotest.(check (list qt)) "gaps" [ Q.one; Q.make 1 2 ]
    (List.map (fun p -> Q.sub p.C.upper p.C.lower) (C.points t))

let test_convergence_gapless () =
  let t = C.create () in
  C.record t (pt 1 Q.one Q.zero Q.one);
  Alcotest.check_raises "gap rejected"
    (Invalid_argument "Convergence.record: iteration 3 after 1 (gapless)")
    (fun () -> C.record t (pt 3 Q.one Q.zero Q.one))

let test_convergence_envelope () =
  (* Regression: the envelope's FIRST entry must use the first point's
     bounds, not the final refs ([::] has no evaluation-order
     guarantee, and an earlier version computed the head after the
     mutating map over the tail). *)
  let t = C.create () in
  C.record t (pt 1 Q.one Q.zero Q.one);
  C.record t (pt 2 (Q.make 1 2) (Q.make 1 2) Q.one);
  C.record t (pt 3 Q.one Q.zero Q.one);
  C.record t (pt 4 (Q.make 2 3) (Q.make 2 3) (Q.make 2 3));
  Alcotest.(check (list qt)) "envelope"
    [ Q.one; Q.make 1 2; Q.make 1 2; Q.zero ]
    (C.envelope t);
  Alcotest.(check bool) "non-increasing" true
    (let rec scan = function
       | a :: (b :: _ as rest) -> Q.( >= ) a b && scan rest
       | _ -> true
     in
     scan (C.envelope t));
  Alcotest.(check (option int)) "converged at 4" (Some 4) (C.converged_at t)

let test_convergence_not_converged () =
  let t = C.create () in
  C.record t (pt 1 Q.one Q.zero Q.one);
  Alcotest.(check (option int)) "open gap" None (C.converged_at t)

let () =
  Alcotest.run "sim"
    [
      ( "engine",
        [
          Alcotest.test_case "basic counts" `Quick test_engine_basic_counts;
          Alcotest.test_case "matches analytic" `Quick test_engine_matches_analytic;
          Alcotest.test_case "deterministic profile" `Quick
            test_engine_deterministic_profile;
          Alcotest.test_case "record callback" `Quick test_engine_record;
          Alcotest.test_case "reproducible" `Quick test_engine_reproducible;
          Alcotest.test_case "validation" `Quick test_engine_validation;
        ] );
      ( "workload",
        [
          Alcotest.test_case "NE defense floor" `Quick
            test_workload_ne_defense_is_uniform_over_attackers;
          Alcotest.test_case "all policies run" `Quick test_workload_policies_run;
          Alcotest.test_case "greedy beats uniform on hotspot" `Quick
            test_workload_greedy_beats_uniform_on_hotspot;
          Alcotest.test_case "flaky defense degrades linearly" `Slow
            test_workload_flaky_degrades_linearly;
          Alcotest.test_case "validation" `Quick test_workload_validation;
        ] );
      ( "dynamics",
        [
          Alcotest.test_case "converges with pure NE" `Quick
            test_dynamics_converges_when_pure_ne_exists;
          Alcotest.test_case "cycles without pure NE" `Quick
            test_dynamics_cycles_when_no_pure_ne;
          Alcotest.test_case "atlas agreement with thm 3.1" `Quick
            test_dynamics_agrees_with_theorem31_on_atlas;
          Alcotest.test_case "record callback" `Quick test_dynamics_record;
        ] );
      ( "convergence",
        [
          Alcotest.test_case "basic recording" `Quick test_convergence_basic;
          Alcotest.test_case "gapless validation" `Quick
            test_convergence_gapless;
          Alcotest.test_case "envelope head regression" `Quick
            test_convergence_envelope;
          Alcotest.test_case "open gap" `Quick test_convergence_not_converged;
        ] );
    ]
