(* Tests for the double-oracle equilibrium solver (Solver.Double_oracle)
   and the exact weighted best-response oracles it column-generates
   with: oracle-vs-enumeration properties, rediscovery of the paper's
   matching NEs (rational equality, zero oracle gap), agreement with the
   Minimax LP at k=1, verified equilibria on instances with no closed
   form, warm seeding, determinism, the do.* Obs counters, and a seeded
   differential check against the fully enumerated matrix game on
   random small instances of both games. *)

open Netgraph
module Q = Exact.Q
module TG = Defender.Tuple_game
module SG = Defender.Subgraph_game
module DO = Solver.Instances.Tuple
module DOS = Solver.Instances.Subgraph
module SEngine = Defender.Subgraph_instance.Engine
module Engine = Defender.Tuple_instance.Engine

let q = Alcotest.testable Q.pp Q.equal
let model ~g ~nu ~k = Defender.Model.make ~graph:g ~nu ~k

(* --- the weighted oracles are exact: compare against enumeration --- *)

let exhaustive_best_tuple m weight =
  TG.fold_strategies m ~init:Q.zero ~f:(fun acc t ->
      Q.max acc
        (List.fold_left
           (fun s v -> Q.add s weight.(v))
           Q.zero (TG.covered m t)))

let arb_weighted_model =
  QCheck.make
    ~print:(fun (seed, n, k, ws) ->
      Printf.sprintf "seed=%d n=%d k=%d ws=[%s]" seed n k
        (String.concat ";" (List.map string_of_int ws)))
    QCheck.Gen.(
      int_range 0 1000 >>= fun seed ->
      int_range 4 7 >>= fun n ->
      int_range 1 3 >>= fun k ->
      list_repeat n (int_range 0 6) >>= fun ws -> return (seed, n, k, ws))

let prop_tuple_oracle_exact =
  QCheck.Test.make ~name:"tuple weighted oracle = enumeration max" ~count:120
    arb_weighted_model (fun (seed, n, k, ws) ->
      let rng = Prng.Rng.create seed in
      let g = Gen.gnp_connected rng ~n ~p:0.5 in
      let k = min k (Graph.m g) in
      let m = model ~g ~nu:2 ~k in
      let weight = Array.of_list (List.map (fun w -> Q.make w 7) ws) in
      let t = TG.best_response_weighted m ~weight in
      let value =
        List.fold_left
          (fun s v -> Q.add s weight.(v))
          Q.zero (TG.covered m t)
      in
      Q.equal value (exhaustive_best_tuple m weight))

let prop_subgraph_oracle_exact =
  QCheck.Test.make ~name:"subgraph weighted oracle = enumeration max"
    ~count:60 arb_weighted_model (fun (seed, n, lambda, ws) ->
      let rng = Prng.Rng.create seed in
      let g = Gen.gnp_connected rng ~n ~p:0.5 in
      let lambda = min lambda (Graph.n g) in
      let inst = SG.make ~graph:g ~nu:2 ~lambda in
      let weight = Array.of_list (List.map (fun w -> Q.make w 7) ws) in
      let s = SG.best_response_weighted inst ~weight in
      let value =
        Array.fold_left (fun acc v -> Q.add acc weight.(v)) Q.zero s
      in
      let best =
        SG.fold_strategies inst ~init:Q.zero ~f:(fun acc s' ->
            Q.max acc
              (Array.fold_left (fun a v -> Q.add a weight.(v)) Q.zero s'))
      in
      Q.equal value best)

let test_oracle_rejects_bad_weights () =
  let m = model ~g:(Gen.path 4) ~nu:1 ~k:1 in
  Alcotest.check_raises "wrong length"
    (Invalid_argument "Tuple_game.best_response_weighted: |weight| <> n")
    (fun () ->
      ignore (TG.best_response_weighted m ~weight:[| Q.one |]))

(* --- D1-style: the loop rediscovers matching NEs exactly --- *)

let test_rediscovers_matching_ne () =
  List.iter
    (fun (name, g, nu, ks) ->
      List.iter
        (fun k ->
          let m = model ~g ~nu ~k in
          let char =
            match Defender.Tuple_nash.a_tuple_auto m with
            | Ok p -> p
            | Error e -> Alcotest.failf "%s k=%d: characterization: %s" name k e
          in
          let r = DO.solve m in
          let gain = Defender.Gain.defender_gain char in
          Alcotest.check q
            (Printf.sprintf "%s k=%d: nu*value = characterization gain" name k)
            gain
            (Q.mul_int r.DO.value nu);
          let prof = DO.profile m r in
          Alcotest.(check bool)
            (Printf.sprintf "%s k=%d: NE (exhaustive)" name k)
            true
            (Engine.Verify.verdict_is_confirmed
               (Engine.Verify.mixed_ne (Engine.Verify.Exhaustive 200_000)
                  prof));
          Alcotest.(check bool)
            (Printf.sprintf "%s k=%d: NE (oracle mode)" name k)
            true
            (Engine.Verify.verdict_is_confirmed
               (Engine.Verify.mixed_ne Engine.Verify.Oracle prof)))
        ks)
    [
      ("P6", Gen.path 6, 2, [ 1; 2; 3 ]);
      ("C6", Gen.cycle 6, 3, [ 1; 2; 3 ]);
      ("K33", Gen.complete_bipartite 3 3, 2, [ 1; 2 ]);
    ]

let test_k1_equals_minimax () =
  (* At k=1 the game value is the max-min interception probability
     1/rho*(G), for ANY graph — including those without matching NEs. *)
  List.iter
    (fun (name, g) ->
      let m = model ~g ~nu:2 ~k:1 in
      let r = DO.solve m in
      let mm = Defender.Minimax.solve g in
      Alcotest.check q
        (Printf.sprintf "%s: DO value = 1/rho*" name)
        mm.Defender.Minimax.value r.DO.value)
    [
      ("C5", Gen.cycle 5);
      ("K4", Gen.complete 4);
      ("petersen", Gen.petersen ());
      ("wheel6", Gen.wheel 6);
    ]

(* --- D2-style: verified NE where no closed form exists --- *)

let test_no_closed_form_instances () =
  List.iter
    (fun (name, g, nu, k) ->
      let m = model ~g ~nu ~k in
      (match Defender.Tuple_nash.a_tuple_auto m with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s: unexpectedly has a closed form" name);
      let r = DO.solve m in
      let prof = DO.profile m r in
      Alcotest.(check bool)
        (Printf.sprintf "%s: NE (oracle mode)" name)
        true
        (Engine.Verify.verdict_is_confirmed
           (Engine.Verify.mixed_ne Engine.Verify.Oracle prof));
      Alcotest.(check bool)
        (Printf.sprintf "%s: NE (exhaustive)" name)
        true
        (Engine.Verify.verdict_is_confirmed
           (Engine.Verify.mixed_ne (Engine.Verify.Exhaustive 200_000) prof));
      Alcotest.check q
        (Printf.sprintf "%s: gain = nu*value" name)
        (Q.mul_int r.DO.value nu)
        (Defender.Gain.defender_gain prof))
    [
      ("C5 k=2", Gen.cycle 5, 2, 2);
      ("petersen k=2", Gen.petersen (), 3, 2);
      ("wheel6 k=2", Gen.wheel 6, 2, 2);
    ]

(* --- the subgraph game through the same loop --- *)

let test_subgraph_cycle () =
  (* Vertex-transitive instance: value = lambda/n, gain = nu*lambda/n. *)
  let inst = SG.make ~graph:(Gen.cycle 6) ~nu:3 ~lambda:2 in
  let r = DOS.solve inst in
  Alcotest.check q "C6 lambda=2 value" (Q.make 2 6) r.DOS.value;
  let prof = DOS.profile inst r in
  Alcotest.(check bool) "verified (oracle)" true
    (SEngine.Verify.verdict_is_confirmed
       (SEngine.Verify.mixed_ne SEngine.Verify.Oracle prof));
  Alcotest.(check bool) "verified (exhaustive)" true
    (SEngine.Verify.verdict_is_confirmed
       (SEngine.Verify.mixed_ne (SEngine.Verify.Exhaustive 100_000) prof))

let test_subgraph_no_closed_form () =
  let inst = SG.make ~graph:(Gen.petersen ()) ~nu:2 ~lambda:2 in
  let r = DOS.solve inst in
  Alcotest.check q "petersen lambda=2 value" (Q.make 2 10) r.DOS.value;
  let prof = DOS.profile inst r in
  Alcotest.(check bool) "verified (oracle)" true
    (SEngine.Verify.verdict_is_confirmed
       (SEngine.Verify.mixed_ne SEngine.Verify.Oracle prof))

(* --- seeding, convergence accounting, determinism --- *)

let test_warm_seed_one_iteration () =
  (* Seeding the restricted sets with a known equilibrium's supports
     turns the loop into a one-iteration checker of that equilibrium. *)
  let g = Gen.cycle 6 in
  let m = model ~g ~nu:3 ~k:1 in
  let char =
    match Defender.Tuple_nash.a_tuple_auto m with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let r =
    DO.solve m
      ~init_vertices:(Engine.Profile.vp_support char 0)
      ~init_strategies:(List.map fst (Engine.Profile.tp_strategy char))
  in
  Alcotest.(check int) "one iteration" 1 r.DO.stats.DO.iterations;
  Alcotest.(check string) "byte-identical to characterization profile"
    (Engine.Io.to_string char)
    (Engine.Io.to_string (DO.profile m r))

let test_iteration_reports () =
  let m = model ~g:(Gen.petersen ()) ~nu:2 ~k:2 in
  let trace = ref [] in
  let r = DO.solve m ~on_iteration:(fun it -> trace := it :: !trace) in
  let trace = List.rev !trace in
  Alcotest.(check int) "one report per iteration" r.DO.stats.DO.iterations
    (List.length trace);
  List.iter
    (fun it ->
      Alcotest.(check bool) "lower <= value" true
        (Q.( <= ) it.DO.lower it.DO.value);
      Alcotest.(check bool) "value <= upper" true
        (Q.( <= ) it.DO.value it.DO.upper))
    trace;
  let last = List.nth trace (List.length trace - 1) in
  Alcotest.check q "final gap zero" last.DO.lower last.DO.upper;
  Alcotest.(check int) "oracle calls = 2 per iteration"
    (2 * r.DO.stats.DO.iterations)
    r.DO.stats.DO.oracle_calls

let test_deterministic () =
  let m = model ~g:(Gen.petersen ()) ~nu:2 ~k:2 in
  let r1 = DO.solve m and r2 = DO.solve m in
  Alcotest.(check string) "same profile bytes"
    (Engine.Io.to_string (DO.profile m r1))
    (Engine.Io.to_string (DO.profile m r2));
  Alcotest.(check int) "same iterations" r1.DO.stats.DO.iterations
    r2.DO.stats.DO.iterations

let test_do_counters () =
  let old = Obs.level () in
  Obs.set_level Obs.Counters;
  Fun.protect ~finally:(fun () -> Obs.set_level old) @@ fun () ->
  let snap = Obs.snapshot () in
  let m = model ~g:(Gen.cycle 5) ~nu:2 ~k:2 in
  let r = DO.solve m in
  let d = Obs.delta snap in
  let get name =
    match List.assoc_opt name d.Obs.counters with Some v -> v | None -> 0
  in
  Alcotest.(check int) "do.iterations" r.DO.stats.DO.iterations
    (get "do.iterations");
  Alcotest.(check int) "do.oracle_calls" r.DO.stats.DO.oracle_calls
    (get "do.oracle_calls");
  Alcotest.(check int) "do.support_size"
    (Dist.Finite.support_size r.DO.sigma + List.length r.DO.tp)
    (get "do.support_size")

(* --- differential: double-oracle vs the fully enumerated matrix game --- *)

(* One game's differential check: the double-oracle value must equal,
   exactly, the value of the full strategies x vertices interception
   matrix solved by Lp.Matrix_game; the double-oracle profile must pass
   exhaustive verification; and its Io round trip must keep the
   defender's expected profit at nu * value. *)
module Differential (G : Defender.Game.S) = struct
  module Engine = Defender.Game_engine.Make (G)
  module DO = Solver.Double_oracle.Make (G)

  let full_matrix_value inst =
    let n = Graph.n (G.graph inst) in
    let rows =
      G.fold_strategies inst ~init:[] ~f:(fun acc d ->
          Array.init n (fun v -> if G.covers inst d v then Q.one else Q.zero)
          :: acc)
    in
    (Lp.Matrix_game.solve (Array.of_list (List.rev rows))).Lp.Matrix_game.value

  let check ~label inst =
    let r = DO.solve inst in
    Alcotest.check q (label ^ ": DO value = full matrix game value")
      (full_matrix_value inst) r.DO.value;
    let prof = DO.profile inst r in
    Alcotest.(check bool)
      (label ^ ": DO profile verified (exhaustive)")
      true
      (Engine.Verify.verdict_is_confirmed
         (Engine.Verify.mixed_ne (Engine.Verify.Exhaustive 200_000) prof));
    let back = Engine.Io.of_string inst (Engine.Io.to_string prof) in
    let gain = Q.mul_int r.DO.value (G.nu inst) in
    Alcotest.check q (label ^ ": Io round trip keeps the defender profit")
      gain
      (Engine.Profit.expected_tp back);
    gain
end

module Diff_tuple = Differential (Defender.Tuple_game)
module Diff_subgraph = Differential (Defender.Subgraph_game)

let test_differential () =
  let rng = Prng.Rng.create 2024 in
  for i = 1 to 40 do
    let n = Prng.Rng.int_in_range rng ~lo:3 ~hi:7 in
    let g = Gen.gnp_connected rng ~n ~p:0.45 in
    let size = min (1 + Prng.Rng.int rng 2) (Graph.m g) in
    let nu = 1 + Prng.Rng.int rng 2 in
    let label game =
      Printf.sprintf "#%d %s n=%d m=%d nu=%d size=%d" i game n (Graph.m g) nu
        size
    in
    let m = model ~g ~nu ~k:size in
    let gain = Diff_tuple.check ~label:(label "tuple") m in
    (match Defender.Tuple_nash.a_tuple_auto m with
    | Ok char ->
        Alcotest.check q
          (label "tuple" ^ ": A_tuple profit = DO defender value")
          gain
          (Engine.Profit.expected_tp char)
    | Error _ -> ());
    ignore
      (Diff_subgraph.check ~label:(label "subgraph")
         (SG.make ~graph:g ~nu ~lambda:size))
  done

let () =
  Alcotest.run "solver"
    [
      ( "oracles",
        [
          QCheck_alcotest.to_alcotest prop_tuple_oracle_exact;
          QCheck_alcotest.to_alcotest prop_subgraph_oracle_exact;
          Alcotest.test_case "bad weights rejected" `Quick
            test_oracle_rejects_bad_weights;
        ] );
      ( "double-oracle",
        [
          Alcotest.test_case "rediscovers matching NEs" `Quick
            test_rediscovers_matching_ne;
          Alcotest.test_case "k=1 value = minimax" `Quick test_k1_equals_minimax;
          Alcotest.test_case "no closed form, verified NE" `Quick
            test_no_closed_form_instances;
          Alcotest.test_case "subgraph game on C6" `Quick test_subgraph_cycle;
          Alcotest.test_case "subgraph game on Petersen" `Quick
            test_subgraph_no_closed_form;
        ] );
      ( "differential",
        [
          Alcotest.test_case "double-oracle = full matrix game, both games"
            `Quick test_differential;
        ] );
      ( "loop",
        [
          Alcotest.test_case "warm seed converges in one iteration" `Quick
            test_warm_seed_one_iteration;
          Alcotest.test_case "iteration reports and bounds" `Quick
            test_iteration_reports;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "do.* counters" `Quick test_do_counters;
        ] );
    ]
