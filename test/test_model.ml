(* Tests for the game model: instances, tuples, profiles, profits. *)

open Netgraph
module Q = Exact.Q
module Engine = Defender.Tuple_instance.Engine

let q = Alcotest.testable Q.pp Q.equal

let p4 () = Gen.path 4
let model ?(nu = 2) ?(k = 1) g = Defender.Model.make ~graph:g ~nu ~k

(* --- Model --- *)

let test_model_validation () =
  let g = p4 () in
  Alcotest.check_raises "nu = 0"
    (Invalid_argument "Model.make: need at least one vertex player") (fun () ->
      ignore (Defender.Model.make ~graph:g ~nu:0 ~k:1));
  Alcotest.check_raises "k = 0" (Invalid_argument "Model.make: k = 0 outside [1, m = 3]")
    (fun () -> ignore (Defender.Model.make ~graph:g ~nu:1 ~k:0));
  Alcotest.check_raises "k > m" (Invalid_argument "Model.make: k = 4 outside [1, m = 3]")
    (fun () -> ignore (Defender.Model.make ~graph:g ~nu:1 ~k:4));
  let disconnected = Graph.make ~n:4 [ (0, 1); (2, 3) ] in
  Alcotest.(check bool) "disconnected rejected" true
    (try
       ignore (Defender.Model.make ~graph:disconnected ~nu:1 ~k:1);
       false
     with Invalid_argument _ -> true)

let test_model_accessors () =
  let m = model ~nu:3 ~k:2 (p4 ()) in
  Alcotest.(check int) "nu" 3 (Defender.Model.nu m);
  Alcotest.(check int) "k" 2 (Defender.Model.k m);
  Alcotest.(check int) "edge model k" 1 (Defender.Model.k (Defender.Model.edge_model m));
  Alcotest.(check int) "with_k" 3 (Defender.Model.k (Defender.Model.with_k m ~k:3));
  Alcotest.(check (option int)) "C(3,2)" (Some 3) (Defender.Model.tuple_space_size m)

let test_tuple_space_size () =
  let g = Gen.complete 6 in
  (* m = 15 *)
  let check k expected =
    Alcotest.(check (option int))
      (Printf.sprintf "C(15,%d)" k)
      (Some expected)
      (Defender.Model.tuple_space_size (model ~k g))
  in
  check 1 15;
  check 2 105;
  check 5 3003;
  check 15 1

(* Sizes whose intermediate products used to trip the int-wrap
   heuristic: the exact Q.binomial path returns the true count whenever
   it fits in an int, and None (not a wrapped value) when it does not. *)
let test_tuple_space_size_large () =
  let star_model m k =
    model ~k (Gen.star (m + 1))
    (* star on m+1 vertices has exactly m edges *)
  in
  Alcotest.(check (option int))
    "C(40,20)" (Some 137_846_528_820)
    (Defender.Model.tuple_space_size (star_model 40 20));
  Alcotest.(check (option int))
    "C(62,31)" (Some 465_428_353_255_261_088)
    (Defender.Model.tuple_space_size (star_model 62 31));
  Alcotest.(check (option int))
    "C(66,33) overflows int" None
    (Defender.Model.tuple_space_size (star_model 66 33));
  Alcotest.(check string)
    "C(66,33) exact" "7219428434016265740"
    (Q.to_string (Defender.Model.tuple_space_size_exact (star_model 66 33)));
  Alcotest.(check string)
    "C(300,150) exact"
    "93759702772827452793193754439064084879232655700081358920472352712975170021839591675861424"
    (Q.to_string (Defender.Model.tuple_space_size_exact (star_model 300 150)))

(* --- Tuple --- *)

let test_tuple_of_list () =
  let g = p4 () in
  let t = Defender.Tuple.of_list g [ 2; 0 ] in
  Alcotest.(check (list int)) "sorted" [ 0; 2 ] (Defender.Tuple.to_list t);
  Alcotest.(check int) "size" 2 (Defender.Tuple.size t);
  Alcotest.check_raises "duplicate" (Invalid_argument "Tuple.of_list: duplicate edge in tuple")
    (fun () -> ignore (Defender.Tuple.of_list g [ 1; 1 ]));
  Alcotest.check_raises "empty" (Invalid_argument "Tuple.of_list: empty tuple") (fun () ->
      ignore (Defender.Tuple.of_list g []));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Tuple.of_list: edge id 9 out of range") (fun () ->
      ignore (Defender.Tuple.of_list g [ 9 ]))

let test_tuple_vertices_covers () =
  let g = p4 () in
  (* edges: 0:(0,1) 1:(1,2) 2:(2,3) *)
  let t = Defender.Tuple.of_list g [ 0; 2 ] in
  Alcotest.(check (list int)) "V(t)" [ 0; 1; 2; 3 ] (Defender.Tuple.vertices g t);
  Alcotest.(check bool) "covers 1" true (Defender.Tuple.covers g t 1);
  let t' = Defender.Tuple.of_list g [ 1 ] in
  Alcotest.(check bool) "does not cover 0" false (Defender.Tuple.covers g t' 0);
  Alcotest.(check bool) "contains edge" true (Defender.Tuple.contains_edge t 2);
  Alcotest.(check bool) "not contains" false (Defender.Tuple.contains_edge t 1)

let test_tuple_enumerate () =
  let g = p4 () in
  let tuples = Defender.Tuple.enumerate g ~k:2 in
  Alcotest.(check int) "C(3,2)" 3 (List.length tuples);
  let as_lists = List.map Defender.Tuple.to_list tuples in
  Alcotest.(check (list (list int))) "lexicographic" [ [ 0; 1 ]; [ 0; 2 ]; [ 1; 2 ] ]
    as_lists;
  Alcotest.(check int) "fold matches" 3
    (Defender.Tuple.fold_enumerate g ~k:2 ~init:0 ~f:(fun acc _ -> acc + 1));
  Alcotest.check_raises "limit guard"
    (Invalid_argument "Tuple.enumerate: C(28,14) exceeds limit 1000") (fun () ->
      ignore (Defender.Tuple.enumerate ~limit:1000 (Gen.complete 8) ~k:14))

(* One enumeration budget behind every exhaustive walk: a tuple space
   just past it (C(55,5) = 3 478 761 on K11 with k = 5) is refused by
   each entry point with its own message, from the size alone.  The
   single defender tuple is a 5-matching that leaves vertex 10
   uncovered, so the attacker on 10 passes the attacker side and the
   defender side is the one that refuses. *)
let test_enumeration_budget () =
  Alcotest.(check int) "the budget" 2_000_000 Defender.Game_engine.enumeration_limit;
  let g = Gen.complete 11 in
  let m = Defender.Model.make ~graph:g ~nu:1 ~k:5 in
  let edge a b = Option.get (Graph.find_edge g a b) in
  let t =
    Defender.Tuple.of_list g [ edge 0 1; edge 2 3; edge 4 5; edge 6 7; edge 8 9 ]
  in
  let mixed =
    Engine.Profile.make_mixed m ~vp:[ Dist.Finite.point 10 ] ~tp:[ (t, Q.one) ]
  in
  let pure = Engine.Profile.make_pure m ~vp_choices:[ 10 ] ~tp_choice:t in
  let br = Invalid_argument "Best_response: tuple space too large for enumeration" in
  let pure_refusal =
    Invalid_argument "Pure_nash: tuple space too large for brute-force inspection"
  in
  Alcotest.check_raises "Verify.tp_side Exhaustive" br (fun () ->
      ignore (Engine.Verify.tp_side Engine.Verify.Exhaustive mixed));
  Alcotest.check_raises "Best_response.tp_best_exhaustive" br (fun () ->
      ignore (Engine.Best_response.tp_best_exhaustive mixed));
  Alcotest.check_raises "Pure.is_pure_ne" pure_refusal (fun () ->
      ignore (Engine.Pure.is_pure_ne m pure));
  Alcotest.check_raises "Pure.exists_brute_force" pure_refusal (fun () ->
      ignore (Engine.Pure.exists_brute_force m));
  Alcotest.check_raises "Robustness.regret" br (fun () ->
      ignore (Defender.Robustness.regret mixed));
  Alcotest.check_raises "Weighted.verify_ne"
    (Invalid_argument "Weighted.verify_ne: tuple space too large") (fun () ->
      ignore
        (Defender.Weighted.verify_ne
           (Defender.Weighted.make m ~weights:[ Q.one ])
           mixed))

let test_tuple_unions () =
  let g = p4 () in
  let t1 = Defender.Tuple.of_list g [ 0 ] and t2 = Defender.Tuple.of_list g [ 2 ] in
  Alcotest.(check (list int)) "edge union" [ 0; 2 ] (Defender.Tuple.edge_union [ t1; t2 ]);
  Alcotest.(check (list int)) "vertex union" [ 0; 1; 2; 3 ]
    (Defender.Tuple.vertex_union g [ t1; t2 ])

(* --- Profile --- *)

let test_pure_profile () =
  let g = p4 () in
  let m = model ~nu:2 ~k:1 g in
  let t = Defender.Tuple.of_list g [ 1 ] in
  let p = Engine.Profile.make_pure m ~vp_choices:[ 0; 2 ] ~tp_choice:t in
  Alcotest.(check int) "stored choices" 2 (Array.length p.Engine.Profile.vp_choices);
  Alcotest.check_raises "arity" (Invalid_argument "Profile.make_pure: wrong number of vertex-player choices")
    (fun () -> ignore (Engine.Profile.make_pure m ~vp_choices:[ 0 ] ~tp_choice:t));
  Alcotest.check_raises "tuple size" (Invalid_argument "Profile: tuple size 2, expected k = 1")
    (fun () ->
      ignore
        (Engine.Profile.make_pure m ~vp_choices:[ 0; 2 ]
           ~tp_choice:(Defender.Tuple.of_list g [ 0; 1 ])))

let test_mixed_profile_validation () =
  let g = p4 () in
  let m = model ~nu:1 ~k:1 g in
  let t0 = Defender.Tuple.of_list g [ 0 ] and t1 = Defender.Tuple.of_list g [ 1 ] in
  Alcotest.check_raises "bad tuple total"
    (Invalid_argument "Profile.make_mixed: tuple probabilities sum to 3/4") (fun () ->
      ignore
        (Engine.Profile.make_mixed m
           ~vp:[ Dist.Finite.point 0 ]
           ~tp:[ (t0, Q.make 1 2); (t1, Q.make 1 4) ]));
  Alcotest.check_raises "duplicate tuple"
    (Invalid_argument "Profile.make_mixed: duplicate tuple in support") (fun () ->
      ignore
        (Engine.Profile.make_mixed m
           ~vp:[ Dist.Finite.point 0 ]
           ~tp:[ (t0, Q.make 1 2); (t0, Q.make 1 2) ]));
  Alcotest.check_raises "empty tp"
    (Invalid_argument "Profile.make_mixed: empty tuple-player strategy") (fun () ->
      ignore (Engine.Profile.make_mixed m ~vp:[ Dist.Finite.point 0 ] ~tp:[]))

let test_uniform_profile () =
  let g = p4 () in
  let m = model ~nu:2 ~k:1 g in
  let tuples = List.map (fun id -> Defender.Tuple.of_list g [ id ]) [ 0; 2 ] in
  let prof = Engine.Profile.uniform m ~vp_support:[ 1; 3 ] ~tp_support:tuples in
  Alcotest.(check (list int)) "vp support" [ 1; 3 ] (Engine.Profile.vp_support prof 0);
  Alcotest.(check (list int)) "vp union" [ 1; 3 ] (Engine.Profile.vp_support_union prof);
  Alcotest.(check (list int)) "tp edges" [ 0; 2 ]
    (Defender.Tuple.edge_union (Engine.Profile.tp_support prof));
  List.iter
    (fun (_, p) -> Alcotest.check q "uniform tuple prob" (Q.make 1 2) p)
    (Engine.Profile.tp_strategy prof)

let test_hit_and_load () =
  let g = p4 () in
  let m = model ~nu:2 ~k:1 g in
  let tuples = List.map (fun id -> Defender.Tuple.of_list g [ id ]) [ 0; 2 ] in
  let prof = Engine.Profile.uniform m ~vp_support:[ 1; 3 ] ~tp_support:tuples in
  (* Hit(0) = P(tuple {0}) = 1/2; Hit(1) = 1/2; Hit(2) = 1/2; Hit(3) = 1/2 *)
  Alcotest.check q "hit 0" (Q.make 1 2) (Engine.Profile.hit_prob prof 0);
  Alcotest.check q "hit 3" (Q.make 1 2) (Engine.Profile.hit_prob prof 3);
  (* loads: each player uniform on {1,3}: m(1) = m(3) = 1 *)
  Alcotest.check q "load 1" Q.one (Engine.Profile.expected_load prof 1);
  Alcotest.check q "load 0" Q.zero (Engine.Profile.expected_load prof 0);
  (* edge 0 = (0,1): load = 1 *)
  Alcotest.check q "edge load" Q.one (Engine.Profile.expected_load_edge prof 0);
  let t02 = Defender.Tuple.of_list g [ 0; 2 ] in
  Alcotest.check q "tuple load" (Q.of_int 2) (Engine.Profile.expected_load_strategy prof t02)

let test_tuples_hitting () =
  let g = p4 () in
  let m = model ~nu:1 ~k:1 g in
  let tuples = List.map (fun id -> Defender.Tuple.of_list g [ id ]) [ 0; 1; 2 ] in
  let prof = Engine.Profile.uniform m ~vp_support:[ 0 ] ~tp_support:tuples in
  Alcotest.(check int) "vertex 1 hit by edges 0,1" 2
    (List.length (Engine.Profile.tuples_hitting prof 1));
  Alcotest.(check int) "vertex 0 hit by edge 0" 1
    (List.length (Engine.Profile.tuples_hitting prof 0))

let test_replace () =
  let g = p4 () in
  let m = model ~nu:2 ~k:1 g in
  let tuples = List.map (fun id -> Defender.Tuple.of_list g [ id ]) [ 0 ] in
  let prof = Engine.Profile.uniform m ~vp_support:[ 3 ] ~tp_support:tuples in
  let prof' = Engine.Profile.replace_vp prof 0 (Dist.Finite.point 2) in
  Alcotest.(check (list int)) "player 0 moved" [ 2 ] (Engine.Profile.vp_support prof' 0);
  Alcotest.(check (list int)) "player 1 unchanged" [ 3 ] (Engine.Profile.vp_support prof' 1);
  let prof'' =
    Engine.Profile.replace_tp prof [ (Defender.Tuple.of_list g [ 2 ], Q.one) ]
  in
  Alcotest.(check (list int)) "tp moved" [ 2 ]
    (Defender.Tuple.edge_union (Engine.Profile.tp_support prof''));
  Alcotest.(check bool) "purity" true (Engine.Profile.is_pure prof'')

(* --- Profit --- *)

let test_pure_profits () =
  let g = p4 () in
  let m = model ~nu:3 ~k:1 g in
  let t = Defender.Tuple.of_list g [ 1 ] in
  (* covers vertices 1 and 2 *)
  let p = Engine.Profile.make_pure m ~vp_choices:[ 0; 1; 2 ] ~tp_choice:t in
  Alcotest.(check int) "vp0 escapes" 1 (Engine.Profit.pure_vp m p 0);
  Alcotest.(check int) "vp1 caught" 0 (Engine.Profit.pure_vp m p 1);
  Alcotest.(check int) "vp2 caught" 0 (Engine.Profit.pure_vp m p 2);
  Alcotest.(check int) "tp catches 2" 2 (Engine.Profit.pure_tp m p)

let test_expected_profits_degenerate () =
  (* Point masses must reproduce the pure profits. *)
  let g = p4 () in
  let m = model ~nu:2 ~k:1 g in
  let t = Defender.Tuple.of_list g [ 0 ] in
  let pure = Engine.Profile.make_pure m ~vp_choices:[ 1; 3 ] ~tp_choice:t in
  let mixed = Engine.Profile.of_pure m pure in
  Alcotest.check q "vp0 expected = pure" (Q.of_int (Engine.Profit.pure_vp m pure 0))
    (Engine.Profit.expected_vp mixed 0);
  Alcotest.check q "tp expected = pure" (Q.of_int (Engine.Profit.pure_tp m pure))
    (Engine.Profit.expected_tp mixed)

let test_expected_profit_equation1 () =
  (* Equation (1): IP_i = sum_v P(v) (1 - Hit(v)). *)
  let g = p4 () in
  let m = model ~nu:1 ~k:1 g in
  let tuples = List.map (fun id -> Defender.Tuple.of_list g [ id ]) [ 0; 1 ] in
  let prof = Engine.Profile.uniform m ~vp_support:[ 0; 3 ] ~tp_support:tuples in
  (* Hit(0) = 1/2 (edge 0), Hit(3) = 0; IP = 1/2*(1/2) + 1/2*1 = 3/4 *)
  Alcotest.check q "equation (1)" (Q.make 3 4) (Engine.Profit.expected_vp prof 0)

let test_expected_profit_equation2 () =
  (* Equation (2): IP_tp = sum_t P(t) m(t). *)
  let g = p4 () in
  let m = model ~nu:2 ~k:1 g in
  let tuples = List.map (fun id -> Defender.Tuple.of_list g [ id ]) [ 0; 1 ] in
  let prof = Engine.Profile.uniform m ~vp_support:[ 1 ] ~tp_support:tuples in
  (* both players on vertex 1: m(1) = 2; each support edge covers vertex 1:
     IP_tp = 1/2*2 + 1/2*2 = 2 *)
  Alcotest.check q "equation (2)" (Q.of_int 2) (Engine.Profit.expected_tp prof);
  Alcotest.check q "payoff of tuple" (Q.of_int 2)
    (Engine.Profit.tp_payoff_of_strategy prof (Defender.Tuple.of_list g [ 1 ]))

(* --- Profile serialization --- *)

let test_profile_io_roundtrip () =
  let g = Gen.grid 3 3 in
  let m = Defender.Model.make ~graph:g ~nu:4 ~k:2 in
  let prof =
    match Defender.Tuple_nash.a_tuple_auto m with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let text = Engine.Io.to_string prof in
  let reloaded = Engine.Io.of_string m text in
  Alcotest.(check (list int)) "vp support preserved"
    (Engine.Profile.vp_support_union prof)
    (Engine.Profile.vp_support_union reloaded);
  Alcotest.(check (list int)) "tp edges preserved"
    (Defender.Tuple.edge_union (Engine.Profile.tp_support prof))
    (Defender.Tuple.edge_union (Engine.Profile.tp_support reloaded));
  Alcotest.check q "gain preserved exactly" (Engine.Profit.expected_tp prof)
    (Engine.Profit.expected_tp reloaded);
  (* non-uniform probabilities survive too *)
  let custom =
    Engine.Profile.make_mixed (model ~nu:1 ~k:1 (p4 ()))
      ~vp:[ Dist.Finite.make [ (0, Q.make 1 3); (2, Q.make 2 3) ] ]
      ~tp:
        [
          (Defender.Tuple.of_list (p4 ()) [ 0 ], Q.make 1 7);
          (Defender.Tuple.of_list (p4 ()) [ 2 ], Q.make 6 7);
        ]
  in
  let m14 = model ~nu:1 ~k:1 (p4 ()) in
  let back = Engine.Io.of_string m14 (Engine.Io.to_string custom) in
  Alcotest.check q "non-uniform prob preserved" (Q.make 6 7)
    (List.assoc
       (Defender.Tuple.of_list (p4 ()) [ 2 ])
       (List.map (fun (t, p) -> (t, p)) (Engine.Profile.tp_strategy back)))

let test_profile_io_rejects () =
  let m = model ~nu:1 ~k:1 (p4 ()) in
  Alcotest.check_raises "bad header" (Invalid_argument "Profile_io: bad header")
    (fun () -> ignore (Engine.Io.of_string m "nonsense\nnu 1 k 1\n"));
  Alcotest.check_raises "wrong nu/k"
    (Invalid_argument "Profile_io: profile does not match the model (nu or k)")
    (fun () ->
      ignore (Engine.Io.of_string m "profile v1\nnu 2 k 1\ntp 0:1/1\n"));
  Alcotest.check_raises "missing tp" (Invalid_argument "Profile_io: missing tp line")
    (fun () ->
      ignore (Engine.Io.of_string m "profile v1\nnu 1 k 1\nvp 0 0:1/1\n"))

(* vp payoffs + profit conservation property *)
let props =
  let scenario_gen =
    QCheck.make
      (QCheck.Gen.map
         (fun seed ->
           let r = Prng.Rng.create seed in
           let g = Gen.gnp_connected r ~n:(4 + Prng.Rng.int r 6) ~p:0.3 in
           let nu = 1 + Prng.Rng.int r 4 in
           let k = 1 + Prng.Rng.int r (min 3 (Graph.m g)) in
           let m = Defender.Model.make ~graph:g ~nu ~k in
           (* random uniform-support profile *)
           let vertices = Array.init (Graph.n g) Fun.id in
           let support_size = 1 + Prng.Rng.int r (Graph.n g) in
           let vp_support =
             Array.to_list (Prng.Rng.sample_without_replacement r ~count:support_size vertices)
           in
           let edge_ids = Array.init (Graph.m g) Fun.id in
           let tuple_count = 1 + Prng.Rng.int r 3 in
           let tuples =
             List.init tuple_count (fun _ ->
                 Defender.Tuple.of_list g
                   (Array.to_list
                      (Prng.Rng.sample_without_replacement r ~count:k edge_ids)))
             |> List.sort_uniq Defender.Tuple.compare
           in
           Engine.Profile.uniform m ~vp_support ~tp_support:tuples)
         QCheck.Gen.int)
  in
  [
    QCheck.Test.make ~name:"hit probabilities within [0,1]" ~count:100 scenario_gen
      (fun prof ->
        let g = Defender.Model.graph (Engine.Profile.instance prof) in
        List.for_all
          (fun v ->
            let h = Engine.Profile.hit_prob prof v in
            Q.( >= ) h Q.zero && Q.( <= ) h Q.one)
          (List.init (Graph.n g) Fun.id));
    QCheck.Test.make ~name:"total load equals nu" ~count:100 scenario_gen (fun prof ->
        let model = Engine.Profile.instance prof in
        let g = Defender.Model.graph model in
        Q.equal
          (Q.of_int (Defender.Model.nu model))
          (Q.sum (List.map (Engine.Profile.expected_load prof) (List.init (Graph.n g) Fun.id))));
    QCheck.Test.make ~name:"defender profit bounded by nu" ~count:100 scenario_gen
      (fun prof ->
        let nu = Defender.Model.nu (Engine.Profile.instance prof) in
        let ip = Engine.Profit.expected_tp prof in
        Q.( >= ) ip Q.zero && Q.( <= ) ip (Q.of_int nu));
    QCheck.Test.make ~name:"vp profit = 1 - hit on support" ~count:100 scenario_gen
      (fun prof ->
        List.for_all
          (fun v ->
            Q.equal
              (Engine.Profit.vp_payoff_of_vertex prof v)
              (Q.sub Q.one (Engine.Profile.hit_prob prof v)))
          (Engine.Profile.vp_support prof 0));
  ]

let () =
  Alcotest.run "model"
    [
      ( "model",
        [
          Alcotest.test_case "validation" `Quick test_model_validation;
          Alcotest.test_case "accessors" `Quick test_model_accessors;
          Alcotest.test_case "tuple space size" `Quick test_tuple_space_size;
          Alcotest.test_case "tuple space size (large)" `Quick
            test_tuple_space_size_large;
        ] );
      ( "tuple",
        [
          Alcotest.test_case "of_list" `Quick test_tuple_of_list;
          Alcotest.test_case "vertices/covers" `Quick test_tuple_vertices_covers;
          Alcotest.test_case "enumerate" `Quick test_tuple_enumerate;
          Alcotest.test_case "unions" `Quick test_tuple_unions;
          Alcotest.test_case "enumeration budget" `Quick test_enumeration_budget;
        ] );
      ( "profile",
        [
          Alcotest.test_case "pure" `Quick test_pure_profile;
          Alcotest.test_case "mixed validation" `Quick test_mixed_profile_validation;
          Alcotest.test_case "uniform" `Quick test_uniform_profile;
          Alcotest.test_case "hit and load" `Quick test_hit_and_load;
          Alcotest.test_case "tuples hitting" `Quick test_tuples_hitting;
          Alcotest.test_case "replace" `Quick test_replace;
        ] );
      ( "profile-io",
        [
          Alcotest.test_case "roundtrip" `Quick test_profile_io_roundtrip;
          Alcotest.test_case "rejects malformed" `Quick test_profile_io_rejects;
        ] );
      ( "profit",
        [
          Alcotest.test_case "pure profits" `Quick test_pure_profits;
          Alcotest.test_case "degenerate mixed" `Quick test_expected_profits_degenerate;
          Alcotest.test_case "equation (1)" `Quick test_expected_profit_equation1;
          Alcotest.test_case "equation (2)" `Quick test_expected_profit_equation2;
        ] );
      ("properties", List.map (QCheck_alcotest.to_alcotest ~verbose:false) props);
    ]
