(* The functorized game layer: the Induced enumerator against a
   brute-force oracle, the subgraph instance's kernel against the naive
   support-rescanning oracle (exact Q equality, fresh and after patch
   chains), the cycle-rotation equilibrium, the versioned profile I/O
   game tag (v1 = tuple stays byte-stable, v2 carries the tag, cross-
   game loads are rejected), and the game field on the experiment
   wire format. *)

open Netgraph
module Q = Exact.Q
module SG = Defender.Subgraph_game
module Engine = Defender.Subgraph_instance.Engine
module TEngine = Defender.Tuple_instance.Engine

let q = Alcotest.testable Q.pp Q.equal

(* --- Induced: connected-subset enumeration vs brute force --- *)

let subsets_of_size n size =
  let rec go start size =
    if size = 0 then [ [] ]
    else
      List.concat
        (List.filter_map
           (fun v ->
             if v + size <= n then
               Some (List.map (fun rest -> v :: rest) (go (v + 1) (size - 1)))
             else None)
           (List.init (n - start) (fun i -> start + i)))
  in
  go 0 size

let brute_connected g size =
  List.filter (Induced.is_connected_subset g) (subsets_of_size (Graph.n g) size)

let test_induced_enumeration () =
  let rng = Prng.Rng.create 42 in
  let graphs =
    [
      ("path5", Gen.path 5);
      ("cycle6", Gen.cycle 6);
      ("star6", Gen.star 6);
      ("petersen", Gen.petersen ());
      ("gnp8", Gen.gnp_connected rng ~n:8 ~p:0.35);
    ]
  in
  List.iter
    (fun (name, g) ->
      List.iter
        (fun size ->
          let expected = brute_connected g size in
          let got =
            List.rev
              (Induced.fold_connected_subsets g ~size ~init:[]
                 ~f:(fun acc vs -> vs :: acc))
          in
          Alcotest.(check int)
            (Printf.sprintf "%s size %d count" name size)
            (List.length expected) (List.length got);
          List.iter
            (fun vs ->
              Alcotest.(check bool)
                (Printf.sprintf "%s size %d sorted" name size)
                true
                (List.sort compare vs = vs))
            got;
          Alcotest.(check bool)
            (Printf.sprintf "%s size %d sets match" name size)
            true
            (List.sort compare got = List.sort compare expected);
          let count = List.length expected in
          Alcotest.(check (option int))
            (Printf.sprintf "%s size %d count within limit" name size)
            (Some count)
            (Induced.count_connected_subsets g ~size ~limit:count);
          if count > 0 then
            Alcotest.(check (option int))
              (Printf.sprintf "%s size %d count over limit" name size)
              None
              (Induced.count_connected_subsets g ~size ~limit:(count - 1)))
        [ 1; 2; 3; 4 ])
    graphs

let test_induced_guards () =
  let g = Gen.path 4 in
  Alcotest.check_raises "size 0"
    (Invalid_argument "Induced.fold_connected_subsets: size 0 outside [1, 4]")
    (fun () ->
      ignore (Induced.fold_connected_subsets g ~size:0 ~init:() ~f:(fun () _ -> ())));
  Alcotest.(check bool) "empty set" false (Induced.is_connected_subset g []);
  Alcotest.(check bool) "disconnected" false (Induced.is_connected_subset g [ 0; 2 ]);
  Alcotest.(check bool) "connected" true (Induced.is_connected_subset g [ 1; 2; 3 ])

(* --- subgraph instance: kernel vs naive oracle --- *)

let random_finite rng g =
  let n = Graph.n g in
  let vertices = Array.init n Fun.id in
  let size = 1 + Prng.Rng.int rng n in
  let support =
    Array.to_list (Prng.Rng.sample_without_replacement rng ~count:size vertices)
  in
  let weights = List.map (fun v -> (v, 1 + Prng.Rng.int rng 6)) support in
  let total = List.fold_left (fun acc (_, w) -> acc + w) 0 weights in
  Dist.Finite.make (List.map (fun (v, w) -> (v, Q.make w total)) weights)

let random_tp rng inst =
  let strategies =
    List.init (1 + Prng.Rng.int rng 3) (fun _ -> SG.random_strategy inst rng)
    |> List.sort_uniq SG.Strategy.compare
  in
  let weights =
    List.map (fun t -> (t, 1 + Prng.Rng.int rng 6)) strategies
  in
  let total = List.fold_left (fun acc (_, w) -> acc + w) 0 weights in
  List.map (fun (t, w) -> (t, Q.make w total)) weights

let random_subgraph_profile rng =
  let g = Gen.gnp_connected rng ~n:(4 + Prng.Rng.int rng 4) ~p:0.45 in
  let nu = 1 + Prng.Rng.int rng 3 in
  let lambda = 1 + Prng.Rng.int rng (min 3 (Graph.n g)) in
  let inst = SG.make ~graph:g ~nu ~lambda in
  let vp = List.init nu (fun _ -> random_finite rng g) in
  let tp = random_tp rng inst in
  (inst, Engine.Profile.make_mixed inst ~vp ~tp)

let check_kernel_vs_naive ?(label = "") rng prof =
  let inst = Engine.Profile.instance prof in
  let g = SG.graph inst in
  let rescan = Engine.Profile.rescan prof in
  for v = 0 to Graph.n g - 1 do
    Alcotest.check q
      (Printf.sprintf "%shit_prob %d" label v)
      (Engine.Profile.hit_prob rescan v)
      (Engine.Profile.hit_prob prof v);
    Alcotest.check q
      (Printf.sprintf "%sexpected_load %d" label v)
      (Engine.Profile.expected_load rescan v)
      (Engine.Profile.expected_load prof v)
  done;
  for id = 0 to Graph.m g - 1 do
    Alcotest.check q
      (Printf.sprintf "%sexpected_load_edge %d" label id)
      (Engine.Profile.expected_load_edge rescan id)
      (Engine.Profile.expected_load_edge prof id)
  done;
  for _ = 1 to 3 do
    let t = SG.random_strategy inst rng in
    Alcotest.check q
      (Printf.sprintf "%sexpected_load_strategy" label)
      (Engine.Profile.expected_load_strategy rescan t)
      (Engine.Profile.expected_load_strategy prof t)
  done

(* The consumers built on the leaf queries agree across both paths. *)
let check_consumers_vs_naive ~label prof =
  let rescan = Engine.Profile.rescan prof in
  let agree name f =
    Alcotest.check q (label ^ name ^ " naive = kernel") (f rescan) (f prof)
  in
  agree "vp_best_value" Engine.Best_response.vp_best_value;
  agree "tp_best_value" (fun p ->
      Engine.Best_response.tp_best_value_exhaustive p);
  agree "expected_tp" Engine.Profit.expected_tp;
  agree "tp_upper_bound" (fun p ->
      SG.value_upper_bound (Engine.Profile.instance p)
        ~load:(Engine.Profile.expected_load p)
        ~edge_load:(Engine.Profile.expected_load_edge p));
  List.iter
    (fun (name, mode) ->
      Alcotest.(check string)
        (Printf.sprintf "%smixed_ne %s naive = kernel" label name)
        (Engine.Verify.verdict_to_string (Engine.Verify.mixed_ne mode rescan))
        (Engine.Verify.verdict_to_string (Engine.Verify.mixed_ne mode prof)))
    [ ("exhaustive", Engine.Verify.Exhaustive);
      ("certificate", Engine.Verify.Certificate); ("oracle", Engine.Verify.Oracle) ]

let test_subgraph_fresh_profiles () =
  let rng = Prng.Rng.create 2718 in
  for i = 1 to 30 do
    let _, prof = random_subgraph_profile rng in
    let label = Printf.sprintf "fresh %d: " i in
    check_kernel_vs_naive ~label rng prof;
    check_consumers_vs_naive ~label prof
  done

let test_subgraph_patch_chain () =
  let rng = Prng.Rng.create 3141 in
  for i = 1 to 12 do
    let inst, prof = random_subgraph_profile rng in
    let g = SG.graph inst in
    let nu = SG.nu inst in
    let prof = ref prof in
    for step = 1 to 8 do
      (if Prng.Rng.int rng 2 = 0 then
         let player = Prng.Rng.int rng nu in
         prof := Engine.Profile.replace_vp !prof player (random_finite rng g)
       else prof := Engine.Profile.replace_tp !prof (random_tp rng inst));
      check_kernel_vs_naive
        ~label:(Printf.sprintf "chain %d step %d: " i step)
        rng !prof
    done
  done

(* --- cycle rotation equilibrium and payoffs --- *)

let test_cycle_rotation_ne () =
  List.iter
    (fun (n, nu, lambda) ->
      let inst = SG.make ~graph:(Gen.cycle n) ~nu ~lambda in
      let arcs =
        List.rev (SG.fold_strategies inst ~init:[] ~f:(fun acc s -> s :: acc))
      in
      Alcotest.(check int)
        (Printf.sprintf "C%d lambda=%d arcs" n lambda)
        n (List.length arcs);
      let prof =
        Engine.Profile.uniform inst ~vp_support:(List.init n Fun.id)
          ~tp_support:arcs
      in
      let verdict =
        Engine.Verify.mixed_ne Engine.Verify.Exhaustive prof
      in
      Alcotest.(check bool)
        (Printf.sprintf "C%d lambda=%d confirmed" n lambda)
        true
        (Engine.Verify.verdict_is_confirmed verdict);
      Alcotest.check q
        (Printf.sprintf "C%d lambda=%d gain" n lambda)
        (Q.make (nu * lambda) n)
        (Engine.Profit.expected_tp prof))
    [ (5, 3, 1); (6, 4, 2); (8, 2, 3) ]

let test_subgraph_space_size () =
  (* closed forms: cycles have n arcs per lambda < n, and exactly one
     spanning subset; complete graphs have C(n, lambda) connected
     subsets. *)
  let count graph lambda =
    SG.space_size_within (SG.make ~graph ~nu:1 ~lambda) ~limit:1000
  in
  Alcotest.(check (option int)) "C7 lambda=3" (Some 7) (count (Gen.cycle 7) 3);
  Alcotest.(check (option int)) "C7 lambda=7" (Some 1) (count (Gen.cycle 7) 7);
  Alcotest.(check (option int)) "K6 lambda=3" (Some 20) (count (Gen.complete 6) 3)

(* --- Io: versioned game tag --- *)

let test_io_tuple_v1 () =
  let g = Gen.path 4 in
  let m = Defender.Model.make ~graph:g ~nu:2 ~k:1 in
  let prof =
    TEngine.Profile.uniform m ~vp_support:[ 0; 1; 2; 3 ]
      ~tp_support:[ Defender.Tuple.of_list g [ 0 ]; Defender.Tuple.of_list g [ 2 ] ]
  in
  let text = TEngine.Io.to_string prof in
  Alcotest.(check bool) "v1 header" true
    (String.length text >= 42
    && String.sub text 0 42 = "# defender mixed configuration\nprofile v1\n");
  let back = TEngine.Io.of_string m text in
  Alcotest.check q "round-trip gain"
    (TEngine.Profit.expected_tp prof)
    (TEngine.Profit.expected_tp back)

let test_io_subgraph_v2 () =
  let g = Gen.cycle 6 in
  let inst = SG.make ~graph:g ~nu:2 ~lambda:2 in
  let arcs =
    List.rev (SG.fold_strategies inst ~init:[] ~f:(fun acc s -> s :: acc))
  in
  let prof =
    Engine.Profile.uniform inst ~vp_support:(List.init 6 Fun.id)
      ~tp_support:arcs
  in
  let text = Engine.Io.to_string prof in
  Alcotest.(check bool) "v2 header with game tag" true
    (String.length text >= 56
    && String.sub text 0 56
       = "# defender mixed configuration\nprofile v2\ngame subgraph\n");
  let back = Engine.Io.of_string inst text in
  Alcotest.check q "round-trip gain"
    (Engine.Profit.expected_tp prof)
    (Engine.Profit.expected_tp back);
  Alcotest.(check bool) "round-trip support" true
    (List.for_all2
       (fun (a, p) (b, p') -> SG.Strategy.equal a b && Q.equal p p')
       (Engine.Profile.tp_strategy prof)
       (Engine.Profile.tp_strategy back))

let test_io_cross_game_rejected () =
  let g = Gen.cycle 6 in
  let inst = SG.make ~graph:g ~nu:2 ~lambda:2 in
  let sub_text =
    Engine.Io.to_string
      (Engine.Profile.uniform inst ~vp_support:(List.init 6 Fun.id)
         ~tp_support:[ SG.round_robin inst ~round:0 ])
  in
  let m = Defender.Model.make ~graph:g ~nu:2 ~k:2 in
  Alcotest.check_raises "subgraph profile into tuple model"
    (Invalid_argument
       "Profile_io: profile is for game subgraph, model is game tuple")
    (fun () -> ignore (TEngine.Io.of_string m sub_text));
  let tuple_prof =
    TEngine.Profile.uniform m ~vp_support:[ 0; 1 ]
      ~tp_support:[ Defender.Tuple.of_list g [ 0; 3 ] ]
  in
  let tuple_text = TEngine.Io.to_string tuple_prof in
  Alcotest.check_raises "tuple v1 profile into subgraph model"
    (Invalid_argument
       "Profile_io: v1 profile is a tuple-game profile, model is game subgraph")
    (fun () -> ignore (Engine.Io.of_string inst tuple_text))

(* --- experiment wire format: the game field --- *)

let test_wire_game_field () =
  let module E = Harness.Experiment in
  let module J = Harness.Json in
  let descr game =
    {
      E.id = "W1";
      claim = "wire fixture";
      expected = "round-trips";
      tag = E.Table;
      game;
      run = (fun ctx -> E.out ctx "hello\n");
    }
  in
  let check_roundtrip game =
    let r = E.run ~scale:E.Smoke (descr game) in
    Alcotest.(check string) "result carries game" game r.E.game;
    match E.result_of_json (E.result_to_wire r) with
    | Ok r' -> Alcotest.(check string) "wire round-trip" game r'.E.game
    | Error e -> Alcotest.fail e
  in
  check_roundtrip "tuple";
  check_roundtrip "subgraph";
  (* artifact JSON: the field appears only for non-tuple games, so old
     tuple artifacts keep their exact bytes *)
  let member_game r =
    J.member "game" (E.result_to_json r)
  in
  Alcotest.(check bool) "tuple artifact omits game" true
    (member_game (E.run ~scale:E.Smoke (descr "tuple")) = None);
  (match member_game (E.run ~scale:E.Smoke (descr "subgraph")) with
  | Some (J.String "subgraph") -> ()
  | _ -> Alcotest.fail "subgraph artifact lacks game tag");
  (* a wire object without the field decodes as the tuple game *)
  let wire = E.result_to_wire (E.run ~scale:E.Smoke (descr "tuple")) in
  match wire with
  | J.Obj fields -> (
      let stripped = J.Obj (List.filter (fun (k, _) -> k <> "game") fields) in
      match E.result_of_json stripped with
      | Ok r -> Alcotest.(check string) "absent field defaults" "tuple" r.E.game
      | Error e -> Alcotest.fail e)
  | _ -> Alcotest.fail "wire result is not an object"

let () =
  Alcotest.run "game"
    [
      ( "induced",
        [
          Alcotest.test_case "enumeration vs brute force" `Quick
            test_induced_enumeration;
          Alcotest.test_case "guards" `Quick test_induced_guards;
        ] );
      ( "subgraph kernel",
        [
          Alcotest.test_case "fresh profiles vs naive" `Quick
            test_subgraph_fresh_profiles;
          Alcotest.test_case "patch chains vs naive" `Quick
            test_subgraph_patch_chain;
        ] );
      ( "subgraph equilibrium",
        [
          Alcotest.test_case "cycle rotation NE" `Quick test_cycle_rotation_ne;
          Alcotest.test_case "space size closed forms" `Quick
            test_subgraph_space_size;
        ] );
      ( "profile io",
        [
          Alcotest.test_case "tuple v1 byte-stable" `Quick test_io_tuple_v1;
          Alcotest.test_case "subgraph v2 tagged" `Quick test_io_subgraph_v2;
          Alcotest.test_case "cross-game rejected" `Quick
            test_io_cross_game_rejected;
        ] );
      ( "experiment wire",
        [ Alcotest.test_case "game field" `Quick test_wire_game_field ] );
    ]
