(* Tests for the matching/covering substrate: predicates, Hopcroft–Karp,
   Edmonds blossom, edge covers, König, Hall/expander, independent sets. *)

open Netgraph

let rng () = Prng.Rng.create 99

(* --- Checks --- *)

let test_is_matching () =
  let g = Gen.path 5 in
  Alcotest.(check bool) "alternating edges" true (Matching.Checks.is_matching g [ 0; 2 ]);
  Alcotest.(check bool) "adjacent edges" false (Matching.Checks.is_matching g [ 0; 1 ]);
  Alcotest.(check bool) "empty" true (Matching.Checks.is_matching g [])

let test_is_edge_cover () =
  let g = Gen.path 4 in
  Alcotest.(check bool) "ends" true (Matching.Checks.is_edge_cover g [ 0; 2 ]);
  Alcotest.(check bool) "middle only" false (Matching.Checks.is_edge_cover g [ 1 ]);
  Alcotest.(check bool) "all edges" true (Matching.Checks.is_edge_cover g [ 0; 1; 2 ])

let test_vertex_cover_and_is () =
  let g = Gen.cycle 4 in
  Alcotest.(check bool) "opposite corners cover C4" true
    (Matching.Checks.is_vertex_cover g [ 0; 2 ]);
  Alcotest.(check bool) "adjacent pair does not" false
    (Matching.Checks.is_vertex_cover g [ 0; 1 ]);
  Alcotest.(check bool) "independent" true
    (Matching.Checks.is_independent_set g [ 0; 2 ]);
  Alcotest.(check bool) "not independent" false
    (Matching.Checks.is_independent_set g [ 0; 1 ])

let test_covered_uncovered () =
  let g = Gen.path 4 in
  Alcotest.(check (list int)) "uncovered" [ 2; 3 ]
    (Matching.Checks.uncovered_vertices g [ 0 ])

(* --- Hopcroft–Karp --- *)

let test_hk_complete_bipartite () =
  let g = Gen.complete_bipartite 3 5 in
  let r = Matching.Hopcroft_karp.max_matching_bipartite g in
  Alcotest.(check int) "size min(a,b)" 3 r.Matching.Hopcroft_karp.size;
  Alcotest.(check bool) "is matching" true
    (Matching.Checks.is_matching g r.Matching.Hopcroft_karp.edges)

let test_hk_path () =
  let g = Gen.path 7 in
  let r = Matching.Hopcroft_karp.max_matching_bipartite g in
  Alcotest.(check int) "P7 matching" 3 r.Matching.Hopcroft_karp.size

let test_hk_sides () =
  (* Restrict to crossing edges only: a triangle with a pendant; sides
     {0} and {3} see only the pendant edge. *)
  let g = Graph.make ~n:4 [ (0, 1); (1, 2); (0, 2); (0, 3) ] in
  let r = Matching.Hopcroft_karp.max_matching g ~left:[ 0 ] ~right:[ 3 ] in
  Alcotest.(check int) "single crossing edge" 1 r.Matching.Hopcroft_karp.size;
  Alcotest.check_raises "overlapping sides"
    (Invalid_argument "Hopcroft_karp: sides intersect or repeat") (fun () ->
      ignore (Matching.Hopcroft_karp.max_matching g ~left:[ 0 ] ~right:[ 0 ]))

let test_hk_mate_consistency () =
  let g = Gen.random_bipartite (rng ()) ~a:10 ~b:12 ~p:0.2 in
  let r = Matching.Hopcroft_karp.max_matching_bipartite g in
  let mate = r.Matching.Hopcroft_karp.mate in
  Array.iteri
    (fun v w -> if w >= 0 then Alcotest.(check int) "mate involution" v mate.(w))
    mate

(* --- Blossom --- *)

let test_blossom_odd_cycle () =
  (* C5 needs blossom contraction; max matching is 2. *)
  Alcotest.(check int) "C5" 2 (Matching.Blossom.matching_number (Gen.cycle 5));
  Alcotest.(check int) "C7" 3 (Matching.Blossom.matching_number (Gen.cycle 7))

let test_blossom_complete () =
  Alcotest.(check int) "K4" 2 (Matching.Blossom.matching_number (Gen.complete 4));
  Alcotest.(check int) "K5" 2 (Matching.Blossom.matching_number (Gen.complete 5));
  Alcotest.(check int) "K6" 3 (Matching.Blossom.matching_number (Gen.complete 6))

let test_blossom_petersen () =
  (* The Petersen graph has a perfect matching. *)
  let outer = List.init 5 (fun i -> (i, (i + 1) mod 5)) in
  let spokes = List.init 5 (fun i -> (i, i + 5)) in
  let inner = List.init 5 (fun i -> (5 + i, 5 + ((i + 2) mod 5))) in
  let g = Graph.make ~n:10 (outer @ spokes @ inner) in
  Alcotest.(check int) "perfect matching" 5 (Matching.Blossom.matching_number g)

let test_blossom_structure () =
  let g = Gen.gnp_connected (rng ()) ~n:15 ~p:0.2 in
  let r = Matching.Blossom.max_matching g in
  Alcotest.(check bool) "is matching" true
    (Matching.Checks.is_matching g r.Matching.Blossom.edges);
  Alcotest.(check int) "size consistent" r.Matching.Blossom.size
    (List.length r.Matching.Blossom.edges);
  Array.iteri
    (fun v w ->
      if w >= 0 then
        Alcotest.(check int) "mate involution" v r.Matching.Blossom.mate.(w))
    r.Matching.Blossom.mate

let test_blossom_agrees_with_hk_on_bipartite () =
  let r = rng () in
  for _ = 1 to 20 do
    let g = Gen.random_bipartite r ~a:6 ~b:8 ~p:0.25 in
    Alcotest.(check int) "blossom = HK on bipartite"
      (Matching.Hopcroft_karp.max_matching_bipartite g).Matching.Hopcroft_karp.size
      (Matching.Blossom.matching_number g)
  done

(* Brute-force maximum matching for cross-validation. *)
let brute_matching_number g =
  let m = Graph.m g in
  let best = ref 0 in
  let rec go id chosen count =
    if id = m then best := max !best count
    else begin
      go (id + 1) chosen count;
      let e = Graph.edge g id in
      if (not (List.mem e.Graph.u chosen)) && not (List.mem e.Graph.v chosen) then
        go (id + 1) (e.Graph.u :: e.Graph.v :: chosen) (count + 1)
    end
  in
  go 0 [] 0;
  !best

let test_blossom_vs_brute () =
  let r = rng () in
  for _ = 1 to 15 do
    let g = Gen.gnp_connected r ~n:9 ~p:0.3 in
    Alcotest.(check int) "blossom = brute force" (brute_matching_number g)
      (Matching.Blossom.matching_number g)
  done

(* --- Edge cover --- *)

let test_rho_gallai () =
  let r = rng () in
  for _ = 1 to 15 do
    let g = Gen.gnp_connected r ~n:10 ~p:0.3 in
    Alcotest.(check int) "Gallai identity"
      (Graph.n g - Matching.Blossom.matching_number g)
      (Matching.Edge_cover.rho g)
  done

let test_minimum_edge_cover () =
  let g = Gen.star 6 in
  let cover = Matching.Edge_cover.minimum g in
  Alcotest.(check bool) "is cover" true (Matching.Checks.is_edge_cover g cover);
  Alcotest.(check int) "star cover size" 5 (List.length cover);
  let p4 = Gen.path 4 in
  let c4 = Matching.Edge_cover.minimum p4 in
  Alcotest.(check bool) "P4 cover" true (Matching.Checks.is_edge_cover p4 c4);
  Alcotest.(check int) "P4 rho" 2 (List.length c4)

let test_edge_cover_of_size () =
  let g = Gen.cycle 6 in
  Alcotest.(check bool) "rho(C6)=3 so size 2 impossible" true
    (Matching.Edge_cover.of_size g 2 = None);
  (match Matching.Edge_cover.of_size g 4 with
  | None -> Alcotest.fail "size 4 should exist"
  | Some c ->
      Alcotest.(check int) "exactly 4" 4 (List.length c);
      Alcotest.(check bool) "covers" true (Matching.Checks.is_edge_cover g c);
      Alcotest.(check int) "distinct" 4 (List.length (List.sort_uniq compare c)));
  Alcotest.(check bool) "k > m impossible" true (Matching.Edge_cover.of_size g 7 = None);
  Alcotest.(check bool) "exists_of_size" true (Matching.Edge_cover.exists_of_size g 3);
  Alcotest.(check bool) "not exists below rho" false
    (Matching.Edge_cover.exists_of_size g 2);
  Alcotest.check_raises "isolated vertex rejected"
    (Invalid_argument "Edge_cover: graph has an isolated vertex") (fun () ->
      ignore (Matching.Edge_cover.rho (Graph.make ~n:3 [ (0, 1) ])))

(* --- König --- *)

let test_koenig_small () =
  let g = Gen.complete_bipartite 2 3 in
  let k = Matching.Koenig.solve g in
  Alcotest.(check int) "VC size = matching size" 2
    (List.length k.Matching.Koenig.vertex_cover);
  Alcotest.(check bool) "VC is cover" true
    (Matching.Checks.is_vertex_cover g k.Matching.Koenig.vertex_cover);
  Alcotest.(check bool) "IS independent" true
    (Matching.Checks.is_independent_set g k.Matching.Koenig.independent_set);
  Alcotest.(check int) "partition" (Graph.n g)
    (List.length k.Matching.Koenig.vertex_cover
    + List.length k.Matching.Koenig.independent_set)

let test_koenig_theorem () =
  let r = rng () in
  for _ = 1 to 20 do
    let g = Gen.random_bipartite r ~a:7 ~b:9 ~p:0.2 in
    let k = Matching.Koenig.solve g in
    Alcotest.(check int) "König: |VC| = mu"
      k.Matching.Koenig.matching.Matching.Hopcroft_karp.size
      (List.length k.Matching.Koenig.vertex_cover);
    Alcotest.(check bool) "cover valid" true
      (Matching.Checks.is_vertex_cover g k.Matching.Koenig.vertex_cover);
    Alcotest.(check bool) "IS valid" true
      (Matching.Checks.is_independent_set g k.Matching.Koenig.independent_set)
  done

let test_koenig_vs_exact_is () =
  (* Gallai: alpha = n - tau; König tau = mu for bipartite. *)
  let r = rng () in
  for _ = 1 to 10 do
    let g = Gen.random_bipartite r ~a:5 ~b:6 ~p:0.3 in
    let k = Matching.Koenig.solve g in
    Alcotest.(check int) "max IS matches branch&bound"
      (Matching.Independent.independence_number g)
      (List.length k.Matching.Koenig.independent_set)
  done

let test_koenig_rejects_non_bipartite () =
  Alcotest.check_raises "odd cycle" (Invalid_argument "Koenig.solve: graph not bipartite")
    (fun () -> ignore (Matching.Koenig.solve (Gen.cycle 5)))

(* --- Hall / expander --- *)

let test_hall_path () =
  let g = Gen.path 4 in
  (* VC = {1,2}: N(1) ∩ IS = {0}, N(2) ∩ IS = {3}: expander. *)
  let v = Matching.Hall.check g ~vc:[ 1; 2 ] in
  Alcotest.(check bool) "P4 inner expander" true v.Matching.Hall.expander;
  (match v.Matching.Hall.saturating_matching with
  | Some m ->
      Alcotest.(check int) "saturating size" 2 (List.length m);
      let uncovered = Matching.Checks.uncovered_vertices g m in
      Alcotest.(check bool) "saturates VC" true
        (not (List.exists (fun v -> List.mem v uncovered) [ 1; 2 ]))
  | None -> Alcotest.fail "expected saturating matching")

let test_hall_star () =
  let g = Gen.star 5 in
  (* VC = leaves: they all expand only into... leaves' neighbours = {0}. *)
  let v = Matching.Hall.check g ~vc:[ 1; 2; 3; 4 ] in
  Alcotest.(check bool) "leaves not expander" false v.Matching.Hall.expander;
  (match v.Matching.Hall.violating_set with
  | Some x ->
      let crossing =
        Graph.neighborhood g x |> List.filter (fun w -> not (List.mem w [ 1; 2; 3; 4 ]))
      in
      Alcotest.(check bool) "deficient witness" true
        (List.length crossing < List.length x)
  | None -> Alcotest.fail "expected violating set");
  (* VC = centre: N(0) ∩ leaves has 4 elements >= 1. *)
  Alcotest.(check bool) "centre is expander" true
    (Matching.Hall.check g ~vc:[ 0 ]).Matching.Hall.expander

(* A vertex cover to test Hall on: the complement of the independent
   set picked greedily in ascending-degree order. *)
let greedy_cover g =
  let n = Graph.n g in
  let blocked = Array.make n false and chosen = Array.make n false in
  List.init n Fun.id
  |> List.sort (fun a b -> compare (Graph.degree g a) (Graph.degree g b))
  |> List.iter (fun v ->
         if not blocked.(v) then begin
           chosen.(v) <- true;
           Graph.iter_neighbors g v ~f:(fun w -> blocked.(w) <- true)
         end);
  List.filter (fun v -> not chosen.(v)) (List.init n Fun.id)

let test_hall_matches_exhaustive () =
  let r = rng () in
  for _ = 1 to 30 do
    let g = Gen.gnp_connected r ~n:9 ~p:0.3 in
    let vc = greedy_cover g in
    Alcotest.(check bool) "matching-based = exhaustive"
      (Matching.Hall.check_exhaustive g ~vc)
      (Matching.Hall.check g ~vc).Matching.Hall.expander
  done

let test_hall_violator_is_deficient () =
  let r = rng () in
  let checked = ref 0 in
  for _ = 1 to 40 do
    let g = Gen.gnp_connected r ~n:10 ~p:0.25 in
    let vc = greedy_cover g in
    match Matching.Hall.check g ~vc with
    | { Matching.Hall.expander = false; violating_set = Some x; _ } ->
        incr checked;
        let in_vc v = List.mem v vc in
        let crossing =
          Graph.neighborhood g x |> List.filter (fun w -> not (in_vc w))
        in
        Alcotest.(check bool) "witness is deficient" true
          (List.length crossing < List.length x)
    | _ -> ()
  done;
  Alcotest.(check bool) "some non-expander sampled" true (!checked > 0)

(* --- Exact independent set --- *)

let test_exact_independent () =
  Alcotest.(check int) "alpha(C5)" 2 (Matching.Independent.independence_number (Gen.cycle 5));
  Alcotest.(check int) "alpha(K5)" 1 (Matching.Independent.independence_number (Gen.complete 5));
  Alcotest.(check int) "alpha(star6)" 5 (Matching.Independent.independence_number (Gen.star 6));
  Alcotest.(check int) "alpha(P5)" 3 (Matching.Independent.independence_number (Gen.path 5));
  Alcotest.(check int) "alpha(grid3x3)" 5
    (Matching.Independent.independence_number (Gen.grid 3 3))

let test_all_maximal () =
  let g = Gen.cycle 4 in
  let sets = Matching.Independent.all_maximal g in
  Alcotest.(check (list (list int))) "C4 maximal ISs" [ [ 0; 2 ]; [ 1; 3 ] ] sets;
  let grid = Gen.grid 2 3 in
  List.iter
    (fun s ->
      Alcotest.(check bool) "each independent" true
        (Matching.Checks.is_independent_set grid s))
    (Matching.Independent.all_maximal grid)

(* --- Properties --- *)

let graph_gen =
  QCheck.make
    (QCheck.Gen.map
       (fun seed ->
         let r = Prng.Rng.create seed in
         Gen.gnp_connected r ~n:(3 + Prng.Rng.int r 9) ~p:0.3)
       QCheck.Gen.int)

let props =
  [
    QCheck.Test.make ~name:"blossom optimal vs brute force" ~count:60 graph_gen
      (fun g -> Matching.Blossom.matching_number g = brute_matching_number g);
    QCheck.Test.make ~name:"minimum edge cover has Gallai size" ~count:60 graph_gen
      (fun g ->
        List.length (Matching.Edge_cover.minimum g)
        = Graph.n g - Matching.Blossom.matching_number g);
    QCheck.Test.make ~name:"minimum edge cover covers" ~count:60 graph_gen (fun g ->
        Matching.Checks.is_edge_cover g (Matching.Edge_cover.minimum g));
  ]

let () =
  Alcotest.run "matching"
    [
      ( "checks",
        [
          Alcotest.test_case "is_matching" `Quick test_is_matching;
          Alcotest.test_case "is_edge_cover" `Quick test_is_edge_cover;
          Alcotest.test_case "vertex cover / IS" `Quick test_vertex_cover_and_is;
          Alcotest.test_case "covered/uncovered" `Quick test_covered_uncovered;
        ] );
      ( "hopcroft-karp",
        [
          Alcotest.test_case "complete bipartite" `Quick test_hk_complete_bipartite;
          Alcotest.test_case "path" `Quick test_hk_path;
          Alcotest.test_case "custom sides" `Quick test_hk_sides;
          Alcotest.test_case "mate consistency" `Quick test_hk_mate_consistency;
        ] );
      ( "blossom",
        [
          Alcotest.test_case "odd cycles" `Quick test_blossom_odd_cycle;
          Alcotest.test_case "complete graphs" `Quick test_blossom_complete;
          Alcotest.test_case "petersen" `Quick test_blossom_petersen;
          Alcotest.test_case "structure" `Quick test_blossom_structure;
          Alcotest.test_case "agrees with HK" `Quick test_blossom_agrees_with_hk_on_bipartite;
          Alcotest.test_case "vs brute force" `Quick test_blossom_vs_brute;
        ] );
      ( "edge-cover",
        [
          Alcotest.test_case "Gallai identity" `Quick test_rho_gallai;
          Alcotest.test_case "minimum cover" `Quick test_minimum_edge_cover;
          Alcotest.test_case "cover of size k" `Quick test_edge_cover_of_size;
        ] );
      ( "koenig",
        [
          Alcotest.test_case "small" `Quick test_koenig_small;
          Alcotest.test_case "theorem" `Quick test_koenig_theorem;
          Alcotest.test_case "vs exact IS" `Quick test_koenig_vs_exact_is;
          Alcotest.test_case "rejects non-bipartite" `Quick test_koenig_rejects_non_bipartite;
        ] );
      ( "hall",
        [
          Alcotest.test_case "path" `Quick test_hall_path;
          Alcotest.test_case "star" `Quick test_hall_star;
          Alcotest.test_case "matches exhaustive" `Quick test_hall_matches_exhaustive;
          Alcotest.test_case "violator deficient" `Quick test_hall_violator_is_deficient;
        ] );
      ( "independent",
        [
          Alcotest.test_case "exact alpha" `Quick test_exact_independent;
          Alcotest.test_case "all maximal" `Quick test_all_maximal;
        ] );
      ( "properties",
        List.map (QCheck_alcotest.to_alcotest ~verbose:false) props );
    ]
