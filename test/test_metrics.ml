(* Tests for graph metrics (distances, girth, cut structure) and the
   extended generator families. *)

open Netgraph

(* --- Metrics --- *)

let test_eccentricity_diameter_radius () =
  let p5 = Gen.path 5 in
  Alcotest.(check int) "diameter P5" 4 (Metrics.diameter p5);
  Alcotest.(check int) "radius P5" 2 (Metrics.radius p5);
  Alcotest.(check int) "diameter C6" 3 (Metrics.diameter (Gen.cycle 6));
  Alcotest.(check int) "radius C6" 3 (Metrics.radius (Gen.cycle 6));
  Alcotest.(check int) "diameter K5" 1 (Metrics.diameter (Gen.complete 5));
  Alcotest.(check int) "diameter star" 2 (Metrics.diameter (Gen.star 6));
  Alcotest.(check int) "radius star" 1 (Metrics.radius (Gen.star 6));
  Alcotest.(check int) "diameter hypercube-3" 3 (Metrics.diameter (Gen.hypercube 3));
  Alcotest.check_raises "disconnected rejected"
    (Invalid_argument "Metrics: graph must be connected") (fun () ->
      ignore (Metrics.diameter (Graph.make ~n:4 [ (0, 1); (2, 3) ])))

let test_girth () =
  Alcotest.(check (option int)) "girth C5" (Some 5) (Metrics.girth (Gen.cycle 5));
  Alcotest.(check (option int)) "girth C8" (Some 8) (Metrics.girth (Gen.cycle 8));
  Alcotest.(check (option int)) "girth K4" (Some 3) (Metrics.girth (Gen.complete 4));
  Alcotest.(check (option int)) "girth K(2,3)" (Some 4)
    (Metrics.girth (Gen.complete_bipartite 2 3));
  Alcotest.(check (option int)) "girth grid" (Some 4) (Metrics.girth (Gen.grid 3 3));
  Alcotest.(check (option int)) "girth tree" None (Metrics.girth (Gen.binary_tree 3));
  Alcotest.(check (option int)) "girth path" None (Metrics.girth (Gen.path 6));
  Alcotest.(check (option int)) "girth petersen" (Some 5)
    (Metrics.girth (Gen.petersen ()))

let test_articulation_points () =
  Alcotest.(check (list int)) "path interior" [ 1; 2; 3 ]
    (Metrics.articulation_points (Gen.path 5));
  Alcotest.(check (list int)) "cycle has none" []
    (Metrics.articulation_points (Gen.cycle 6));
  Alcotest.(check (list int)) "star centre" [ 0 ]
    (Metrics.articulation_points (Gen.star 5));
  Alcotest.(check (list int)) "lollipop joint" [ 3; 4; 5 ]
    (Metrics.articulation_points (Gen.lollipop 4 ~tail:3))

let test_bridges () =
  Alcotest.(check (list int)) "all path edges" [ 0; 1; 2 ]
    (Metrics.bridges (Gen.path 4));
  Alcotest.(check (list int)) "cycle has none" [] (Metrics.bridges (Gen.cycle 5));
  let barbell = Gen.barbell 3 ~bridge:0 in
  (* two triangles joined by one edge: exactly that edge is a bridge *)
  Alcotest.(check int) "barbell bridge count" 1
    (List.length (Metrics.bridges barbell));
  let bridge_id = List.hd (Metrics.bridges barbell) in
  let e = Graph.edge barbell bridge_id in
  Alcotest.(check (pair int int)) "the joining edge" (2, 3) (e.Graph.u, e.Graph.v)

(* --- New generators --- *)

let test_wheel () =
  let w = Gen.wheel 6 in
  Alcotest.(check int) "n" 6 (Graph.n w);
  Alcotest.(check int) "m = 2(n-1)" 10 (Graph.m w);
  Alcotest.(check int) "hub degree" 5 (Graph.degree w 0);
  for v = 1 to 5 do
    Alcotest.(check int) "rim degree" 3 (Graph.degree w v)
  done;
  Alcotest.(check (option int)) "girth 3" (Some 3) (Metrics.girth w)

let test_complete_multipartite () =
  let g = Gen.complete_multipartite [ 2; 2; 2 ] in
  Alcotest.(check int) "K(2,2,2) n" 6 (Graph.n g);
  Alcotest.(check int) "K(2,2,2) m" 12 (Graph.m g);
  Alcotest.(check bool) "parts independent" true
    (Matching.Checks.is_independent_set g [ 0; 1 ]);
  Alcotest.(check bool) "across parts adjacent" true (Graph.is_adjacent g 0 2);
  let bip = Gen.complete_multipartite [ 3; 4 ] in
  Alcotest.(check bool) "two parts = complete bipartite" true
    (Graph.equal bip (Gen.complete_bipartite 3 4));
  Alcotest.check_raises "single part"
    (Invalid_argument "Gen.complete_multipartite: need at least two parts")
    (fun () -> ignore (Gen.complete_multipartite [ 5 ]))

let test_barbell_lollipop () =
  let b = Gen.barbell 4 ~bridge:2 in
  Alcotest.(check int) "barbell n" 10 (Graph.n b);
  Alcotest.(check int) "barbell m" (6 + 6 + 3) (Graph.m b);
  Alcotest.(check bool) "connected" true (Traverse.is_connected b);
  let l = Gen.lollipop 4 ~tail:3 in
  Alcotest.(check int) "lollipop n" 7 (Graph.n l);
  Alcotest.(check int) "lollipop m" 9 (Graph.m l);
  Alcotest.(check int) "tail end degree" 1 (Graph.degree l 6)

let test_caterpillar () =
  let c = Gen.caterpillar ~spine:4 ~legs:2 in
  Alcotest.(check int) "n" 12 (Graph.n c);
  Alcotest.(check int) "m (tree)" 11 (Graph.m c);
  Alcotest.(check bool) "connected" true (Traverse.is_connected c);
  Alcotest.(check (option int)) "acyclic" None (Metrics.girth c);
  Alcotest.(check int) "interior spine degree" 4 (Graph.degree c 1)

let test_petersen () =
  let p = Gen.petersen () in
  Alcotest.(check int) "n" 10 (Graph.n p);
  Alcotest.(check int) "m" 15 (Graph.m p);
  for v = 0 to Graph.n p - 1 do
    Alcotest.(check int) "3-regular" 3 (Graph.degree p v)
  done;
  Alcotest.(check bool) "not bipartite" false (Bipartite.is_bipartite p);
  Alcotest.(check int) "diameter 2" 2 (Metrics.diameter p)

(* --- Properties --- *)

let tree_gen =
  QCheck.make
    (QCheck.Gen.map
       (fun seed ->
         let r = Prng.Rng.create seed in
         Gen.random_tree r ~n:(2 + Prng.Rng.int r 18))
       QCheck.Gen.int)

let connected_gen =
  QCheck.make
    (QCheck.Gen.map
       (fun seed ->
         let r = Prng.Rng.create seed in
         Gen.gnp_connected r ~n:(3 + Prng.Rng.int r 12) ~p:0.3)
       QCheck.Gen.int)

let props =
  [
    QCheck.Test.make ~name:"trees have no girth and all edges bridges" ~count:60
      tree_gen (fun t ->
        Metrics.girth t = None
        && List.length (Metrics.bridges t) = Graph.m t);
    QCheck.Test.make ~name:"radius <= diameter <= 2 radius" ~count:60 connected_gen
      (fun g ->
        let r = Metrics.radius g and d = Metrics.diameter g in
        r <= d && d <= 2 * r);
    QCheck.Test.make ~name:"girth >= 3 when present" ~count:60 connected_gen (fun g ->
        match Metrics.girth g with None -> true | Some c -> c >= 3);
    QCheck.Test.make ~name:"removing a bridge disconnects" ~count:40 connected_gen
      (fun g ->
        match Metrics.bridges g with
        | [] -> true
        | id :: _ ->
            let remaining =
              Graph.fold_edges g ~init:[] ~f:(fun acc eid e ->
                  if eid = id then acc else (e.Graph.u, e.Graph.v) :: acc)
            in
            not (Traverse.is_connected (Graph.make ~n:(Graph.n g) remaining)));
  ]

let () =
  Alcotest.run "metrics"
    [
      ( "metrics",
        [
          Alcotest.test_case "eccentricity/diameter/radius" `Quick
            test_eccentricity_diameter_radius;
          Alcotest.test_case "girth" `Quick test_girth;
          Alcotest.test_case "articulation points" `Quick test_articulation_points;
          Alcotest.test_case "bridges" `Quick test_bridges;
        ] );
      ( "generators",
        [
          Alcotest.test_case "wheel" `Quick test_wheel;
          Alcotest.test_case "complete multipartite" `Quick test_complete_multipartite;
          Alcotest.test_case "barbell/lollipop" `Quick test_barbell_lollipop;
          Alcotest.test_case "caterpillar" `Quick test_caterpillar;
          Alcotest.test_case "petersen" `Quick test_petersen;
        ] );
      ("properties", List.map (QCheck_alcotest.to_alcotest ~verbose:false) props);
    ]
