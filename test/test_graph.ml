(* Tests for the netgraph substrate: core structure, generators,
   traversal, bipartiteness, properties and serialization. *)

open Netgraph

let rng () = Prng.Rng.create 1234

(* Row [v] of the adjacency, read through the iterators. *)
let neighbors g v =
  List.rev (Graph.fold_neighbors g v ~init:[] ~f:(fun acc w -> w :: acc))

let incident_edges g v =
  List.rev (Graph.fold_incident g v ~init:[] ~f:(fun acc _ id -> id :: acc))

let endpoints g id =
  let e = Graph.edge g id in
  (e.Graph.u, e.Graph.v)

(* Row [v] as (neighbor, edge id) pairs sorted by neighbor, built from
   the edge list alone: the reference the packed rows must match. *)
let reference_row g v =
  Graph.fold_edges g ~init:[] ~f:(fun acc id e ->
      if e.Graph.u = v then (e.Graph.v, id) :: acc
      else if e.Graph.v = v then (e.Graph.u, id) :: acc
      else acc)
  |> List.sort compare

let test_make_validation () =
  Alcotest.check_raises "negative n" (Invalid_argument "Graph.make: negative vertex count")
    (fun () -> ignore (Graph.make ~n:(-1) []));
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.make: self-loop at 1")
    (fun () -> ignore (Graph.make ~n:3 [ (1, 1) ]));
  Alcotest.check_raises "duplicate" (Invalid_argument "Graph.make: duplicate edge (0,1)")
    (fun () -> ignore (Graph.make ~n:3 [ (0, 1); (1, 0) ]));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Graph.make: endpoint out of range (0,5)") (fun () ->
      ignore (Graph.make ~n:3 [ (0, 5) ]))

let test_basic_accessors () =
  let g = Graph.make ~n:4 [ (0, 1); (2, 1); (2, 3) ] in
  Alcotest.(check int) "n" 4 (Graph.n g);
  Alcotest.(check int) "m" 3 (Graph.m g);
  Alcotest.(check (pair int int)) "normalized endpoints" (1, 2) (endpoints g 1);
  Alcotest.(check bool) "adjacent" true (Graph.is_adjacent g 1 0);
  Alcotest.(check bool) "not adjacent" false (Graph.is_adjacent g 0 3);
  Alcotest.(check (option int)) "find_edge both ways" (Some 2) (Graph.find_edge g 3 2);
  Alcotest.(check (option int)) "find_edge absent" None (Graph.find_edge g 0 2);
  Alcotest.(check (list int)) "neighbors sorted" [ 0; 2 ] (neighbors g 1);
  Alcotest.(check int) "degree" 2 (Graph.degree g 2)

let test_folds () =
  let g = Gen.cycle 5 in
  Alcotest.(check int) "fold_vertices" 10
    (Graph.fold_vertices g ~init:0 ~f:(fun acc v -> acc + v));
  Alcotest.(check int) "fold_edges counts" 5
    (Graph.fold_edges g ~init:0 ~f:(fun acc _ _ -> acc + 1));
  let sum_deg = Graph.fold_vertices g ~init:0 ~f:(fun a v -> a + Graph.degree g v) in
  Alcotest.(check int) "handshake lemma" (2 * Graph.m g) sum_deg

let test_isolated () =
  let g = Graph.make ~n:4 [ (0, 1) ] in
  Alcotest.(check (list int)) "isolated" [ 2; 3 ] (Graph.isolated_vertices g);
  Alcotest.(check bool) "has isolated" true (Graph.has_isolated_vertex g);
  Alcotest.(check bool) "path has none" false (Gen.path 4 |> Graph.has_isolated_vertex)

let test_neighborhood () =
  let g = Gen.path 5 in
  Alcotest.(check (list int)) "N({0})" [ 1 ] (Graph.neighborhood g [ 0 ]);
  Alcotest.(check (list int)) "N({1,3})" [ 0; 2; 4 ] (Graph.neighborhood g [ 1; 3 ]);
  Alcotest.(check (list int)) "N({2}) in cycle" [ 1; 3 ]
    (Graph.neighborhood (Gen.cycle 5) [ 2 ])

let test_edge_subgraph () =
  let g = Gen.cycle 4 in
  let sub, mapping = Graph.edge_subgraph g [ 0; 2 ] in
  Alcotest.(check int) "same n" 4 (Graph.n sub);
  Alcotest.(check int) "two edges" 2 (Graph.m sub);
  Alcotest.(check (array int)) "id mapping" [| 0; 2 |] mapping;
  Alcotest.(check bool) "edge kept" true
    (let e = Graph.edge g 0 in
     Graph.is_adjacent sub e.Graph.u e.Graph.v)

let test_equal () =
  let a = Graph.make ~n:3 [ (0, 1); (1, 2) ] in
  let b = Graph.make ~n:3 [ (2, 1); (1, 0) ] in
  let c = Graph.make ~n:3 [ (0, 1); (0, 2) ] in
  Alcotest.(check bool) "equal up to orientation/order" true (Graph.equal a b);
  Alcotest.(check bool) "different edges" false (Graph.equal a c)

let test_builder () =
  let bd = Graph.Builder.create ~edges_hint:1 ~n:5 () in
  (* past the hint, forcing the growable arrays to double *)
  List.iter
    (fun (u, v) -> Graph.Builder.add_edge bd u v)
    [ (3, 0); (0, 1); (4, 1); (2, 3) ];
  let g = Graph.Builder.finish bd in
  Alcotest.(check int) "edge count" 4 (Graph.m g);
  Alcotest.(check bool) "same graph as make" true
    (Graph.equal g (Graph.make ~n:5 [ (0, 3); (0, 1); (1, 4); (2, 3) ]));
  (* insertion order is preserved as edge ids, orientation normalized *)
  Alcotest.(check (pair int int)) "edge 0" (0, 3) (endpoints g 0);
  Alcotest.(check (pair int int)) "edge 2" (1, 4) (endpoints g 2);
  Alcotest.check_raises "builder self-loop"
    (Invalid_argument "Graph.make: self-loop at 2") (fun () ->
      Graph.Builder.add_edge (Graph.Builder.create ~n:3 ()) 2 2);
  Alcotest.check_raises "builder range"
    (Invalid_argument "Graph.make: endpoint out of range (3,1)") (fun () ->
      Graph.Builder.add_edge (Graph.Builder.create ~n:3 ()) 3 1);
  Alcotest.check_raises "builder duplicate"
    (Invalid_argument "Graph.make: duplicate edge (1,2)") (fun () ->
      let bd = Graph.Builder.create ~n:3 () in
      Graph.Builder.add_edge bd 1 2;
      Graph.Builder.add_edge bd 2 1;
      ignore (Graph.Builder.finish bd))

let test_iterators_match_copies () =
  let g = Graph.make ~n:6 [ (0, 1); (0, 2); (1, 2); (2, 3); (3, 4); (1, 4) ] in
  for v = 0 to Graph.n g - 1 do
    let row = reference_row g v in
    let seen = ref [] in
    Graph.iter_neighbors g v ~f:(fun w -> seen := w :: !seen);
    Alcotest.(check (list int))
      (Printf.sprintf "iter_neighbors %d" v)
      (List.map fst row) (List.rev !seen);
    let pairs = ref [] in
    Graph.iter_incident g v ~f:(fun w id -> pairs := (w, id) :: !pairs);
    Alcotest.(check (list (pair int int)))
      (Printf.sprintf "iter_incident %d" v)
      row (List.rev !pairs);
    Alcotest.(check int)
      (Printf.sprintf "fold_neighbors %d" v)
      (List.fold_left (fun acc (w, _) -> acc + w) 0 row)
      (Graph.fold_neighbors g v ~init:0 ~f:( + ));
    Alcotest.(check int)
      (Printf.sprintf "fold_incident %d" v)
      (List.fold_left (fun acc (_, id) -> acc + id) 0 row)
      (Graph.fold_incident g v ~init:0 ~f:(fun acc _ id -> acc + id))
  done

(* Int_sort backs the CSR build; gate it against the stdlib sort.  The
   payload holds each key's original index, so it must still name the
   key it rides with. *)
let check_sort_pairs name a =
  let orig = Array.copy a and expect = Array.copy a in
  Array.sort Int.compare expect;
  let payload = Array.init (Array.length a) Fun.id in
  Int_sort.sort_pairs a payload;
  Alcotest.(check (array int)) name expect a;
  Alcotest.(check (array int)) (name ^ " payload") a
    (Array.map (fun i -> orig.(i)) payload)

let test_int_sort () =
  let r = rng () in
  List.iter
    (fun n ->
      check_sort_pairs (Printf.sprintf "sort n=%d" n)
        (Array.init n (fun _ -> Prng.Rng.int r 50)))
    [ 0; 1; 2; 3; 15; 16; 17; 100; 1000; 5000 ];
  (* adversarial shapes for the introsort's quicksort phase *)
  List.iter
    (fun (name, a) -> check_sort_pairs name a)
    [
      ("sorted", Array.init 1000 Fun.id);
      ("reversed", Array.init 1000 (fun i -> 999 - i));
      ("constant", Array.make 1000 7);
      ("organ pipe", Array.init 1000 (fun i -> min i (999 - i)));
      ("wide keys", Array.init 2000 (fun _ -> Prng.Rng.int r 10_000_000));
    ];
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Int_sort.sort_pairs: length mismatch") (fun () ->
      Int_sort.sort_pairs (Array.make 2 0) (Array.make 3 0))

(* int_sort.mli promises no allocation: sorting 10^5 keys with their
   payload may allocate at most a few words of measurement noise.  The
   count is over both heaps: a scratch array of 10^5 words would go
   straight to the major heap, where [Gc.minor_words] does not see it. *)
let test_int_sort_no_alloc () =
  let r = rng () in
  let keys = Array.init 100_000 (fun _ -> Prng.Rng.int r 1_000_000_000) in
  let payload = Array.init 100_000 Fun.id in
  let before = Gc.allocated_bytes () in
  Int_sort.sort_pairs keys payload;
  let bytes = Gc.allocated_bytes () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f bytes allocated" bytes)
    true (bytes < 512.)

(* Generators *)

let check_summary name g ~n ~m ~connected ~bipartite =
  let s = Props.summary g in
  Alcotest.(check int) (name ^ " n") n s.Props.n;
  Alcotest.(check int) (name ^ " m") m s.Props.m;
  Alcotest.(check bool) (name ^ " connected") connected s.Props.connected;
  Alcotest.(check bool) (name ^ " bipartite") bipartite s.Props.bipartite

let test_deterministic_generators () =
  check_summary "path" (Gen.path 6) ~n:6 ~m:5 ~connected:true ~bipartite:true;
  check_summary "cycle even" (Gen.cycle 6) ~n:6 ~m:6 ~connected:true ~bipartite:true;
  check_summary "cycle odd" (Gen.cycle 5) ~n:5 ~m:5 ~connected:true ~bipartite:false;
  check_summary "star" (Gen.star 7) ~n:7 ~m:6 ~connected:true ~bipartite:true;
  check_summary "complete" (Gen.complete 5) ~n:5 ~m:10 ~connected:true ~bipartite:false;
  check_summary "K23" (Gen.complete_bipartite 2 3) ~n:5 ~m:6 ~connected:true
    ~bipartite:true;
  check_summary "grid" (Gen.grid 3 4) ~n:12 ~m:17 ~connected:true ~bipartite:true;
  check_summary "hypercube" (Gen.hypercube 3) ~n:8 ~m:12 ~connected:true ~bipartite:true;
  check_summary "binary tree" (Gen.binary_tree 3) ~n:15 ~m:14 ~connected:true
    ~bipartite:true

let test_generator_validation () =
  Alcotest.check_raises "path 1" (Invalid_argument "Gen.path: need n >= 2") (fun () ->
      ignore (Gen.path 1));
  Alcotest.check_raises "cycle 2" (Invalid_argument "Gen.cycle: need n >= 3") (fun () ->
      ignore (Gen.cycle 2));
  Alcotest.check_raises "regular odd"
    (Invalid_argument "Gen.random_regular: n * d must be even") (fun () ->
      ignore (Gen.random_regular (rng ()) ~n:5 ~d:3))

let test_random_tree () =
  let r = rng () in
  for n = 2 to 20 do
    let t = Gen.random_tree r ~n in
    Alcotest.(check int) "tree edges" (n - 1) (Graph.m t);
    Alcotest.(check bool) "tree connected" true (Traverse.is_connected t)
  done

let test_gnp_connected () =
  let r = rng () in
  for _ = 1 to 10 do
    let g = Gen.gnp_connected r ~n:30 ~p:0.05 in
    Alcotest.(check bool) "connected" true (Traverse.is_connected g);
    Alcotest.(check bool) "no isolated" false (Graph.has_isolated_vertex g)
  done

let test_random_bipartite () =
  let r = rng () in
  for _ = 1 to 10 do
    let g = Gen.random_bipartite r ~a:8 ~b:12 ~p:0.1 in
    Alcotest.(check bool) "bipartite" true (Bipartite.is_bipartite g);
    Alcotest.(check bool) "connected" true (Traverse.is_connected g)
  done

let test_random_regular () =
  let r = rng () in
  let g = Gen.random_regular r ~n:20 ~d:4 in
  for v = 0 to Graph.n g - 1 do
    Alcotest.(check int) "regular degree" 4 (Graph.degree g v)
  done

let test_enterprise () =
  let r = rng () in
  let g = Gen.enterprise r ~core:5 ~leaves:20 ~uplinks:2 in
  Alcotest.(check int) "n" 25 (Graph.n g);
  Alcotest.(check int) "m" ((5 * 4 / 2) + (20 * 2)) (Graph.m g);
  Alcotest.(check bool) "connected" true (Traverse.is_connected g);
  for leaf = 5 to 24 do
    Alcotest.(check int) "leaf degree" 2 (Graph.degree g leaf)
  done

(* Scalable generators (the BigGraph tier's instances, tested small). *)

let test_preferential_attachment () =
  let r = rng () in
  List.iter
    (fun (n, c) ->
      let g = Gen.preferential_attachment r ~n ~c in
      (* m = 1 + sum_{i=2}^{n-1} min(c, i): each arrival adds min(c, i)
         distinct earlier targets. *)
      let expect =
        let s = ref 1 in
        for i = 2 to n - 1 do
          s := !s + min c i
        done;
        !s
      in
      Alcotest.(check int) (Printf.sprintf "PA n=%d c=%d edges" n c) expect
        (Graph.m g);
      Alcotest.(check bool) "PA connected" true (Traverse.is_connected g))
    [ (50, 1); (200, 2); (100, 3) ];
  (* c = 1 grows a random recursive tree: m = n - 1 *)
  Alcotest.(check int) "PA tree" 49 (Graph.m (Gen.preferential_attachment r ~n:50 ~c:1))

let test_chung_lu () =
  let r = rng () in
  let n = 4000 in
  let g = Gen.chung_lu r ~n ~gamma:2.5 ~avg_degree:4.0 in
  Alcotest.(check int) "n" n (Graph.n g);
  let mean = 2.0 *. float_of_int (Graph.m g) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "mean degree %.2f near target" mean)
    true
    (mean > 2.0 && mean < 6.0);
  (* power-law skew: the hub outweighs the mean by a wide margin *)
  let maxd =
    Graph.fold_vertices g ~init:0 ~f:(fun acc v -> max acc (Graph.degree g v))
  in
  Alcotest.(check bool)
    (Printf.sprintf "heavy tail (max degree %d)" maxd)
    true
    (float_of_int maxd > 5.0 *. mean)

let test_random_bipartite_sparse () =
  let r = rng () in
  List.iter
    (fun (a, b, d) ->
      let g = Gen.random_bipartite_sparse r ~a ~b ~d in
      Alcotest.(check int) "exactly a*d edges" (a * d) (Graph.m g);
      Graph.iter_edges g ~f:(fun _ e ->
          Alcotest.(check bool) "edge crosses the sides" true
            (e.Graph.u < a && e.Graph.v >= a));
      for u = 0 to a - 1 do
        Alcotest.(check int) "left degree d" d (Graph.degree g u)
      done)
    [ (40, 60, 3); (10, 12, 8); (5, 5, 5) ]

(* Traversal *)

let test_bfs_dfs () =
  let g = Gen.path 5 in
  Alcotest.(check (list (list int))) "one component" [ [ 0; 1; 2; 3; 4 ] ]
    (Traverse.components g);
  Alcotest.(check (array int)) "bfs from middle" [| 2; 1; 0; 1; 2 |]
    (Traverse.distances g 2)

let test_distances () =
  let g = Gen.cycle 6 in
  Alcotest.(check (array int)) "cycle distances" [| 0; 1; 2; 3; 2; 1 |]
    (Traverse.distances g 0);
  let disconnected = Graph.make ~n:4 [ (0, 1); (2, 3) ] in
  let d = Traverse.distances disconnected 0 in
  Alcotest.(check int) "unreachable" (-1) d.(2)

let test_components () =
  let g = Graph.make ~n:6 [ (0, 1); (1, 2); (4, 5) ] in
  Alcotest.(check (list (list int))) "components" [ [ 0; 1; 2 ]; [ 3 ]; [ 4; 5 ] ]
    (Traverse.components g);
  Alcotest.(check bool) "not connected" false (Traverse.is_connected g);
  Alcotest.(check bool) "path connected" true (Traverse.is_connected (Gen.path 3))

let test_dfs_deep_path () =
  (* A recursive traversal overflows the stack near n = 10^5 on a
     path; the flat-queue one must not. *)
  let n = 200_000 in
  let g = Gen.path n in
  Alcotest.(check bool) "visits everything" true (Traverse.is_connected g);
  Alcotest.(check int) "far end" (n - 1) (Traverse.distances g 0).(n - 1)

(* Bipartite *)

let test_bipartite_coloring () =
  match Bipartite.coloring (Gen.path 4) with
  | None -> Alcotest.fail "path should be bipartite"
  | Some c ->
      Alcotest.(check (list int)) "side A" [ 0; 2 ] c.Bipartite.side_a;
      Alcotest.(check (list int)) "side B" [ 1; 3 ] c.Bipartite.side_b;
      Graph.iter_edges (Gen.path 4) ~f:(fun _ e ->
          Alcotest.(check bool) "proper coloring" true
            (c.Bipartite.color.(e.Graph.u) <> c.Bipartite.color.(e.Graph.v)))

let test_odd_cycle () =
  Alcotest.(check bool) "C5 has an odd cycle" false (Bipartite.is_bipartite (Gen.cycle 5));
  Alcotest.(check bool) "bipartite has none" true (Bipartite.is_bipartite (Gen.grid 2 3))

(* Props *)

let test_props () =
  let g = Gen.star 5 in
  let s = Props.summary g in
  Alcotest.(check int) "min degree" 1 s.Props.min_degree;
  Alcotest.(check int) "max degree" 4 s.Props.max_degree;
  Alcotest.(check (float 1e-9)) "mean degree" 1.6 s.Props.mean_degree;
  Alcotest.(check bool) "valid instance" true (Props.is_valid_instance g);
  Alcotest.(check bool) "isolated invalid" false
    (Props.is_valid_instance (Graph.make ~n:3 [ (0, 1) ]))

(* Family specs *)

let test_family_parse () =
  let rng () = Prng.Rng.create 7 in
  Alcotest.(check bool) "grid spec" true
    (Graph.equal (Family.parse ~rng:(rng ()) "grid:3x4") (Gen.grid 3 4));
  Alcotest.(check bool) "kbip spec" true
    (Graph.equal
       (Family.parse ~rng:(rng ()) "kbip:3x4")
       (Gen.complete_bipartite 3 4));
  Alcotest.(check bool) "petersen spec" true
    (Graph.equal (Family.parse ~rng:(rng ()) "petersen") (Gen.petersen ()));
  let b = Family.parse ~rng:(rng ()) "bipartite:5x7:0.4" in
  Alcotest.(check int) "random bipartite n" 12 (Graph.n b);
  Alcotest.(check bool) "random bipartite is bipartite" true
    (Bipartite.coloring b <> None)

let test_family_parse_errors () =
  let parse spec = ignore (Family.parse ~rng:(Prng.Rng.create 7) spec) in
  let raises spec check_msg =
    match parse spec with
    | () -> Alcotest.failf "%s: expected Invalid_argument" spec
    | exception Invalid_argument msg ->
        Alcotest.(check bool)
          (spec ^ ": message mentions the problem")
          true (check_msg msg)
  in
  let contains haystack needle =
    let nl = String.length needle and hl = String.length haystack in
    let rec scan i =
      i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1))
    in
    scan 0
  in
  (* the old CLI parser silently built a grid for this spec *)
  raises "bipartite:5x7" (fun m -> contains m "edge probability");
  raises "bipartite:5x7" (fun m -> contains m "kbip");
  raises "nonsense:3" (fun m -> contains m "unrecognized");
  raises "grid:3" (fun m -> contains m "unrecognized");
  raises "multipartite" (fun m -> contains m "unrecognized")

(* Serialization *)

let test_edge_list_roundtrip () =
  let g = Gen.grid 3 3 in
  let text = Edge_list.to_string g in
  let g' = Edge_list.of_string text in
  Alcotest.(check bool) "roundtrip" true (Graph.equal g g')

let test_edge_list_parsing () =
  let g = Edge_list.of_string "# comment\n3\n0 1\n\n1 2\n" in
  Alcotest.(check int) "n" 3 (Graph.n g);
  Alcotest.(check int) "m" 2 (Graph.m g);
  Alcotest.check_raises "empty" (Invalid_argument "Edge_list.of_string: empty input")
    (fun () -> ignore (Edge_list.of_string "# only comments\n"));
  Alcotest.check_raises "bad header"
    (Invalid_argument "Edge_list.of_string: bad vertex-count header") (fun () ->
      ignore (Edge_list.of_string "abc\n0 1\n"))

(* Graph6.decode numbers edges in graph6 column order of the upper
   triangle, not in the encoded graph's order: clients of the daemon's
   profit and equilibrium-check ops name edges by these ids. *)
let test_graph6_edge_ids () =
  let g = Graph.make ~n:4 [ (2, 3); (0, 3); (1, 2); (0, 1); (0, 2) ] in
  let ids g =
    Graph.fold_edges g ~init:[] ~f:(fun acc id (e : Graph.edge) ->
        (id, e.u, e.v) :: acc)
    |> List.rev
  in
  let column_order =
    [ (0, 0, 1); (1, 0, 2); (2, 1, 2); (3, 0, 3); (4, 2, 3) ]
  in
  Alcotest.(check (list (triple int int int)))
    "graph6 column order" column_order
    (ids (Graph6.decode (Graph6.encode g)));
  Alcotest.(check (list (triple int int int)))
    "sparse6 in the same order" column_order
    (ids (Graph6.decode (Graph6.encode_sparse6 g)));
  Alcotest.(check bool) "not the encoded graph's numbering" true
    (ids g <> column_order)

(* Property tests *)

let graph_gen =
  QCheck.make
    (QCheck.Gen.map
       (fun seed ->
         let r = Prng.Rng.create seed in
         Gen.gnp_connected r ~n:(2 + Prng.Rng.int r 18) ~p:0.2)
       QCheck.Gen.int)

let props =
  [
    QCheck.Test.make ~name:"handshake lemma on random graphs" ~count:100 graph_gen
      (fun g ->
        Graph.fold_vertices g ~init:0 ~f:(fun a v -> a + Graph.degree g v)
        = 2 * Graph.m g);
    QCheck.Test.make ~name:"neighbors symmetric" ~count:100 graph_gen (fun g ->
        Graph.fold_edges g ~init:true ~f:(fun acc _ e ->
            acc
            && List.mem e.Graph.v (neighbors g e.Graph.u)
            && List.mem e.Graph.u (neighbors g e.Graph.v)));
    QCheck.Test.make ~name:"edge-list roundtrip preserves graph" ~count:50 graph_gen
      (fun g -> Graph.equal g (Edge_list.of_string (Edge_list.to_string g)));
    QCheck.Test.make ~name:"BFS visits the whole connected graph" ~count:50 graph_gen
      (fun g -> Traverse.is_connected g);
    QCheck.Test.make ~name:"distances satisfy edge Lipschitz" ~count:50 graph_gen
      (fun g ->
        let d = Traverse.distances g 0 in
        Graph.fold_edges g ~init:true ~f:(fun acc _ e ->
            acc && abs (d.(e.Graph.u) - d.(e.Graph.v)) <= 1));
    (* CSR vs a naive reference model built from the same edge list:
       the packed representation must be observationally identical. *)
    QCheck.Test.make ~name:"CSR agrees with the reference model" ~count:100
      graph_gen (fun g ->
        let n = Graph.n g in
        let adj = Array.make n [] in
        Graph.iter_edges g ~f:(fun id e ->
            adj.(e.Graph.u) <- (e.Graph.v, id) :: adj.(e.Graph.u);
            adj.(e.Graph.v) <- (e.Graph.u, id) :: adj.(e.Graph.v));
        let adj = Array.map (List.sort compare) adj in
        let ok = ref true in
        for v = 0 to n - 1 do
          ok := !ok && Graph.degree g v = List.length adj.(v);
          ok :=
            !ok
            && neighbors g v = List.map fst adj.(v)
            && incident_edges g v = List.map snd adj.(v);
          for w = 0 to n - 1 do
            ok :=
              !ok
              && Graph.find_edge g v w
                 = Option.map snd (List.find_opt (fun (x, _) -> x = w) adj.(v))
          done
        done;
        !ok);
    QCheck.Test.make ~name:"non-allocating iterators agree with copies"
      ~count:100 graph_gen (fun g ->
        let ok = ref true in
        for v = 0 to Graph.n g - 1 do
          let ns = ref [] and ids = ref [] in
          Graph.iter_neighbors g v ~f:(fun w -> ns := w :: !ns);
          Graph.iter_incident g v ~f:(fun w id ->
              ok := !ok && (endpoints g id = (v, w) || endpoints g id = (w, v));
              ids := id :: !ids);
          ok :=
            !ok
            && List.rev !ns = neighbors g v
            && List.rev !ids = incident_edges g v
        done;
        !ok);
    QCheck.Test.make ~name:"rebuild from edges is equal" ~count:100 graph_gen
      (fun g ->
        let edges =
          List.rev
            (Graph.fold_edges g ~init:[] ~f:(fun acc _ e ->
                 (e.Graph.v, e.Graph.u) :: acc))
        in
        Graph.equal g (Graph.make ~n:(Graph.n g) edges));
  ]

let () =
  Alcotest.run "graph"
    [
      ( "core",
        [
          Alcotest.test_case "make validation" `Quick test_make_validation;
          Alcotest.test_case "accessors" `Quick test_basic_accessors;
          Alcotest.test_case "folds" `Quick test_folds;
          Alcotest.test_case "isolated" `Quick test_isolated;
          Alcotest.test_case "neighborhood" `Quick test_neighborhood;
          Alcotest.test_case "edge subgraph" `Quick test_edge_subgraph;
          Alcotest.test_case "equality" `Quick test_equal;
          Alcotest.test_case "builder" `Quick test_builder;
          Alcotest.test_case "iterators vs copies" `Quick test_iterators_match_copies;
          Alcotest.test_case "int sort" `Quick test_int_sort;
          Alcotest.test_case "int sort allocates nothing" `Quick
            test_int_sort_no_alloc;
        ] );
      ( "generators",
        [
          Alcotest.test_case "deterministic families" `Quick test_deterministic_generators;
          Alcotest.test_case "validation" `Quick test_generator_validation;
          Alcotest.test_case "random tree" `Quick test_random_tree;
          Alcotest.test_case "gnp connected" `Quick test_gnp_connected;
          Alcotest.test_case "random bipartite" `Quick test_random_bipartite;
          Alcotest.test_case "random regular" `Quick test_random_regular;
          Alcotest.test_case "enterprise" `Quick test_enterprise;
          Alcotest.test_case "preferential attachment" `Quick
            test_preferential_attachment;
          Alcotest.test_case "chung-lu" `Quick test_chung_lu;
          Alcotest.test_case "sparse bipartite" `Quick
            test_random_bipartite_sparse;
        ] );
      ( "traversal",
        [
          Alcotest.test_case "bfs/dfs" `Quick test_bfs_dfs;
          Alcotest.test_case "distances" `Quick test_distances;
          Alcotest.test_case "deep path dfs" `Quick test_dfs_deep_path;
          Alcotest.test_case "components" `Quick test_components;
        ] );
      ( "bipartite",
        [
          Alcotest.test_case "coloring" `Quick test_bipartite_coloring;
          Alcotest.test_case "odd cycle" `Quick test_odd_cycle;
        ] );
      ("props", [ Alcotest.test_case "summary" `Quick test_props ]);
      ( "family",
        [
          Alcotest.test_case "parse" `Quick test_family_parse;
          Alcotest.test_case "parse errors" `Quick test_family_parse_errors;
        ] );
      ( "io",
        [
          Alcotest.test_case "edge list roundtrip" `Quick test_edge_list_roundtrip;
          Alcotest.test_case "edge list parsing" `Quick test_edge_list_parsing;
          Alcotest.test_case "graph6 edge ids" `Quick test_graph6_edge_ids;
        ] );
      ("properties", List.map (QCheck_alcotest.to_alcotest ~verbose:false) props);
    ]
