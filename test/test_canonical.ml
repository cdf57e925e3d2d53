(* Properties of Graph6.canonical — the cache key the daemon's solve
   cache rests on.  The load-bearing direction is soundness-as-a-key:
   every relabeling of a graph maps to ONE canonical string (else the
   cache leaks misses), and at small n, canonical equality coincides
   exactly with isomorphism (else the cache conflates distinct
   instances). *)

module G = Netgraph.Graph
module G6 = Netgraph.Graph6
module Gen = Netgraph.Gen

let rng = Prng.Rng.create 0x5eed_ca40

let shuffle ?(rng = rng) n =
  let perm = Array.init n (fun i -> i) in
  Prng.Rng.shuffle_in_place rng perm;
  perm

let relabel g perm =
  let b = G.Builder.create ~edges_hint:(G.m g) ~n:(G.n g) () in
  G.iter_edges g ~f:(fun _ (e : G.edge) ->
      G.Builder.add_edge b perm.(e.u) perm.(e.v));
  G.Builder.finish b

(* --- invariance: 1000 random relabelings, one key --- *)

let tier1_instances () =
  [
    ("path 6", Gen.path 6);
    ("cycle 8", Gen.cycle 8);
    ("star 5", Gen.star 5);
    ("complete 4", Gen.complete 4);
    ("grid 3x4", Gen.grid 3 4);
    ("petersen", Gen.petersen ());
    ("gnp 12", Gen.gnp rng ~n:12 ~p:0.3);
  ]

(* Larger instances with big automorphism groups: trees whose leaf
   cells hold many twins, vertex-transitive cubes and cycles, and a
   complete bipartite graph.  Each labeling costs up to a millisecond,
   so these get fewer relabelings. *)
let symmetric_instances () =
  [
    ("star 30", Gen.star 30);
    ("caterpillar 5x6", Gen.caterpillar ~spine:5 ~legs:6);
    ( "PA c=1 n=40",
      Gen.preferential_attachment (Prng.Rng.create 40) ~n:40 ~c:1 );
    ("hypercube 4", Gen.hypercube 4);
    ("K8,8", Gen.complete_bipartite 8 8);
    ("cycle 32", Gen.cycle 32);
  ]

let check_invariance ~trials instances =
  List.iter
    (fun (name, g) ->
      let n = G.n g in
      let key = G6.canonical g in
      for trial = 1 to trials do
        let g' = relabel g (shuffle n) in
        let key' = G6.canonical g' in
        if key' <> key then
          Alcotest.failf "%s trial %d: canonical drifted (%S vs %S)" name trial
            key key'
      done)
    instances

let test_relabeling_invariance () =
  check_invariance ~trials:1000 (tier1_instances ())

let test_symmetric_invariance () =
  check_invariance ~trials:100 (symmetric_instances ())

(* The cubes at the exact search's size limit: without orbit pruning
   the search on Q6 (n = 64) ran out of its branch budget after seconds
   per call, and agreement between relabelings was not guaranteed. *)
let test_hypercube_invariance () =
  check_invariance ~trials:5 [ ("hypercube 5", Gen.hypercube 5) ];
  check_invariance ~trials:3 [ ("hypercube 6", Gen.hypercube 6) ]

(* --- exactness at small n: canonical equality ⟺ isomorphism --- *)

let rec permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x ->
          List.map
            (fun rest -> x :: rest)
            (permutations (List.filter (fun y -> y <> x) l)))
        l

let edge_set g =
  let acc = ref [] in
  G.iter_edges g ~f:(fun _ (e : G.edge) -> acc := (e.u, e.v) :: !acc);
  List.sort_uniq compare !acc

let isomorphic g h =
  let n = G.n g in
  G.n h = n
  && G.m h = G.m g
  &&
  let eh = edge_set h in
  List.exists
    (fun perm ->
      let p = Array.of_list perm in
      edge_set (relabel g p) = eh)
    (permutations (List.init n (fun i -> i)))

let random_graph n =
  let b = G.Builder.create ~n () in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Prng.Rng.int rng 100 < 40 then G.Builder.add_edge b u v
    done
  done;
  G.Builder.finish b

let test_canonical_equality_is_isomorphism () =
  (* random pairs at n <= 6, checked against brute force over all n!
     relabelings.  Mix in relabeled copies so the "isomorphic" branch is
     exercised as often as the "not" branch. *)
  for trial = 1 to 60 do
    let n = 3 + Prng.Rng.int rng 4 in
    let g = random_graph n in
    let h =
      if trial mod 2 = 0 then relabel g (shuffle n) else random_graph n
    in
    let same_key = G6.canonical g = G6.canonical h in
    let iso = isomorphic g h in
    if same_key <> iso then
      Alcotest.failf "trial %d (n=%d): canonical %s but graphs %s isomorphic"
        trial n
        (if same_key then "agrees" else "differs")
        (if iso then "ARE" else "are NOT")
  done

(* --- the canonical string is a faithful encoding of the graph --- *)

let degree_multiset g =
  List.sort compare (List.init (G.n g) (G.degree g))

let test_canonical_decodes_to_isomorph () =
  List.iter
    (fun (name, g) ->
      let g' = G6.decode (G6.canonical g) in
      Alcotest.(check int) (name ^ ": n") (G.n g) (G.n g');
      Alcotest.(check int) (name ^ ": m") (G.m g) (G.m g');
      Alcotest.(check (list int))
        (name ^ ": degree multiset")
        (degree_multiset g) (degree_multiset g'))
    (tier1_instances ())

let test_edge_cases () =
  let empty = G.make ~n:0 [] in
  let one = G.make ~n:1 [] in
  Alcotest.(check string) "n=0 stable" (G6.canonical empty) (G6.canonical empty);
  Alcotest.(check int) "n=0 decodes" 0 (G.n (G6.decode (G6.canonical empty)));
  Alcotest.(check int) "n=1 decodes" 1 (G.n (G6.decode (G6.canonical one)));
  (* isolated vertices and a disconnected graph *)
  let g = G.make ~n:7 [ (0, 1); (1, 2); (4, 5) ] in
  let key = G6.canonical g in
  for _ = 1 to 200 do
    let g' = relabel g (shuffle 7) in
    Alcotest.(check string) "disconnected invariance" key (G6.canonical g')
  done;
  (* regular graphs are the refinement's worst case: every vertex looks
     alike, so the exact search must do the separating *)
  let c6 = Gen.cycle 6 in
  let two_triangles =
    G.make ~n:6 [ (0, 1); (1, 2); (2, 0); (3, 4); (4, 5); (5, 3) ]
  in
  Alcotest.(check bool) "C6 vs 2K3 distinguished" false
    (G6.canonical c6 = G6.canonical two_triangles);
  for _ = 1 to 200 do
    Alcotest.(check string) "C6 invariance" (G6.canonical c6)
      (G6.canonical (relabel c6 (shuffle 6)))
  done

(* --- pinned keys: a seeded sweep of relabeled graphs, one digest --- *)

(* Every key in this sweep is one the search finishes, or (n > 64) its
   first leaf; a change that moves any of them changes the cache
   identity of instances already cached, so the digest is pinned. *)
let sweep_keys () =
  let rng = Prng.Rng.create 0xd16e57 in
  let families n =
    [
      ("gnp", fun () -> Gen.gnp rng ~n ~p:(3. /. float n));
      ("tree", fun () -> Gen.random_tree rng ~n);
      ("pa1", fun () -> Gen.preferential_attachment rng ~n ~c:1);
      ("pa2", fun () -> Gen.preferential_attachment rng ~n ~c:2);
      ("3-regular", fun () -> Gen.random_regular rng ~n ~d:3);
      ("cycle", fun () -> Gen.cycle n);
      ("path", fun () -> Gen.path n);
      ("star", fun () -> Gen.star n);
    ]
    |> List.map (fun (name, make) -> (Printf.sprintf "%s %d" name n, make ()))
  in
  let graphs =
    Gen.atlas_small ()
    @ List.concat_map families [ 6; 8; 12; 16; 24; 32; 48; 64; 70; 100; 200 ]
  in
  List.map
    (fun (name, g) ->
      name ^ " " ^ G6.canonical (relabel g (shuffle ~rng (G.n g))))
    graphs

let test_pinned_sweep () =
  Alcotest.(check string)
    "sweep digest" "cba4e6f54d0a4ad7ca5bd3f51cedc952"
    (Digest.to_hex (Digest.string (String.concat "\n" (sweep_keys ()))))

(* A second pinned digest, over relabelings of high-symmetry graphs.
   The sweep above is mostly graphs with a trivial automorphism group,
   which orbit pruning never touches; these are the graphs it prunes.
   Each was labeled to completion by the search before orbit pruning
   (its relabelings already agreed), so the digest, computed then,
   pins that pruning skips only subtrees whose least leaf was already
   seen. *)
let symmetric_sweep_instances () =
  [
    ("hypercube 3", Gen.hypercube 3);
    ("hypercube 4", Gen.hypercube 4);
    ("hypercube 5", Gen.hypercube 5);
    ("K4,4", Gen.complete_bipartite 4 4);
    ("K3,3,3", Gen.complete_multipartite [ 3; 3; 3 ]);
    ("K8", Gen.complete 8);
    ("petersen", Gen.petersen ());
    ("cycle 16", Gen.cycle 16);
    ("cycle 32", Gen.cycle 32);
    ("cycle 48", Gen.cycle 48);
    ("K2,2,2", Gen.complete_multipartite [ 2; 2; 2 ]);
    ("wheel 6", Gen.wheel 6);
  ]

let test_pinned_symmetric_sweep () =
  let rng = Prng.Rng.create 0x5e77a5 in
  let keys =
    List.concat_map
      (fun (name, g) ->
        let keys =
          List.init 3 (fun _ ->
              G6.canonical (relabel g (shuffle ~rng (G.n g))))
        in
        List.iter
          (fun k ->
            if k <> List.hd keys then
              Alcotest.failf "%s: relabelings disagree" name)
          keys;
        List.map (fun k -> name ^ " " ^ k) keys)
      (symmetric_sweep_instances ())
  in
  Alcotest.(check string)
    "symmetric sweep digest" "cb6cb566e48f045a21cb4e77fc170679"
    (Digest.to_hex (Digest.string (String.concat "\n" keys)))

let () =
  Alcotest.run "canonical"
    [
      ( "canonical",
        [
          Alcotest.test_case "1000 relabelings per tier-1 instance" `Quick
            test_relabeling_invariance;
          Alcotest.test_case "equality is isomorphism at small n" `Quick
            test_canonical_equality_is_isomorphism;
          Alcotest.test_case "decodes to an isomorph" `Quick
            test_canonical_decodes_to_isomorph;
          Alcotest.test_case "edge cases and regular graphs" `Quick
            test_edge_cases;
          Alcotest.test_case "pinned keys of a relabeled sweep" `Quick
            test_pinned_sweep;
          Alcotest.test_case "100 relabelings per symmetric instance" `Quick
            test_symmetric_invariance;
          Alcotest.test_case "pinned keys of symmetric graphs"
            `Quick test_pinned_symmetric_sweep;
          Alcotest.test_case "relabelings of Q5 and Q6" `Quick
            test_hypercube_invariance;
        ] );
    ]
