(* Tests for graph6 serialization and the weighted-attacker extension. *)

open Netgraph
module Q = Exact.Q
module Engine = Defender.Tuple_instance.Engine

let q = Alcotest.testable Q.pp Q.equal

let ok = function
  | Ok x -> x
  | Error e -> Alcotest.fail ("unexpected error: " ^ e)

(* --- graph6 --- *)

let test_graph6_known_vectors () =
  (* K2 is "A_", the empty 2-vertex graph is "A?" (nauty documentation). *)
  Alcotest.(check string) "K2" "A_" (Graph6.encode (Gen.path 2));
  Alcotest.(check string) "empty pair" "A?" (Graph6.encode (Graph.make ~n:2 []));
  Alcotest.(check bool) "decode K2" true
    (Graph.equal (Graph6.decode "A_") (Gen.path 2));
  (* decoding tolerates a trailing newline *)
  Alcotest.(check bool) "newline tolerated" true
    (Graph.equal (Graph6.decode "A_\n") (Gen.path 2))

let test_graph6_roundtrip_families () =
  List.iter
    (fun (name, g) ->
      Alcotest.(check bool) (name ^ " roundtrip") true
        (Graph.equal g (Graph6.decode (Graph6.encode g))))
    (Gen.atlas_small ())

let test_graph6_large_n_form () =
  (* n = 100 > 62 exercises the 3-byte size header. *)
  let g = Gen.cycle 100 in
  let encoded = Graph6.encode g in
  Alcotest.(check int) "marker 126" 126 (Char.code encoded.[0]);
  Alcotest.(check bool) "roundtrip" true (Graph.equal g (Graph6.decode encoded))

(* Rewrite an encoding's size header into the "~~" 36-bit long form by
   hand; [encode ~force_long:true] must agree with this mechanical
   rewrite, and the decoder must accept both. *)
let to_long_form encoded =
  let n, data_start =
    let b i = Char.code encoded.[i] - 63 in
    if b 0 < 63 then (b 0, 1)
    else ((b 1 lsl 12) lor (b 2 lsl 6) lor b 3, 4)
  in
  let header = Bytes.make 8 '~' in
  for i = 0 to 5 do
    Bytes.set header (2 + i) (Char.chr (((n lsr ((5 - i) * 6)) land 63) + 63))
  done;
  Bytes.to_string header
  ^ String.sub encoded data_start (String.length encoded - data_start)

let test_graph6_long_form () =
  (* Regression: the second byte of "~~" is 126, which the pre-fix
     decoder read as the top chunk of an 18-bit size, yielding a bogus
     ~256k-vertex graph.  K2 in long form is "~~?????A_". *)
  Alcotest.(check bool) "K2 long form" true
    (Graph.equal (Graph6.decode "~~?????A_") (Gen.path 2));
  List.iter
    (fun (name, g) ->
      Alcotest.(check bool)
        (name ^ " long-form decode")
        true
        (Graph.equal g (Graph6.decode (to_long_form (Graph6.encode g)))))
    [ ("C100", Gen.cycle 100) ];
  (* the encoder's own 36-bit form: byte-identical to the mechanical
     header rewrite, and a round trip *)
  Alcotest.(check string) "force_long K2" "~~?????A_"
    (Graph6.encode ~force_long:true (Gen.path 2));
  List.iter
    (fun (name, g) ->
      let s = Graph6.encode ~force_long:true g in
      Alcotest.(check string)
        (name ^ " force_long = rewritten header")
        (to_long_form (Graph6.encode g))
        s;
      Alcotest.(check bool)
        (name ^ " force_long roundtrip")
        true
        (Graph.equal g (Graph6.decode s)))
    [ ("K2", Gen.path 2); ("C100", Gen.cycle 100); ("K5", Gen.complete 5) ]

(* --- sparse6 --- *)

let test_sparse6_roundtrip () =
  List.iter
    (fun (name, g) ->
      let s = Graph6.encode_sparse6 g in
      Alcotest.(check bool) (name ^ " has ':' prefix") true (s.[0] = ':');
      Alcotest.(check bool)
        (name ^ " sparse6 roundtrip")
        true
        (Graph.equal g (Graph6.decode s)))
    (Gen.atlas_small ()
    @ [
        (* power-of-two n exercises nauty's special padding rule when
           vertex n-2 is in play *)
        ("C4", Gen.cycle 4);
        ("C8", Gen.cycle 8);
        ("P8", Gen.path 8);
        ("star8", Gen.star 8);
        ("K8", Gen.complete 8);
        ("grid4x4", Gen.grid 4 4);
        ("edgeless", Graph.make ~n:7 []);
        ("K1", Graph.make ~n:1 []);
        ("last pair only", Graph.make ~n:16 [ (14, 15) ]);
      ])

let test_sparse6_huge_header () =
  (* n = 300000 needs the 36-bit size header but only a handful of
     edges: exactly the sparse6 use case the graph6 matrix form cannot
     touch. *)
  let n = 300_000 in
  let g = Graph.make ~n [ (0, 1); (0, 299_999); (299_998, 299_999) ] in
  let s = Graph6.encode_sparse6 g in
  Alcotest.(check bool) "36-bit header" true
    (String.length s >= 8 && s.[1] = '~' && s.[2] = '~');
  Alcotest.(check bool) "roundtrip" true (Graph.equal g (Graph6.decode s));
  (* [order] reads the size header alone, in every header form *)
  Alcotest.(check int) "order, sparse6 36-bit" n (Graph6.order s);
  Alcotest.(check int) "order, graph6 long form" 2 (Graph6.order "~~?????A_");
  Alcotest.(check int) "order, no data decoded" 1_000_000_000
    (Graph6.order ":~~?zekg?")

let test_sparse6_rejects_malformed () =
  (* ':A' then bits 00 (b=0, x=0 with v=0) encodes the self-loop (0,0) *)
  Alcotest.check_raises "self-loop"
    (Invalid_argument "Graph6.decode: sparse6 self-loop") (fun () ->
      ignore (Graph6.decode ":AN"));
  Alcotest.check_raises "truncated size"
    (Invalid_argument "Graph6.decode: truncated input") (fun () ->
      ignore (Graph6.decode ":~~???"))

(* Padding audit against McKay's formal description.  The encoder pads
   the last byte with 1 bits, EXCEPT when n is a power of two, at least
   k+1 padding bits remain, and the current vertex is n-2: then a single
   0 bit goes first, because k-bit all-ones is exactly n-1 there and
   all-ones padding would decode as one more group — the self-loop
   {n-1, n-1}.  For every other n, all-ones decodes as an out-of-range
   index and is ignored; for fewer than k+1 spare bits the group is
   incomplete and ignored.  These cases pin each arm of that rule. *)
let test_sparse6_spec_vector () =
  (* The worked example in the sparse6 spec: n = 7 with edges
     0-1, 0-2, 1-2, 5-6 encodes as ":Fa@x^". *)
  let g = Graph.make ~n:7 [ (0, 1); (0, 2); (1, 2); (5, 6) ] in
  Alcotest.(check string) "spec vector encodes" ":Fa@x^"
    (Graph6.encode_sparse6 g);
  Alcotest.(check bool) "spec vector decodes" true
    (Graph.equal g (Graph6.decode ":Fa@x^"))

let test_sparse6_padding_ambiguity () =
  let rt name g =
    Alcotest.(check bool) name true
      (Graph.equal g (Graph6.decode (Graph6.encode_sparse6 g)))
  in
  (* trivial sizes *)
  rt "n=0" (Graph.make ~n:0 []);
  rt "n=1" (Graph.make ~n:1 []);
  rt "n=2 edgeless" (Graph.make ~n:2 []);
  rt "n=2 edge" (Graph.make ~n:2 [ (0, 1) ]);
  (* power-of-two n with the encoding ending on current vertex n-2 and
     >= k+1 spare bits: the single-0-bit exception must fire (all-ones
     would decode as the self-loop {n-1, n-1}) *)
  rt "n=4 triangle + isolated" (Graph.make ~n:4 [ (0, 1); (1, 2); (0, 2) ]);
  rt "n=8 edge (5,6)" (Graph.make ~n:8 [ (5, 6) ]);
  rt "n=16 path prefix + (13,14)"
    (Graph.make ~n:16 [ (0, 1); (1, 2); (2, 3); (13, 14) ]);
  (* same shapes where the exception must NOT fire: last vertex used,
     or too few spare bits for a full group *)
  rt "n=8 edge (6,7)" (Graph.make ~n:8 [ (6, 7) ]);
  rt "n=16 edge (13,14)" (Graph.make ~n:16 [ (13, 14) ]);
  rt "n=16 edge (14,15)" (Graph.make ~n:16 [ (14, 15) ]);
  rt "n=32 edge (29,30)" (Graph.make ~n:32 [ (29, 30) ]);
  rt "n=32 edge (30,31)" (Graph.make ~n:32 [ (30, 31) ]);
  (* non-power-of-two neighbours of the special sizes *)
  rt "n=7 edge (5,6)" (Graph.make ~n:7 [ (5, 6) ]);
  rt "n=9 edge (7,8)" (Graph.make ~n:9 [ (7, 8) ]);
  rt "n=15 edge (13,14)" (Graph.make ~n:15 [ (13, 14) ])

let test_sparse6_exhaustive_small () =
  (* decode ∘ encode is the identity on EVERY graph with n <= 5
     (1 + 1 + 2 + 8 + 64 + 1024 graphs): no padding ambiguity survives
     brute force. *)
  for n = 0 to 5 do
    let pairs = ref [] in
    for v = 1 to n - 1 do
      for u = 0 to v - 1 do
        pairs := (u, v) :: !pairs
      done
    done;
    let pairs = Array.of_list (List.rev !pairs) in
    let npairs = Array.length pairs in
    for mask = 0 to (1 lsl npairs) - 1 do
      let edges = ref [] in
      Array.iteri
        (fun i e -> if mask land (1 lsl i) <> 0 then edges := e :: !edges)
        pairs;
      let g = Graph.make ~n !edges in
      if not (Graph.equal g (Graph6.decode (Graph6.encode_sparse6 g))) then
        Alcotest.failf "n=%d mask=%d: sparse6 roundtrip broken" n mask
    done
  done

let sparse6_props =
  let gen =
    QCheck.make
      (QCheck.Gen.map
         (fun seed ->
           let r = Prng.Rng.create seed in
           Gen.gnp r ~n:(1 + Prng.Rng.int r 40) ~p:0.15)
         QCheck.Gen.int)
  in
  [
    QCheck.Test.make ~name:"sparse6 roundtrip on random graphs" ~count:200 gen
      (fun g -> Graph.equal g (Graph6.decode (Graph6.encode_sparse6 g)));
    (* dense draws at n <= 17 keep hammering the padding boundary (the
       byte tail behaves differently at n = 4, 8, 16 vs their
       neighbours) *)
    QCheck.Test.make ~name:"sparse6 roundtrip near power-of-two n" ~count:400
      (QCheck.make
         (QCheck.Gen.map
            (fun seed ->
              let r = Prng.Rng.create seed in
              Gen.gnp r ~n:(2 + Prng.Rng.int r 16) ~p:0.5)
            QCheck.Gen.int))
      (fun g -> Graph.equal g (Graph6.decode (Graph6.encode_sparse6 g)));
    QCheck.Test.make ~name:"sparse6 output is printable ASCII" ~count:100 gen
      (fun g ->
        let s = Graph6.encode_sparse6 g in
        s.[0] = ':'
        && String.for_all
             (fun c -> Char.code c >= 63 && Char.code c <= 126)
             (String.sub s 1 (String.length s - 1)));
  ]

let test_graph6_rejects_malformed () =
  Alcotest.check_raises "empty" (Invalid_argument "Graph6.decode: empty input")
    (fun () -> ignore (Graph6.decode ""));
  Alcotest.check_raises "truncated"
    (Invalid_argument "Graph6.decode: truncated adjacency data") (fun () ->
      ignore (Graph6.decode "D"));
  Alcotest.check_raises "bad char" (Invalid_argument "Graph6.decode: invalid character")
    (fun () -> ignore (Graph6.decode "A\x01"));
  (* strict conformance: a decode-encode round trip must be the identity
     on the input string, so padding bits and trailing bytes are errors *)
  Alcotest.check_raises "nonzero padding"
    (Invalid_argument "Graph6.decode: nonzero padding bits") (fun () ->
      (* K2's single adjacency bit plus a stray bit in the padding *)
      ignore (Graph6.decode "A`"));
  Alcotest.check_raises "trailing bytes"
    (Invalid_argument "Graph6.decode: trailing bytes after adjacency data")
    (fun () -> ignore (Graph6.decode "A_?"));
  Alcotest.check_raises "truncated long-form header"
    (Invalid_argument "Graph6.decode: truncated input") (fun () ->
      ignore (Graph6.decode "~~???"));
  Alcotest.check_raises "oversize long form"
    (Invalid_argument "Graph6.decode: graph too large") (fun () ->
      ignore (Graph6.decode "~~~~~~~~"))

let graph6_props =
  let gen =
    QCheck.make
      (QCheck.Gen.map
         (fun seed ->
           let r = Prng.Rng.create seed in
           Gen.gnp r ~n:(1 + Prng.Rng.int r 30) ~p:0.3)
         QCheck.Gen.int)
  in
  [
    QCheck.Test.make ~name:"graph6 roundtrip on random graphs" ~count:100 gen (fun g ->
        Graph.equal g (Graph6.decode (Graph6.encode g)));
    QCheck.Test.make ~name:"graph6 output is printable ASCII" ~count:100 gen (fun g ->
        String.for_all (fun c -> Char.code c >= 63 && Char.code c <= 126)
          (Graph6.encode g));
    (* strictness makes decode a left inverse of encode on strings too *)
    QCheck.Test.make ~name:"graph6 decode-encode is string identity" ~count:100
      gen (fun g ->
        let s = Graph6.encode g in
        Graph6.encode (Graph6.decode s) = s);
  ]

(* --- weighted attackers --- *)

let weighted_setup () =
  let g = Gen.path 6 in
  let m = Defender.Model.make ~graph:g ~nu:3 ~k:2 in
  let w = Defender.Weighted.make m ~weights:[ Q.of_int 5; Q.one; Q.make 1 2 ] in
  (g, m, w)

let test_weighted_validation () =
  let _, m, _ = weighted_setup () in
  Alcotest.check_raises "arity" (Invalid_argument "Weighted.make: need exactly nu weights")
    (fun () -> ignore (Defender.Weighted.make m ~weights:[ Q.one ]));
  Alcotest.check_raises "positivity"
    (Invalid_argument "Weighted.make: weights must be positive") (fun () ->
      ignore (Defender.Weighted.make m ~weights:[ Q.one; Q.zero; Q.one ]))

let test_weighted_loads () =
  let _, m, w = weighted_setup () in
  Alcotest.check q "total weight" (Q.make 13 2) (Defender.Weighted.total_weight w);
  (* all three attackers as point masses on distinct vertices *)
  let prof =
    Engine.Profile.make_mixed m
      ~vp:[ Dist.Finite.point 1; Dist.Finite.point 3; Dist.Finite.point 5 ]
      ~tp:[ (Defender.Tuple.of_list (Defender.Model.graph m) [ 0; 2 ], Q.one) ]
  in
  Alcotest.check q "load at 1 = w0" (Q.of_int 5) (Defender.Weighted.expected_load w prof 1);
  Alcotest.check q "load at 3 = w1" Q.one (Defender.Weighted.expected_load w prof 3);
  Alcotest.check q "load at 0 = 0" Q.zero (Defender.Weighted.expected_load w prof 0);
  (* tuple {e0,e2} covers vertices 0..3: arrested damage 5 + 1 = 6 *)
  Alcotest.check q "arrested damage" (Q.of_int 6) (Defender.Weighted.expected_tp w prof);
  (* attacker 2 escapes with its full half-point of damage *)
  Alcotest.check q "escaped damage" (Q.make 1 2) (Defender.Weighted.expected_vp w prof 2)

let test_weighted_k_matching_is_ne () =
  let g, m, w = weighted_setup () in
  let partition = Option.get (Defender.Matching_nash.find_partition g) in
  let prof = ok (Defender.Weighted.a_tuple w partition) in
  Alcotest.(check bool) "weighted NE verified" true
    (Engine.Verify.verdict_is_confirmed (Defender.Weighted.verify_ne w prof));
  (* gain law generalizes: k*W/|IS| = 2 * (13/2) / 3 = 13/3 *)
  let is_size = List.length partition.Defender.Matching_nash.is in
  Alcotest.check q "weighted gain law"
    (Defender.Weighted.predicted_gain w ~is_size)
    (Defender.Weighted.expected_tp w prof);
  Alcotest.check q "explicit value" (Q.make 13 3) (Defender.Weighted.expected_tp w prof);
  ignore m

let test_weighted_detects_bad_defense () =
  let g, m, w = weighted_setup () in
  (* Defender ignores the heavy attacker's whereabouts: put all attackers
     on vertex 1 but scan only the far end. *)
  let prof =
    Engine.Profile.make_mixed m
      ~vp:[ Dist.Finite.point 1; Dist.Finite.point 1; Dist.Finite.point 1 ]
      ~tp:[ (Defender.Tuple.of_list g [ 3; 4 ], Q.one) ]
  in
  match Defender.Weighted.verify_ne w prof with
  | Engine.Verify.Refuted _ -> ()
  | v ->
      Alcotest.fail
        ("expected weighted refutation: " ^ Engine.Verify.verdict_to_string v)

let test_weighted_reduces_to_unweighted () =
  (* Unit weights recover the ordinary profit. *)
  let g = Gen.grid 2 3 in
  let m = Defender.Model.make ~graph:g ~nu:4 ~k:2 in
  let w = Defender.Weighted.make m ~weights:(List.init 4 (fun _ -> Q.one)) in
  let prof = ok (Defender.Tuple_nash.a_tuple_auto m) in
  Alcotest.check q "weighted = unweighted at unit weights"
    (Engine.Profit.expected_tp prof)
    (Defender.Weighted.expected_tp w prof);
  Alcotest.(check bool) "verified" true
    (Engine.Verify.verdict_is_confirmed (Defender.Weighted.verify_ne w prof))

let weighted_props =
  let setup_gen =
    QCheck.make
      (QCheck.Gen.map
         (fun seed ->
           let r = Prng.Rng.create seed in
           let g = Gen.random_bipartite r ~a:3 ~b:4 ~p:0.3 in
           let nu = 1 + Prng.Rng.int r 4 in
           let feasible = Defender.Pipeline.max_feasible_k g in
           let k = 1 + Prng.Rng.int r (max 1 feasible) in
           let m = Defender.Model.make ~graph:g ~nu ~k in
           let weights = List.init nu (fun _ -> Q.make (1 + Prng.Rng.int r 9) (1 + Prng.Rng.int r 4)) in
           (m, Defender.Weighted.make m ~weights))
         QCheck.Gen.int)
  in
  [
    QCheck.Test.make ~name:"k-matching NE robust to arbitrary weights" ~count:40
      setup_gen (fun (m, w) ->
        match Defender.Tuple_nash.a_tuple_auto m with
        | Error _ -> QCheck.assume_fail ()
        | Ok prof ->
            Engine.Verify.verdict_is_confirmed (Defender.Weighted.verify_ne w prof));
    QCheck.Test.make ~name:"weighted gain law k*W/|IS|" ~count:40 setup_gen
      (fun (m, w) ->
        match Defender.Tuple_nash.a_tuple_auto m with
        | Error _ -> QCheck.assume_fail ()
        | Ok prof ->
            let is_size = List.length (Engine.Profile.vp_support_union prof) in
            Q.equal
              (Defender.Weighted.predicted_gain w ~is_size)
              (Defender.Weighted.expected_tp w prof));
  ]

let () =
  Alcotest.run "io-weighted"
    [
      ( "graph6",
        [
          Alcotest.test_case "known vectors" `Quick test_graph6_known_vectors;
          Alcotest.test_case "atlas roundtrip" `Quick test_graph6_roundtrip_families;
          Alcotest.test_case "large-n form" `Quick test_graph6_large_n_form;
          Alcotest.test_case "long form (~~)" `Quick test_graph6_long_form;
          Alcotest.test_case "rejects malformed" `Quick test_graph6_rejects_malformed;
        ] );
      ( "sparse6",
        [
          Alcotest.test_case "roundtrip families" `Quick test_sparse6_roundtrip;
          Alcotest.test_case "spec vector" `Quick test_sparse6_spec_vector;
          Alcotest.test_case "padding ambiguity cases" `Quick
            test_sparse6_padding_ambiguity;
          Alcotest.test_case "exhaustive n <= 5" `Quick
            test_sparse6_exhaustive_small;
          Alcotest.test_case "huge header" `Quick test_sparse6_huge_header;
          Alcotest.test_case "rejects malformed" `Quick
            test_sparse6_rejects_malformed;
        ] );
      ( "weighted",
        [
          Alcotest.test_case "validation" `Quick test_weighted_validation;
          Alcotest.test_case "loads and profits" `Quick test_weighted_loads;
          Alcotest.test_case "k-matching NE for any weights" `Quick
            test_weighted_k_matching_is_ne;
          Alcotest.test_case "detects bad defense" `Quick test_weighted_detects_bad_defense;
          Alcotest.test_case "unit weights reduce" `Quick test_weighted_reduces_to_unweighted;
        ] );
      ( "properties",
        List.map (QCheck_alcotest.to_alcotest ~verbose:false)
          (graph6_props @ sparse6_props @ weighted_props) );
    ]
