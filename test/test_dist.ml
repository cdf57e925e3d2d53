(* Tests for finite probability distributions with exact weights. *)

module Q = Exact.Q
module F = Dist.Finite

let q = Alcotest.testable Q.pp Q.equal

let test_make_validation () =
  Alcotest.check_raises "negative prob"
    (Invalid_argument "Finite.make: negative probability") (fun () ->
      ignore (F.make [ (0, Q.make (-1) 2); (1, Q.make 3 2) ]));
  Alcotest.check_raises "bad total"
    (Invalid_argument "Finite.make: probabilities sum to 1/2, not 1") (fun () ->
      ignore (F.make [ (0, Q.make 1 2) ]))

let test_make_merges_duplicates () =
  let d = F.make [ (3, Q.make 1 4); (3, Q.make 1 4); (5, Q.make 1 2) ] in
  Alcotest.check q "merged" (Q.make 1 2) (F.prob d 3);
  Alcotest.(check (list int)) "support" [ 3; 5 ] (F.support d)

let test_make_drops_zeros () =
  let d = F.make [ (0, Q.zero); (1, Q.one) ] in
  Alcotest.(check (list int)) "zero dropped" [ 1 ] (F.support d);
  Alcotest.(check bool) "pure" true (F.is_pure d)

let test_uniform () =
  let d = F.uniform [ 2; 4; 6 ] in
  Alcotest.check q "each 1/3" (Q.make 1 3) (F.prob d 4);
  Alcotest.check q "off support" Q.zero (F.prob d 3);
  Alcotest.(check int) "support size" 3 (F.support_size d);
  let dedup = F.uniform [ 1; 1; 2 ] in
  Alcotest.check q "dedup uniform" (Q.make 1 2) (F.prob dedup 1);
  Alcotest.check_raises "empty" (Invalid_argument "Finite.uniform: empty support")
    (fun () -> ignore (F.uniform []))

let test_point () =
  let d = F.point 7 in
  Alcotest.check q "prob 1" Q.one (F.prob d 7);
  Alcotest.(check bool) "pure" true (F.is_pure d);
  Alcotest.(check bool) "mixed" false (F.is_pure (F.uniform [ 1; 2 ]))

let test_expect () =
  let d = F.uniform [ 1; 2; 3 ] in
  Alcotest.check q "mean" (Q.of_int 2) (F.expect d ~f:Q.of_int);
  Alcotest.check q "indicator" (Q.make 2 3)
    (F.expect d ~f:(fun x -> if x >= 2 then Q.one else Q.zero))

let test_map () =
  let d = F.uniform [ 0; 1; 2; 3 ] in
  let halved = F.map d ~f:(fun x -> x / 2) in
  Alcotest.check q "merged probabilities" (Q.make 1 2) (F.prob halved 0);
  Alcotest.check q "merged probabilities" (Q.make 1 2) (F.prob halved 1)

let test_equal () =
  Alcotest.(check bool) "uniform = make" true
    (F.equal (F.uniform [ 1; 2 ]) (F.make [ (2, Q.make 1 2); (1, Q.make 1 2) ]));
  Alcotest.(check bool) "different" false (F.equal (F.point 1) (F.point 2))

let test_sampling_frequencies () =
  let rng = Prng.Rng.create 7 in
  let d = F.make [ (0, Q.make 1 4); (1, Q.make 3 4) ] in
  let n = 40_000 in
  let ones = ref 0 in
  for _ = 1 to n do
    if F.sample rng d = 1 then incr ones
  done;
  let rate = float_of_int !ones /. float_of_int n in
  Alcotest.(check bool) "frequency near 3/4" true (abs_float (rate -. 0.75) < 0.02)

let test_sample_support_only () =
  let rng = Prng.Rng.create 9 in
  let d = F.uniform [ 5; 9 ] in
  for _ = 1 to 1000 do
    let x = F.sample rng d in
    Alcotest.(check bool) "in support" true (x = 5 || x = 9)
  done

let props =
  let dist_gen =
    QCheck.make
      (QCheck.Gen.map
         (fun (seed, size) ->
           let r = Prng.Rng.create seed in
           let outcomes = List.init (1 + (size mod 8)) (fun _ -> Prng.Rng.int r 100) in
           F.uniform outcomes)
         QCheck.Gen.(pair int small_nat))
  in
  [
    QCheck.Test.make ~name:"probabilities sum to one" ~count:200 dist_gen (fun d ->
        Q.equal Q.one (Q.sum (List.map (F.prob d) (F.support d))));
    QCheck.Test.make ~name:"support probabilities positive" ~count:200 dist_gen
      (fun d -> List.for_all (fun x -> Q.sign (F.prob d x) > 0) (F.support d));
    QCheck.Test.make ~name:"expectation linear" ~count:100 dist_gen (fun d ->
        let f x = Q.of_int (2 * x) and g x = Q.of_int (x + 1) in
        Q.equal
          (F.expect d ~f:(fun x -> Q.add (f x) (g x)))
          (Q.add (F.expect d ~f) (F.expect d ~f:g)));
  ]

let () =
  Alcotest.run "dist"
    [
      ( "finite",
        [
          Alcotest.test_case "make validation" `Quick test_make_validation;
          Alcotest.test_case "make merges duplicates" `Quick test_make_merges_duplicates;
          Alcotest.test_case "make drops zeros" `Quick test_make_drops_zeros;
          Alcotest.test_case "uniform" `Quick test_uniform;
          Alcotest.test_case "point" `Quick test_point;
          Alcotest.test_case "expect" `Quick test_expect;
          Alcotest.test_case "map" `Quick test_map;
          Alcotest.test_case "equal" `Quick test_equal;
          Alcotest.test_case "sampling frequencies" `Quick test_sampling_frequencies;
          Alcotest.test_case "sample support only" `Quick test_sample_support_only;
        ] );
      ("properties", List.map (QCheck_alcotest.to_alcotest ~verbose:false) props);
    ]
