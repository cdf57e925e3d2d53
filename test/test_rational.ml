(* Unit and property tests for the exact rational substrate. *)

module Q = Exact.Q

let q = Alcotest.testable Q.pp Q.equal

let check_q = Alcotest.check q

let test_normalization () =
  check_q "6/8 = 3/4" (Q.make 3 4) (Q.make 6 8);
  check_q "-6/8 = -3/4" (Q.make (-3) 4) (Q.make 6 (-8));
  check_q "0/5 = 0" Q.zero (Q.make 0 5);
  Alcotest.(check int) "den of -2/-4" 2 (Q.den (Q.make (-2) (-4)));
  Alcotest.(check int) "num of -2/-4" 1 (Q.num (Q.make (-2) (-4)));
  Alcotest.(check int) "den always positive" 3 (Q.den (Q.make 5 (-3)) * -1 * -1)

let test_zero_denominator () =
  Alcotest.check_raises "make x/0" Q.Division_by_zero (fun () ->
      ignore (Q.make 1 0));
  Alcotest.check_raises "div by zero" Q.Division_by_zero (fun () ->
      ignore (Q.div Q.one Q.zero));
  Alcotest.check_raises "inv zero" Q.Division_by_zero (fun () ->
      ignore (Q.inv Q.zero))

let test_arithmetic () =
  check_q "1/2 + 1/3" (Q.make 5 6) (Q.add (Q.make 1 2) (Q.make 1 3));
  check_q "1/2 - 1/3" (Q.make 1 6) (Q.sub (Q.make 1 2) (Q.make 1 3));
  check_q "2/3 * 3/4" (Q.make 1 2) (Q.mul (Q.make 2 3) (Q.make 3 4));
  check_q "(1/2) / (3/4)" (Q.make 2 3) (Q.div (Q.make 1 2) (Q.make 3 4));
  check_q "neg" (Q.make (-1) 2) (Q.neg (Q.make 1 2));
  check_q "inv -2/3" (Q.make (-3) 2) (Q.inv (Q.make (-2) 3));
  check_q "mul_int" (Q.make 3 2) (Q.mul_int (Q.make 1 2) 3);
  check_q "div_int" (Q.make 1 6) (Q.div_int (Q.make 1 2) 3);
  check_q "abs" (Q.make 1 2) (Q.abs (Q.make (-1) 2))

let test_comparisons () =
  Alcotest.(check bool) "1/3 < 1/2" true Q.(make 1 3 < make 1 2);
  Alcotest.(check bool) "1/2 <= 1/2" true Q.(make 1 2 <= make 2 4);
  Alcotest.(check bool) "2/3 > 1/2" true Q.(make 2 3 > make 1 2);
  Alcotest.(check int) "sign neg" (-1) (Q.sign (Q.make (-3) 7));
  Alcotest.(check int) "sign zero" 0 (Q.sign Q.zero);
  check_q "min" (Q.make 1 3) (Q.min (Q.make 1 3) (Q.make 1 2));
  check_q "max" (Q.make 1 2) (Q.max (Q.make 1 3) (Q.make 1 2))

let test_aggregates () =
  check_q "sum" Q.one (Q.sum [ Q.make 1 2; Q.make 1 3; Q.make 1 6 ]);
  check_q "sum empty" Q.zero (Q.sum []);
  check_q "average" (Q.make 1 2) (Q.average [ Q.make 1 4; Q.make 3 4 ]);
  check_q "min_list" (Q.make 1 4) (Q.min_list [ Q.make 1 2; Q.make 1 4; Q.one ]);
  check_q "max_list" Q.one (Q.max_list [ Q.make 1 2; Q.make 1 4; Q.one ]);
  Alcotest.check_raises "average of []" (Invalid_argument "Q.average: empty list")
    (fun () -> ignore (Q.average []))

let test_conversions () =
  Alcotest.(check string) "to_string fraction" "5/6" (Q.to_string (Q.make 5 6));
  Alcotest.(check string) "to_string integer" "7" (Q.to_string (Q.make 14 2));
  Alcotest.(check bool) "is_integer" true (Q.is_integer (Q.make 14 2));
  Alcotest.(check bool) "not is_integer" false (Q.is_integer (Q.make 1 2));
  Alcotest.(check int) "to_int_exn" 7 (Q.to_int_exn (Q.make 14 2));
  Alcotest.(check (float 1e-12)) "to_float" 0.5 (Q.to_float (Q.make 1 2));
  Alcotest.(check bool) "is_zero" true (Q.is_zero (Q.sub Q.one Q.one))

(* Formerly [check_raises Q.Overflow] cases: the tower now promotes to
   arbitrary precision and the result must be exactly right. *)
let test_promotion () =
  let big = Q.of_int max_int in
  let succ = Q.add big Q.one in
  Alcotest.(check bool) "max_int + 1 promotes" false (Q.is_small succ);
  Alcotest.(check string) "max_int + 1 exact" "4611686018427387904"
    (Q.to_string succ);
  check_q "promotion round-trips: (max+1) - 1 demotes" big (Q.sub succ Q.one);
  let doubled = Q.mul big (Q.of_int 2) in
  Alcotest.(check bool) "2 * max_int promotes" false (Q.is_small doubled);
  Alcotest.(check string) "2 * max_int exact" "9223372036854775806"
    (Q.to_string doubled);
  check_q "big / 2 demotes back" big (Q.div_int doubled 2);
  (* Knuth-reduced operations that fit must stay on the fast path. *)
  check_q "large but reducible" (Q.of_int max_int)
    (Q.mul (Q.make max_int 3) (Q.of_int 3));
  Alcotest.(check bool) "reducible product stays small" true
    (Q.is_small (Q.mul (Q.make max_int 3) (Q.of_int 3)));
  (* A denominator product beyond the native range: 1/p over enough
     distinct primes that the lcm exceeds max_int (the seed code raised
     Q.Overflow here; regression for the promotion path). *)
  let primes =
    [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37; 41; 43; 47; 53; 59; 61 ]
  in
  let s = Q.sum (List.map (fun p -> Q.make 1 p) primes) in
  Alcotest.(check bool) "prime-harmonic sum promotes" false (Q.is_small s);
  (* Verify exactly: multiply by the product of the primes and compare
     against the integer sum of cofactor products. *)
  let product = List.fold_left (fun acc p -> Q.mul_int acc p) Q.one primes in
  let cofactors =
    Q.sum
      (List.map
         (fun p ->
           List.fold_left
             (fun acc q -> if q = p then acc else Q.mul_int acc q)
             Q.one primes)
         primes)
  in
  check_q "cleared denominators match" cofactors (Q.mul s product);
  (* min_int is representable (promoted), and arithmetic on it is exact. *)
  let m = Q.of_int min_int in
  Alcotest.(check bool) "min_int promotes" false (Q.is_small m);
  Alcotest.(check string) "min_int exact" "-4611686018427387904" (Q.to_string m);
  check_q "min_int + max_int = -1" Q.minus_one (Q.add m (Q.of_int max_int));
  Alcotest.check_raises "num of a big value raises Overflow" Q.Overflow
    (fun () -> ignore (Q.num succ))

(* Property tests: the rationals form an ordered field. *)
let small_q =
  QCheck.map
    (fun (n, d) -> Q.make n (1 + abs d))
    QCheck.(pair (int_range (-1000) 1000) (int_range 0 1000))

(* Rationals whose components sit just below the native range, so sums and
   products straddle the promotion boundary: some stay on the fast path,
   most promote, and differences demote again. *)
let boundary_q =
  QCheck.map
    (fun (a, b, flip) ->
      let q = Q.make (max_int - a) (1 + b) in
      if flip then Q.neg q else q)
    QCheck.(triple (int_range 0 1_000_000) (int_range 0 1_000_000) bool)

(* Mix of the two regimes; cross-representation operations hit every
   promote/demote combination. *)
let straddle_q = QCheck.oneof [ small_q; boundary_q ]

let props =
  [
    QCheck.Test.make ~name:"add commutative" ~count:500
      QCheck.(pair small_q small_q)
      (fun (a, b) -> Q.equal (Q.add a b) (Q.add b a));
    QCheck.Test.make ~name:"add associative" ~count:500
      QCheck.(triple small_q small_q small_q)
      (fun (a, b, c) -> Q.equal (Q.add (Q.add a b) c) (Q.add a (Q.add b c)));
    QCheck.Test.make ~name:"mul commutative" ~count:500
      QCheck.(pair small_q small_q)
      (fun (a, b) -> Q.equal (Q.mul a b) (Q.mul b a));
    QCheck.Test.make ~name:"mul distributes over add" ~count:500
      QCheck.(triple small_q small_q small_q)
      (fun (a, b, c) ->
        Q.equal (Q.mul a (Q.add b c)) (Q.add (Q.mul a b) (Q.mul a c)));
    QCheck.Test.make ~name:"additive inverse" ~count:500 small_q (fun a ->
        Q.is_zero (Q.add a (Q.neg a)));
    QCheck.Test.make ~name:"multiplicative inverse" ~count:500 small_q (fun a ->
        Q.is_zero a || Q.equal Q.one (Q.mul a (Q.inv a)));
    QCheck.Test.make ~name:"sub then add roundtrips" ~count:500
      QCheck.(pair small_q small_q)
      (fun (a, b) -> Q.equal a (Q.add (Q.sub a b) b));
    QCheck.Test.make ~name:"normalized invariant" ~count:500 small_q (fun a ->
        let rec gcd x y = if y = 0 then x else gcd y (x mod y) in
        Q.den a > 0 && (Q.is_zero a || gcd (abs (Q.num a)) (Q.den a) = 1));
    QCheck.Test.make ~name:"compare agrees with float compare" ~count:500
      QCheck.(pair small_q small_q)
      (fun (a, b) ->
        let fc = compare (Q.to_float a) (Q.to_float b) in
        fc = 0 || compare (Q.compare a b) 0 = compare fc 0);
    QCheck.Test.make ~name:"compare antisymmetric" ~count:500
      QCheck.(pair small_q small_q)
      (fun (a, b) -> Q.compare a b = -Q.compare b a);
    QCheck.Test.make ~name:"triangle: |a+b| <= |a|+|b|" ~count:500
      QCheck.(pair small_q small_q)
      (fun (a, b) ->
        Q.( <= ) (Q.abs (Q.add a b)) (Q.add (Q.abs a) (Q.abs b)));
    (* Cross-validation of the small and big paths around the promotion
       boundary: the tower must satisfy the same field identities whether
       intermediates promote or not. *)
    QCheck.Test.make ~name:"boundary: a+b-b = a" ~count:500
      QCheck.(pair straddle_q straddle_q)
      (fun (a, b) -> Q.equal a (Q.sub (Q.add a b) b));
    QCheck.Test.make ~name:"boundary: a*b/b = a" ~count:500
      QCheck.(pair straddle_q straddle_q)
      (fun (a, b) -> Q.is_zero b || Q.equal a (Q.div (Q.mul a b) b));
    QCheck.Test.make ~name:"boundary: compare antisymmetric across reps"
      ~count:500
      QCheck.(pair straddle_q straddle_q)
      (fun (a, b) -> Q.compare a b = -Q.compare b a);
    QCheck.Test.make ~name:"boundary: to_string/of_string round-trip"
      ~count:500
      QCheck.(pair straddle_q straddle_q)
      (fun (a, b) ->
        let p = Q.mul a b in
        Q.equal a (Q.of_string (Q.to_string a))
        && Q.equal p (Q.of_string (Q.to_string p)));
    QCheck.Test.make ~name:"boundary: demotion is canonical" ~count:500
      QCheck.(pair boundary_q boundary_q)
      (fun (a, b) ->
        (* a + b promotes (or not); (a+b) - b must be structurally equal
           to a, i.e. land back in the same representation. *)
        let back = Q.sub (Q.add a b) b in
        Q.equal back a && Q.is_small back = Q.is_small a);
    QCheck.Test.make ~name:"boundary: to_big/of_big round-trip" ~count:500
      straddle_q
      (fun a ->
        let n, d = Q.to_big a in
        Q.equal a (Q.of_big ~num:n ~den:(Exact.Bigint.make ~sign:1 d)));
  ]

(* --- the fraction-free update, against the field operations --- *)

(* Integers on either side of a native product overflow: small, near
   2^30 and 2^31 (products near 2^62), near [max_int], and already big (a
   product of two large values), each with either sign. *)
let edge_int =
  QCheck.Gen.(
    let near base = map (fun k -> Q.of_int (base - k)) (int_range 0 1000) in
    let magnitude =
      oneof
        [
          map Q.of_int (int_range 0 1000);
          near (1 lsl 31);
          near (1 lsl 30);
          near max_int;
          return (Q.of_int max_int);
          map2 Q.mul (near max_int) (near (1 lsl 31));
        ]
    in
    map2 (fun q neg -> if neg then Q.neg q else q) magnitude bool)

(* [(p, a, f, b, d)] with d dividing p·a − f·b: a and b are multiples
   of d. *)
let bareiss_args =
  QCheck.make
    ~print:(fun (p, a, f, b, d) ->
      String.concat " " (List.map Q.to_string [ p; a; f; b; d ]))
    QCheck.Gen.(
      edge_int >>= fun p ->
      edge_int >>= fun a ->
      edge_int >>= fun f ->
      edge_int >>= fun b ->
      edge_int >>= fun d ->
      let d = if Q.is_zero d then Q.one else d in
      oneofl [ true; false ] >>= fun exact ->
      return
        (if exact then (p, Q.mul a d, f, Q.mul b d, d)
         else (p, a, f, b, Q.one)))

let counted f =
  let ambient = Obs.level () in
  Fun.protect ~finally:(fun () -> Obs.set_level ambient) @@ fun () ->
  Obs.set_level Obs.Counters;
  let snap = Obs.snapshot () in
  let x = f () in
  let count name =
    try List.assoc name (Obs.delta snap).Obs.counters with Not_found -> 0
  in
  (x, count "q.promotions", count "q.big_ops")

let bareiss_props =
  [
    QCheck.Test.make ~name:"bareiss = (p*a - f*b)/d, canonically" ~count:1000
      bareiss_args (fun (p, a, f, b, d) ->
        let want = Q.div (Q.sub (Q.mul p a) (Q.mul f b)) d in
        let got = Q.bareiss p a f b d in
        Q.equal got want && Q.is_small got = Q.is_small want);
    QCheck.Test.make
      ~name:"bareiss promotes at most once, and only native operands"
      ~count:1000 bareiss_args (fun (p, a, f, b, d) ->
        let got, promotions, big_ops =
          counted (fun () -> Q.bareiss p a f b d)
        in
        let native = List.for_all Q.is_small [ p; a; f; b; d ] in
        if native then
          promotions = big_ops
          && promotions <= 1
          && (Q.is_small got || promotions = 1)
        else promotions = 0 && big_ops = 1);
  ]

let test_bareiss_paths () =
  let i = Q.of_int in
  let counts f =
    let _, promotions, big_ops = counted f in
    (promotions, big_ops)
  in
  check_q "small" (i 5) (Q.bareiss (i 3) (i 4) (i 1) (i 2) (i 2));
  let wide () =
    Q.bareiss (i (1 lsl 40)) (i (1 lsl 40)) (i ((1 lsl 40) - 1))
      (i ((1 lsl 40) + 1)) (i 1)
  in
  check_q "products past 2^62, native result" Q.one (wide ());
  Alcotest.(check bool) "overflowed step demotes" true (Q.is_small (wide ()));
  Alcotest.(check (pair int int))
    "an overflowing product counts one promotion" (1, 1) (counts wide);
  let huge = Q.bareiss (i max_int) (i max_int) Q.zero Q.zero Q.one in
  Alcotest.(check bool) "max_int^2 promotes" false (Q.is_small huge);
  Alcotest.(check (pair int int))
    "a native overflow counts one promotion" (1, 1)
    (counts (fun () -> Q.bareiss (i max_int) (i max_int) Q.zero Q.zero Q.one));
  let back = Q.bareiss huge Q.one Q.zero Q.zero (i max_int) in
  check_q "a big operand demotes" (i max_int) back;
  Alcotest.(check bool) "demoted result is native" true (Q.is_small back);
  Alcotest.check_raises "inexact division"
    (Invalid_argument "Q.bareiss: inexact division") (fun () ->
      ignore (Q.bareiss Q.one Q.one Q.zero Q.zero (i 2)));
  Alcotest.check_raises "non-integer operand"
    (Invalid_argument "Q.bareiss: not an integer") (fun () ->
      ignore (Q.bareiss (Q.make 1 2) Q.one Q.zero Q.zero Q.one));
  Alcotest.check_raises "zero divisor" Q.Division_by_zero (fun () ->
      ignore (Q.bareiss Q.one Q.one Q.zero Q.zero Q.zero))

let () =
  Alcotest.run "rational"
    [
      ( "unit",
        [
          Alcotest.test_case "normalization" `Quick test_normalization;
          Alcotest.test_case "zero denominator" `Quick test_zero_denominator;
          Alcotest.test_case "arithmetic" `Quick test_arithmetic;
          Alcotest.test_case "comparisons" `Quick test_comparisons;
          Alcotest.test_case "aggregates" `Quick test_aggregates;
          Alcotest.test_case "conversions" `Quick test_conversions;
          Alcotest.test_case "promotion" `Quick test_promotion;
          Alcotest.test_case "bareiss paths" `Quick test_bareiss_paths;
        ] );
      ("properties", List.map (QCheck_alcotest.to_alcotest ~verbose:false) props);
      ( "bareiss",
        List.map (QCheck_alcotest.to_alcotest ~verbose:false) bareiss_props );
    ]
