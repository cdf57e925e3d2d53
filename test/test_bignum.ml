(* Torture tests for the arbitrary-precision substrate (Bignat/Bigint)
   and the promotion boundary of the Q tower, including the
   Harness.Json rationals-as-strings round-trip at big magnitudes. *)

module Q = Exact.Q
module N = Exact.Bignat
module Z = Exact.Bigint

let nat = Alcotest.testable N.pp N.equal
let int_b = Alcotest.testable Z.pp Z.equal
let q = Alcotest.testable Q.pp Q.equal

let n_of_string = N.of_string

(* --- Bignat unit vectors --- *)

let test_nat_conversions () =
  Alcotest.(check string) "zero" "0" (N.to_string N.zero);
  Alcotest.(check string) "one" "1" (N.to_string N.one);
  Alcotest.(check string) "max_int" (string_of_int max_int)
    (N.to_string (N.of_int max_int));
  Alcotest.(check (option int)) "to_int_opt max_int" (Some max_int)
    (N.to_int_opt (N.of_int max_int));
  Alcotest.(check (option int)) "to_int_opt max_int+1" None
    (N.to_int_opt (N.add (N.of_int max_int) N.one));
  (* leading zeros parse; canonical zero *)
  Alcotest.check nat "0000 = 0" N.zero (n_of_string "0000");
  Alcotest.check nat "of_string inverse of to_string"
    (n_of_string "123456789012345678901234567890123456789")
    (n_of_string
       (N.to_string (n_of_string "123456789012345678901234567890123456789")));
  Alcotest.check_raises "of_string rejects garbage"
    (Invalid_argument "Bignat.of_string: not a digit") (fun () ->
      ignore (n_of_string "12a3"));
  Alcotest.check_raises "of_string rejects empty"
    (Invalid_argument "Bignat.of_string: empty string") (fun () ->
      ignore (n_of_string ""))

(* 2^62 = 4611686018427387904; 10^30, factorials, Mersenne-adjacent
   values: known products and quotients crossing many limb boundaries. *)
let test_nat_known_values () =
  let p2_62 = N.add (N.of_int max_int) N.one in
  Alcotest.(check string) "2^62" "4611686018427387904" (N.to_string p2_62);
  Alcotest.(check string) "2^124"
    "21267647932558653966460912964485513216"
    (N.to_string (N.mul p2_62 p2_62));
  (* 20! = 2432902008176640000 fits; 25! doesn't. *)
  let fact n =
    let rec go acc i =
      if i > n then acc else go (N.mul acc (N.of_int i)) (i + 1)
    in
    go N.one 2
  in
  Alcotest.(check string) "20!" "2432902008176640000" (N.to_string (fact 20));
  Alcotest.(check string) "25!" "15511210043330985984000000"
    (N.to_string (fact 25));
  Alcotest.(check string) "50!"
    "30414093201713378043612608166064768844377641568960512000000000000"
    (N.to_string (fact 50));
  (* binomial via factorial quotient: C(200, 10) *)
  let c200_10 =
    fst (N.divmod (fact 200) (N.mul (fact 10) (fact 190)))
  in
  Alcotest.(check string) "C(200,10)" "22451004309013280"
    (N.to_string c200_10)

let test_nat_divmod_vectors () =
  let check_divmod a b =
    let a = n_of_string a and b = n_of_string b in
    let qt, r = N.divmod a b in
    Alcotest.check nat
      (Printf.sprintf "reconstruct %s / %s" (N.to_string a) (N.to_string b))
      a
      (N.add (N.mul qt b) r);
    Alcotest.(check bool) "remainder < divisor" true (N.compare r b < 0)
  in
  (* Knuth D corner cases: qhat overestimates, add-back, single-limb,
     dividend < divisor, exact division, highly skewed lengths. *)
  check_divmod "340282366920938463463374607431768211456" "18446744073709551616";
  check_divmod "340282366920938463463374607431768211455" "18446744073709551617";
  check_divmod "99999999999999999999999999999999999999" "3";
  check_divmod "7" "123456789123456789123456789";
  check_divmod "123456789123456789123456789123456789" "987654321987654321";
  check_divmod "4611686018427387904" "4611686018427387903";
  (* the classical add-back trigger family: u = b^2k - 1, v = b^k + 1 *)
  check_divmod
    "21267647932558653966460912964485513215"
    "4611686018427387905";
  Alcotest.check_raises "divide by zero" Division_by_zero (fun () ->
      ignore (N.divmod N.one N.zero))

let test_nat_gcd_vectors () =
  let check_gcd a b expect =
    Alcotest.check nat
      (Printf.sprintf "gcd %s %s" a b)
      (n_of_string expect)
      (N.gcd (n_of_string a) (n_of_string b))
  in
  check_gcd "0" "123456789012345678901234567890" "123456789012345678901234567890";
  check_gcd "123456789012345678901234567890" "0" "123456789012345678901234567890";
  (* gcd(n!, n! + 1) = 1; gcd(2^124, 2^62) = 2^62; fibonacci pair (worst
     case for Euclid) *)
  check_gcd "15511210043330985984000000" "15511210043330985984000001" "1";
  check_gcd "21267647932558653966460912964485513216" "4611686018427387904"
    "4611686018427387904";
  check_gcd "354224848179261915075" "218922995834555169026" "1";
  check_gcd "362880000000000000000000" "100000000000000000" "100000000000000000"

let test_nat_shift () =
  let big = n_of_string "340282366920938463463374607431768211456" (* 2^128 *) in
  Alcotest.check nat "2^128 >> 66 = 2^62"
    (n_of_string "4611686018427387904")
    (N.shift_right big 66);
  Alcotest.check nat "shift past the end" N.zero (N.shift_right big 129);
  Alcotest.(check int) "bit_length 2^128" 129 (N.bit_length big);
  Alcotest.(check int) "bit_length 0" 0 (N.bit_length N.zero)

(* --- Bigint --- *)

let test_int_signs () =
  let a = Z.of_string "-123456789012345678901234567890" in
  Alcotest.(check string) "neg to_string" "-123456789012345678901234567890"
    (Z.to_string a);
  Alcotest.check int_b "neg . neg = id" a (Z.neg (Z.neg a));
  Alcotest.check int_b "a + (-a) = 0" Z.zero (Z.add a (Z.neg a));
  Alcotest.(check int) "sign" (-1) (Z.sign a);
  Alcotest.check int_b "min_int round-trips" (Z.of_int min_int)
    (Z.of_string (string_of_int min_int));
  Alcotest.(check (option int)) "min_int to_int_opt" (Some min_int)
    (Z.to_int_opt (Z.of_int min_int));
  Alcotest.(check (option int)) "min_int - 1 does not fit" None
    (Z.to_int_opt (Z.sub (Z.of_int min_int) Z.one));
  (* truncated divmod: quotient toward zero, remainder keeps the
     dividend's sign — matching native (/) and (mod) *)
  List.iter
    (fun (a, b) ->
      let qt, r = Z.divmod (Z.of_int a) (Z.of_int b) in
      Alcotest.check int_b
        (Printf.sprintf "%d / %d" a b)
        (Z.of_int (a / b)) qt;
      Alcotest.check int_b
        (Printf.sprintf "%d mod %d" a b)
        (Z.of_int (a mod b)) r)
    [ (7, 2); (-7, 2); (7, -2); (-7, -2); (6, 3); (-6, 3) ]

(* --- randomized cross-validation against native arithmetic --- *)

let gen_nat =
  (* numbers up to ~2^186: 3 native chunks multiplied together *)
  QCheck.map
    (fun (a, b, c) ->
      N.add
        (N.mul (N.mul (N.of_int a) (N.of_int b)) (N.of_int c))
        (N.of_int (a lxor b)))
    QCheck.(
      triple (int_range 0 max_int) (int_range 0 max_int) (int_range 1 max_int))

let props =
  [
    QCheck.Test.make ~name:"nat: divmod reconstructs" ~count:300
      QCheck.(pair gen_nat gen_nat)
      (fun (a, b) ->
        QCheck.assume (not (N.is_zero b));
        let qt, r = N.divmod a b in
        N.equal a (N.add (N.mul qt b) r) && N.compare r b < 0);
    QCheck.Test.make ~name:"nat: gcd divides both and is maximal-ish"
      ~count:200
      QCheck.(pair gen_nat gen_nat)
      (fun (a, b) ->
        QCheck.assume (not (N.is_zero a) && not (N.is_zero b));
        let g = N.gcd a b in
        let _, ra = N.divmod a g and _, rb = N.divmod b g in
        N.is_zero ra && N.is_zero rb
        &&
        (* co-primality of the cofactors *)
        let qa, _ = N.divmod a g and qb, _ = N.divmod b g in
        N.equal (N.gcd qa qb) N.one);
    QCheck.Test.make ~name:"nat: string round-trip" ~count:200 gen_nat
      (fun a -> N.equal a (n_of_string (N.to_string a)));
    QCheck.Test.make ~name:"nat: add/sub agree with native on small"
      ~count:300
      QCheck.(pair (int_range 0 1_000_000_000) (int_range 0 1_000_000_000))
      (fun (a, b) ->
        N.equal (N.of_int (a + b)) (N.add (N.of_int a) (N.of_int b))
        && N.equal
             (N.of_int (max a b - min a b))
             (N.sub (N.of_int (max a b)) (N.of_int (min a b))));
    QCheck.Test.make ~name:"nat: mul/divmod agree with native on small"
      ~count:300
      QCheck.(pair (int_range 1 1_000_000_000) (int_range 1 1_000_000_000))
      (fun (a, b) ->
        N.equal (N.of_int (a * b)) (N.mul (N.of_int a) (N.of_int b))
        && N.equal (N.of_int (a / b)) (fst (N.divmod (N.of_int a) (N.of_int b)))
        && N.equal (N.of_int (a mod b)) (snd (N.divmod (N.of_int a) (N.of_int b))));
  ]

(* --- the seed-overflow regression workload --- *)

(* A "long-horizon running average" in exact arithmetic: average of
   1/(step + offset) over thousands of steps.  The common denominator is
   lcm(2..N) which left the native range near N = 43 — the seed Q raised
   Overflow on this loop; the tower must complete and be exactly
   verifiable. *)
let test_running_average_regression () =
  let n = 2000 in
  let terms = List.init n (fun i -> Q.make 1 (i + 2)) in
  let avg = Q.div_int (Q.sum terms) n in
  Alcotest.(check bool) "average promoted" false (Q.is_small avg);
  (* H(n+1) - 1 telescoped check: avg * n = sum; re-add terms one by one
     in reverse and subtract — must cancel to exactly zero. *)
  let sum = Q.mul_int avg n in
  let residue = List.fold_left (fun acc t -> Q.sub acc t) sum (List.rev terms) in
  Alcotest.check q "exact cancellation over 2000 promoted terms" Q.zero residue;
  (* spot-check the exact value for a small prefix against the known
     harmonic number: 1/2+1/3+1/4+1/5 = 77/60 *)
  Alcotest.check q "H prefix exact" (Q.make 77 60)
    (Q.sum (List.init 4 (fun i -> Q.make 1 (i + 2))))

(* Big rationals must survive the Harness.Json string encoding exactly
   (experiment artifacts store rationals as strings for this reason). *)
let test_json_round_trip () =
  let big =
    Q.sum (List.map (fun p -> Q.make 1 p) [ 101; 103; 107; 109; 113; 127;
                                            131; 137; 139; 149; 151; 157 ])
  in
  Alcotest.(check bool) "witness is big" false (Q.is_small big);
  let values = [ Q.zero; Q.make (-7) 3; Q.of_int max_int; big; Q.neg big ] in
  let json = Harness.Json.List (List.map (fun v -> Harness.Json.String (Q.to_string v)) values) in
  let text = Harness.Json.to_string json in
  match Harness.Json.of_string text with
  | Error e -> Alcotest.failf "artifact does not re-parse: %s" e
  | Ok (Harness.Json.List items) ->
      List.iter2
        (fun expect item ->
          match item with
          | Harness.Json.String s -> Alcotest.check q "round-trip" expect (Q.of_string s)
          | _ -> Alcotest.fail "expected a string cell")
        values items
  | Ok _ -> Alcotest.fail "expected a list"

let () =
  Alcotest.run "bignum"
    [
      ( "bignat",
        [
          Alcotest.test_case "conversions" `Quick test_nat_conversions;
          Alcotest.test_case "known values" `Quick test_nat_known_values;
          Alcotest.test_case "divmod vectors" `Quick test_nat_divmod_vectors;
          Alcotest.test_case "gcd vectors" `Quick test_nat_gcd_vectors;
          Alcotest.test_case "shift/bit_length" `Quick test_nat_shift;
        ] );
      ("bigint", [ Alcotest.test_case "signs and divmod" `Quick test_int_signs ]);
      ( "regressions",
        [
          Alcotest.test_case "seed-overflow running average" `Quick
            test_running_average_regression;
          Alcotest.test_case "Json round-trip at big magnitude" `Quick
            test_json_round_trip;
        ] );
      ("properties", List.map (QCheck_alcotest.to_alcotest ~verbose:false) props);
    ]
