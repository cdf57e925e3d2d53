(* Tests for the xoshiro256** / SplitMix64 PRNG substrate. *)

module Rng = Prng.Rng

let test_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check (float 0.0)) "same stream" (Rng.float a) (Rng.float b)
  done

let test_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.float a = Rng.float b then incr same
  done;
  Alcotest.(check bool) "nearby seeds diverge" true (!same < 4)

let test_int_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done;
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_int_uniformity () =
  let rng = Rng.create 11 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = Rng.int rng 10 in
    buckets.(v) <- buckets.(v) + 1
  done;
  (* Chi-squared with 9 dof; 99.9% critical value is 27.9. *)
  let expected = float_of_int n /. 10.0 in
  let chi2 =
    Array.fold_left
      (fun acc c ->
        let d = float_of_int c -. expected in
        acc +. (d *. d /. expected))
      0.0 buckets
  in
  Alcotest.(check bool) (Printf.sprintf "chi2 %.2f < 27.9" chi2) true (chi2 < 27.9)

let test_int_in_range () =
  let rng = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int_in_range rng ~lo:(-5) ~hi:5 in
    Alcotest.(check bool) "in [-5,5]" true (v >= -5 && v <= 5)
  done;
  Alcotest.(check int) "degenerate range" 4 (Rng.int_in_range rng ~lo:4 ~hi:4);
  Alcotest.check_raises "lo > hi" (Invalid_argument "Rng.int_in_range: lo > hi")
    (fun () -> ignore (Rng.int_in_range rng ~lo:2 ~hi:1))

let test_float_range () =
  let rng = Rng.create 5 in
  for _ = 1 to 10_000 do
    let f = Rng.float rng in
    Alcotest.(check bool) "in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_float_mean () =
  let rng = Rng.create 13 in
  let n = 100_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Rng.float rng
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 1/2" true (abs_float (mean -. 0.5) < 0.01)

let test_bool_with_prob () =
  let rng = Rng.create 17 in
  let n = 50_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Rng.bool_with_prob rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "rate near 0.3" true (abs_float (rate -. 0.3) < 0.02);
  Alcotest.(check bool) "p=0 never" false (Rng.bool_with_prob rng 0.0);
  Alcotest.(check bool) "p=1 always" true (Rng.bool_with_prob rng 1.0);
  Alcotest.check_raises "p out of range"
    (Invalid_argument "Rng.bool_with_prob: p out of [0,1]") (fun () ->
      ignore (Rng.bool_with_prob rng 1.5))

let test_shuffle_permutation () =
  let rng = Rng.create 23 in
  let original = Array.init 50 Fun.id in
  let shuffled = Rng.shuffle rng original in
  Alcotest.(check (array int)) "original untouched" (Array.init 50 Fun.id) original;
  let sorted = Array.copy shuffled in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" original sorted

let test_shuffle_uniformity () =
  (* Position of element 0 after shuffling [0;1;2] should be uniform. *)
  let rng = Rng.create 29 in
  let counts = Array.make 3 0 in
  let n = 30_000 in
  for _ = 1 to n do
    let arr = Rng.shuffle rng [| 0; 1; 2 |] in
    let pos = ref 0 in
    Array.iteri (fun i v -> if v = 0 then pos := i) arr;
    counts.(!pos) <- counts.(!pos) + 1
  done;
  Array.iter
    (fun c ->
      let rate = float_of_int c /. float_of_int n in
      Alcotest.(check bool) "near 1/3" true (abs_float (rate -. (1.0 /. 3.0)) < 0.02))
    counts

let test_choose () =
  let rng = Rng.create 31 in
  for _ = 1 to 100 do
    let v = Rng.choose rng [| 10; 20; 30 |] in
    Alcotest.(check bool) "member" true (List.mem v [ 10; 20; 30 ])
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Rng.choose: empty array")
    (fun () -> ignore (Rng.choose rng [||]))

let test_sample_without_replacement () =
  let rng = Rng.create 37 in
  let arr = Array.init 20 Fun.id in
  for _ = 1 to 200 do
    let sample = Rng.sample_without_replacement rng ~count:5 arr in
    Alcotest.(check int) "size" 5 (Array.length sample);
    let sorted = List.sort_uniq compare (Array.to_list sample) in
    Alcotest.(check int) "distinct" 5 (List.length sorted)
  done;
  Alcotest.(check int) "count = length ok" 20
    (Array.length (Rng.sample_without_replacement rng ~count:20 arr));
  Alcotest.check_raises "count too large"
    (Invalid_argument "Rng.sample_without_replacement: bad count") (fun () ->
      ignore (Rng.sample_without_replacement rng ~count:21 arr))

let test_weighted_index () =
  let rng = Rng.create 41 in
  let counts = Array.make 3 0 in
  let n = 60_000 in
  for _ = 1 to n do
    let i = Rng.weighted_index rng [| 1.0; 2.0; 3.0 |] in
    counts.(i) <- counts.(i) + 1
  done;
  let rate i = float_of_int counts.(i) /. float_of_int n in
  Alcotest.(check bool) "w0 ~ 1/6" true (abs_float (rate 0 -. (1.0 /. 6.0)) < 0.02);
  Alcotest.(check bool) "w1 ~ 2/6" true (abs_float (rate 1 -. (2.0 /. 6.0)) < 0.02);
  Alcotest.(check bool) "w2 ~ 3/6" true (abs_float (rate 2 -. 0.5) < 0.02);
  Alcotest.(check int) "zero weights skipped" 1
    (Rng.weighted_index rng [| 0.0; 5.0; 0.0 |]);
  Alcotest.check_raises "all zero"
    (Invalid_argument "Rng.weighted_index: all weights zero") (fun () ->
      ignore (Rng.weighted_index rng [| 0.0; 0.0 |]))

let () =
  Alcotest.run "prng"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
          Alcotest.test_case "int bounds" `Quick test_int_bounds;
          Alcotest.test_case "int uniformity" `Quick test_int_uniformity;
          Alcotest.test_case "int_in_range" `Quick test_int_in_range;
          Alcotest.test_case "float range" `Quick test_float_range;
          Alcotest.test_case "float mean" `Quick test_float_mean;
          Alcotest.test_case "bool_with_prob" `Quick test_bool_with_prob;
          Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
          Alcotest.test_case "shuffle uniformity" `Quick test_shuffle_uniformity;
          Alcotest.test_case "choose" `Quick test_choose;
          Alcotest.test_case "sample without replacement" `Quick
            test_sample_without_replacement;
          Alcotest.test_case "weighted index" `Quick test_weighted_index;
        ] );
    ]
