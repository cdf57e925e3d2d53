(* Tests for the experiment harness: tables, statistics, timing. *)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  scan 0

(* --- Table --- *)

let test_table_rendering () =
  let t = Harness.Table.create ~title:"demo" ~columns:[ "name"; "value" ] in
  Harness.Table.add_row t [ "alpha"; "1" ];
  Harness.Table.add_row t [ "beta-long-cell"; "22" ];
  let s = Harness.Table.to_string t in
  Alcotest.(check bool) "has title" true (contains s "== demo ==");
  Alcotest.(check bool) "has header" true (contains s "name");
  Alcotest.(check bool) "has rows" true (contains s "beta-long-cell");
  (* alignment: every rendered line reaches the widest cell *)
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
  Alcotest.(check bool) "several lines" true (List.length lines >= 4)

let test_table_row_padding () =
  let t = Harness.Table.create ~title:"pad" ~columns:[ "a"; "b"; "c" ] in
  Harness.Table.add_row t [ "only-one" ];
  let s = Harness.Table.to_string t in
  Alcotest.(check bool) "short row padded" true (contains s "only-one");
  (* overflow is a programming error, not data to silently drop *)
  Alcotest.check_raises "overflow raises"
    (Invalid_argument "Table.add_row: 4 cells for 3 columns in table \"pad\"")
    (fun () -> Harness.Table.add_row t [ "x"; "y"; "z"; "overflow" ])

let test_series_rendering () =
  let s =
    Harness.Table.series ~title:"fig" ~x_label:"k" ~y_label:"gain"
      [ (1.0, 2.0); (2.0, 4.0); (3.0, 6.0) ]
  in
  Alcotest.(check bool) "title" true (contains s "== fig ==");
  Alcotest.(check bool) "labels" true (contains s "y: gain");
  Alcotest.(check bool) "data points" true (contains s "(2, 4)")

let test_multi_series () =
  let s =
    Harness.Table.multi_series ~title:"multi" ~x_label:"x" ~y_label:"y"
      [ ("up", [ (0.0, 0.0); (1.0, 1.0) ]); ("down", [ (0.0, 1.0); (1.0, 0.0) ]) ]
  in
  Alcotest.(check bool) "first series named" true (contains s "up");
  Alcotest.(check bool) "second series named" true (contains s "down");
  Alcotest.(check bool) "distinct markers" true
    (contains s "series '*'" && contains s "series 'o'")

let test_series_empty () =
  let s = Harness.Table.multi_series ~title:"empty" ~x_label:"x" ~y_label:"y" [] in
  Alcotest.(check bool) "handles no data" true (contains s "(no data)")

(* --- Stats --- *)

let test_mean_stddev () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Harness.Stats.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "mean of singleton" 42.0
    (Harness.Stats.mean [ 42.0 ]);
  Alcotest.check_raises "mean of []" (Invalid_argument "Stats.mean: empty list")
    (fun () -> ignore (Harness.Stats.mean []))

let test_linear_fit_exact () =
  let fit = Harness.Stats.linear_fit [ (1.0, 3.0); (2.0, 5.0); (3.0, 7.0) ] in
  Alcotest.(check (float 1e-9)) "slope" 2.0 fit.Harness.Stats.slope;
  Alcotest.(check (float 1e-9)) "intercept" 1.0 fit.Harness.Stats.intercept;
  Alcotest.(check (float 1e-9)) "r2" 1.0 fit.Harness.Stats.r_squared;
  Alcotest.(check bool) "is_linear" true
    (Harness.Stats.is_linear [ (1.0, 3.0); (2.0, 5.0); (3.0, 7.0) ])

let test_linear_fit_noisy () =
  let points = [ (1.0, 1.0); (2.0, 1.9); (3.0, 3.2); (4.0, 3.9) ] in
  let fit = Harness.Stats.linear_fit points in
  Alcotest.(check bool) "slope near 1" true (abs_float (fit.Harness.Stats.slope -. 1.0) < 0.1);
  Alcotest.(check bool) "r2 high but not 1" true
    (fit.Harness.Stats.r_squared > 0.9 && fit.Harness.Stats.r_squared < 1.0);
  Alcotest.(check bool) "not exactly linear" false (Harness.Stats.is_linear points)

let test_linear_fit_guards () =
  Alcotest.check_raises "single point"
    (Invalid_argument "Stats.linear_fit: need at least two points") (fun () ->
      ignore (Harness.Stats.linear_fit [ (1.0, 1.0) ]));
  Alcotest.check_raises "vertical line"
    (Invalid_argument "Stats.linear_fit: x values are all equal") (fun () ->
      ignore (Harness.Stats.linear_fit [ (1.0, 1.0); (1.0, 2.0) ]))

let test_non_finite_guards () =
  (* A single NaN/inf sample must be rejected at the door, not averaged
     into a silent NaN that poisons downstream acceptance bands. *)
  let expect_invalid name f =
    match f () with
    | (_ : float) -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument msg ->
        Alcotest.(check bool)
          (name ^ " names the culprit") true
          (String.length msg > 0)
  in
  expect_invalid "mean with nan" (fun () ->
      Harness.Stats.mean [ 1.0; Float.nan; 3.0 ]);
  expect_invalid "mean with +inf" (fun () ->
      Harness.Stats.mean [ 1.0; Float.infinity ]);
  expect_invalid "fit with nan y" (fun () ->
      (Harness.Stats.linear_fit [ (1.0, 1.0); (2.0, Float.nan) ])
        .Harness.Stats.slope);
  expect_invalid "fit with -inf x" (fun () ->
      (Harness.Stats.linear_fit [ (Float.neg_infinity, 1.0); (2.0, 2.0) ])
        .Harness.Stats.slope);
  expect_invalid "mean with nan in the middle" (fun () ->
      Harness.Stats.mean [ 1.0; Float.nan; 3.0 ])

let test_power_law () =
  (* y = 3 x^2 *)
  let points = List.init 5 (fun i ->
      let x = float_of_int (i + 1) in
      (x, 3.0 *. (x ** 2.0)))
  in
  Alcotest.(check (float 1e-6)) "exponent 2" 2.0 (Harness.Stats.power_law_exponent points);
  Alcotest.check_raises "non-positive data"
    (Invalid_argument "Stats.power_law_exponent: non-positive data") (fun () ->
      ignore (Harness.Stats.power_law_exponent [ (0.0, 1.0); (1.0, 2.0) ]))

(* --- Timer --- *)

let test_timer () =
  let result, elapsed = Harness.Timer.time (fun () -> 21 * 2) in
  Alcotest.(check int) "result passed through" 42 result;
  Alcotest.(check bool) "non-negative time" true (elapsed >= 0.0);
  let s =
    Harness.Timer.time_stats ~repeat:3 (fun () -> ignore (Sys.opaque_identity 1))
  in
  Alcotest.(check bool) "median non-negative" true (s.Harness.Timer.median >= 0.0);
  Alcotest.check_raises "repeat 0"
    (Invalid_argument "Timer.time_stats: repeat must be positive") (fun () ->
      ignore (Harness.Timer.time_stats ~repeat:0 (fun () -> ())))

let test_median_of_sorted () =
  (* Odd counts: the middle sample, bit-identical to the historical
     behaviour. *)
  Alcotest.(check (float 0.0)) "singleton" 5.0
    (Harness.Timer.median_of_sorted [ 5.0 ]);
  Alcotest.(check (float 0.0)) "odd takes the middle" 2.0
    (Harness.Timer.median_of_sorted [ 1.0; 2.0; 7.0 ]);
  (* Even counts: the two central samples are averaged.  The old
     behaviour returned the upper one (3.0 here), biasing every
     even-repeat median upward by half the central gap. *)
  Alcotest.(check (float 0.0)) "even averages the central pair" 2.5
    (Harness.Timer.median_of_sorted [ 1.0; 2.0; 3.0; 4.0 ]);
  Alcotest.(check (float 0.0)) "pair" 2.0
    (Harness.Timer.median_of_sorted [ 1.0; 3.0 ]);
  Alcotest.check_raises "empty list"
    (Invalid_argument "Timer.median_of_sorted: empty list") (fun () ->
      ignore (Harness.Timer.median_of_sorted []))

let test_time_stats_even_repeat () =
  (* With an even repeat the median is an average of real samples, so it
     must still sit between min and max (the old upper-sample bias kept
     this true trivially; the averaged estimator must too). *)
  let s =
    Harness.Timer.time_stats ~repeat:4 (fun () ->
        ignore (Sys.opaque_identity (Array.make 64 0)))
  in
  Alcotest.(check int) "runs recorded" 4 s.Harness.Timer.runs;
  Alcotest.(check bool) "min <= median <= max" true
    (s.Harness.Timer.min <= s.Harness.Timer.median
    && s.Harness.Timer.median <= s.Harness.Timer.max);
  Alcotest.(check bool) "all non-negative" true (s.Harness.Timer.min >= 0.0)

let test_timer_monotonic () =
  (* Timer.now reads CLOCK_MONOTONIC: successive samples never go
     backwards (gettimeofday, the old source, can — NTP slews it), and
     measured durations are always non-negative. *)
  let prev = ref (Harness.Timer.now ()) in
  for _ = 1 to 1000 do
    let t = Harness.Timer.now () in
    if t < !prev then
      Alcotest.failf "clock went backwards: %.9f after %.9f" t !prev;
    prev := t
  done;
  for _ = 1 to 100 do
    let _, elapsed = Harness.Timer.time (fun () -> Sys.opaque_identity ()) in
    Alcotest.(check bool) "duration non-negative" true (elapsed >= 0.0)
  done

let () =
  Alcotest.run "harness"
    [
      ( "table",
        [
          Alcotest.test_case "rendering" `Quick test_table_rendering;
          Alcotest.test_case "row padding" `Quick test_table_row_padding;
          Alcotest.test_case "series" `Quick test_series_rendering;
          Alcotest.test_case "multi series" `Quick test_multi_series;
          Alcotest.test_case "empty series" `Quick test_series_empty;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean/stddev" `Quick test_mean_stddev;
          Alcotest.test_case "linear fit exact" `Quick test_linear_fit_exact;
          Alcotest.test_case "linear fit noisy" `Quick test_linear_fit_noisy;
          Alcotest.test_case "linear fit guards" `Quick test_linear_fit_guards;
          Alcotest.test_case "non-finite guards" `Quick test_non_finite_guards;
          Alcotest.test_case "power law" `Quick test_power_law;
        ] );
      ( "timer",
        [
          Alcotest.test_case "timing" `Quick test_timer;
          Alcotest.test_case "median of sorted" `Quick test_median_of_sorted;
          Alcotest.test_case "even-repeat stats" `Quick
            test_time_stats_even_repeat;
          Alcotest.test_case "monotonic" `Quick test_timer_monotonic;
        ] );
    ]
