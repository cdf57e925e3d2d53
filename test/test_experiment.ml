(* Tests for the structured-experiment engine: the JSON emitter/parser,
   Experiment run/verdict semantics, Registry selection and roll-up, and
   the Timer.time_stats variant. *)

module J = Harness.Json
module E = Harness.Experiment
module R = Harness.Registry

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i =
    i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1))
  in
  scan 0

(* --- Json --- *)

let test_json_escaping () =
  let s = J.to_string (J.String "a\"b\\c\nd\te\r\x01") in
  Alcotest.(check string) "escapes" "\"a\\\"b\\\\c\\nd\\te\\r\\u0001\"" s;
  Alcotest.(check string) "plain" "\"plain\"" (J.to_string (J.String "plain"))

let test_json_numbers () =
  Alcotest.(check string) "int" "42" (J.to_string (J.Int 42));
  Alcotest.(check string) "negative" "-7" (J.to_string (J.Int (-7)));
  Alcotest.(check string) "float" "1.5" (J.to_string (J.Float 1.5));
  Alcotest.(check string) "integral float gets .0" "3.0" (J.to_string (J.Float 3.0));
  Alcotest.(check string) "nan is null" "null" (J.to_string (J.Float nan));
  Alcotest.(check string) "inf is null" "null" (J.to_string (J.Float infinity));
  Alcotest.(check string) "neg inf is null" "null"
    (J.to_string (J.Float neg_infinity))

let test_json_nesting () =
  let v =
    J.Obj
      [
        ("id", J.String "T6");
        ("checks", J.List [ J.Int 1; J.Bool true; J.Null ]);
        ("nested", J.Obj [ ("empty_list", J.List []); ("empty_obj", J.Obj []) ]);
      ]
  in
  Alcotest.(check string) "compact"
    "{\"id\":\"T6\",\"checks\":[1,true,null],\"nested\":{\"empty_list\":[],\"empty_obj\":{}}}"
    (J.to_string v);
  let pretty = J.to_string ~pretty:true v in
  Alcotest.(check bool) "pretty has newlines" true (contains pretty "\n");
  Alcotest.(check bool) "pretty indents" true (contains pretty "  \"id\"")

let test_json_roundtrip () =
  let v =
    J.Obj
      [
        ("s", J.String "quote\" backslash\\ newline\n unicode\xe2\x9c\x93");
        ("xs", J.List [ J.Int 0; J.Float (-2.25); J.Bool false; J.Null ]);
        ("o", J.Obj [ ("k", J.List [ J.Obj [ ("deep", J.Int 9) ] ]) ]);
      ]
  in
  (match J.of_string (J.to_string v) with
  | Ok v' -> Alcotest.(check bool) "compact round-trips" true (v = v')
  | Error e -> Alcotest.failf "parse failed: %s" e);
  match J.of_string (J.to_string ~pretty:true v) with
  | Ok v' -> Alcotest.(check bool) "pretty round-trips" true (v = v')
  | Error e -> Alcotest.failf "pretty parse failed: %s" e

let test_json_parse () =
  (match J.of_string "  { \"a\" : [ 1 , 2.5 , \"x\" ] }  " with
  | Ok (J.Obj [ ("a", J.List [ J.Int 1; J.Float 2.5; J.String "x" ]) ]) -> ()
  | Ok _ -> Alcotest.fail "wrong shape"
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (match J.of_string "\"\\u0041\\u00e9\"" with
  | Ok (J.String "A\xc3\xa9") -> ()
  | Ok _ -> Alcotest.fail "unicode escape decoded wrong"
  | Error e -> Alcotest.failf "unicode parse failed: %s" e);
  Alcotest.(check bool) "trailing garbage rejected" true
    (Result.is_error (J.of_string "1 2"));
  Alcotest.(check bool) "unterminated string rejected" true
    (Result.is_error (J.of_string "\"abc"));
  Alcotest.(check bool) "bare word rejected" true
    (Result.is_error (J.of_string "yes"));
  Alcotest.(check bool) "missing comma rejected" true
    (Result.is_error (J.of_string "[1 2]"))

let test_json_surrogates () =
  (* A UTF-16 surrogate pair must combine into one astral code point:
     U+1F600 is \ud83d\ude00 and encodes as 4 UTF-8 bytes. *)
  (match J.of_string "\"\\ud83d\\ude00\"" with
  | Ok (J.String s) ->
      Alcotest.(check string) "pair combines to U+1F600" "\xf0\x9f\x98\x80" s
  | Ok _ -> Alcotest.fail "surrogate pair decoded to non-string"
  | Error e -> Alcotest.failf "surrogate pair rejected: %s" e);
  (* the emitter must round-trip the 4-byte sequence unharmed *)
  (match J.of_string (J.to_string (J.String "\xf0\x9f\x98\x80")) with
  | Ok (J.String "\xf0\x9f\x98\x80") -> ()
  | _ -> Alcotest.fail "astral code point does not round-trip");
  Alcotest.(check bool) "lone high surrogate rejected" true
    (Result.is_error (J.of_string "\"\\ud83d\""));
  Alcotest.(check bool) "high surrogate + non-escape rejected" true
    (Result.is_error (J.of_string "\"\\ud83dx\""));
  Alcotest.(check bool) "high surrogate + non-low escape rejected" true
    (Result.is_error (J.of_string "\"\\ud83d\\u0041\""));
  Alcotest.(check bool) "lone low surrogate rejected" true
    (Result.is_error (J.of_string "\"\\ude00\""))

let test_json_strict_numbers () =
  (* OCaml's float_of_string accepts underscores and leading zeros; the
     JSON grammar does not, and the parser must not inherit the leniency. *)
  Alcotest.(check bool) "underscore in \\u hex rejected" true
    (Result.is_error (J.of_string "\"\\u1_23\""));
  Alcotest.(check bool) "underscore in number rejected" true
    (Result.is_error (J.of_string "1_000"));
  Alcotest.(check bool) "leading zero rejected" true
    (Result.is_error (J.of_string "0123"));
  Alcotest.(check bool) "negative leading zero rejected" true
    (Result.is_error (J.of_string "-012"));
  Alcotest.(check bool) "bare zero accepted" true
    (J.of_string "0" = Ok (J.Int 0));
  Alcotest.(check bool) "negative zero accepted" true
    (Result.is_ok (J.of_string "-0"));
  Alcotest.(check bool) "zero-point-five accepted" true
    (J.of_string "0.5" = Ok (J.Float 0.5));
  Alcotest.(check bool) "zero exponent accepted" true
    (J.of_string "0e2" = Ok (J.Float 0.0));
  Alcotest.(check bool) "ten accepted" true (J.of_string "10" = Ok (J.Int 10))

let test_json_member () =
  let v = J.Obj [ ("a", J.Int 1); ("b", J.String "x") ] in
  Alcotest.(check bool) "present" true (J.member "b" v = Some (J.String "x"));
  Alcotest.(check bool) "absent" true (J.member "c" v = None);
  Alcotest.(check bool) "non-object" true (J.member "a" (J.Int 3) = None)

(* The parser recurses per nesting level and the daemon runs it on every
   frame: a document past the depth bound is refused, not descended. *)
let test_json_depth_bound () =
  let nested d = String.make d '[' ^ String.make d ']' in
  Alcotest.(check bool) "100 000 deep refused" true
    (Result.is_error (J.of_string (nested 100_000)));
  Alcotest.(check bool) "unbalanced 100 000 deep refused" true
    (Result.is_error (J.of_string (String.make 100_000 '[')));
  let rec depth = function J.List [ v ] -> 1 + depth v | _ -> 1 in
  match J.of_string (nested 64) with
  | Ok v -> Alcotest.(check int) "64 deep parses" 64 (depth v)
  | Error e -> Alcotest.fail ("64 deep refused: " ^ e)

(* --- Experiment --- *)

let descr ~id run =
  {
    E.id;
    claim = "claim " ^ id;
    expected = "expected " ^ id;
    tag = E.Table;
    game = "tuple";
    run;
  }

let test_experiment_pass () =
  let r =
    E.run
      (descr ~id:"X1" (fun ctx ->
           E.out ctx "hello\n";
           ignore (E.check ctx ~label:"ok one" true);
           ignore (E.check ctx ~label:"ok two" (1 + 1 = 2));
           E.measure ctx "count" (E.Int 5);
           E.measure ctx "gain" (E.Rat (Exact.Q.make 8 3))))
  in
  Alcotest.(check bool) "pass" true (r.E.verdict = E.Pass);
  Alcotest.(check int) "checks total" 2 r.E.checks_total;
  Alcotest.(check int) "checks failed" 0 r.E.checks_failed;
  Alcotest.(check string) "text" "hello\n" r.E.text;
  Alcotest.(check bool) "scale default full" true
    (contains (E.scale_to_string E.Full) "full")

let test_experiment_degraded () =
  let r =
    E.run
      (descr ~id:"X2" (fun ctx ->
           ignore (E.check ctx ~label:"holds" true);
           ignore (E.check ctx ~label:"violated invariant" false)))
  in
  Alcotest.(check bool) "degraded" true (r.E.verdict = E.Degraded);
  Alcotest.(check int) "failed count" 1 r.E.checks_failed;
  Alcotest.(check (list string)) "failed labels" [ "violated invariant" ]
    r.E.failed_labels

let test_experiment_info () =
  let r = E.run (descr ~id:"X3" (fun ctx -> E.out ctx "timing only\n")) in
  Alcotest.(check bool) "info when no checks" true (r.E.verdict = E.Info)

let test_experiment_exception () =
  let r =
    E.run
      (descr ~id:"X4" (fun ctx ->
           ignore (E.check ctx ~label:"before crash" true);
           failwith "boom"))
  in
  Alcotest.(check bool) "degraded on raise" true (r.E.verdict = E.Degraded);
  Alcotest.(check bool) "exception recorded in text" true
    (contains r.E.text "RAISED" && contains r.E.text "boom")

let test_experiment_scale () =
  let seen = ref None in
  ignore
    (E.run ~scale:E.Smoke (descr ~id:"X5" (fun ctx -> seen := Some (E.is_smoke ctx))));
  Alcotest.(check bool) "smoke visible to run fn" true (!seen = Some true)

let test_experiment_degrade_hook () =
  let r = E.run (descr ~id:"X6" (fun ctx -> ignore (E.check ctx ~label:"ok" true))) in
  let d = E.degrade ~reason:"forced" r in
  Alcotest.(check bool) "was pass" true (r.E.verdict = E.Pass);
  Alcotest.(check bool) "forced degraded" true (d.E.verdict = E.Degraded);
  Alcotest.(check bool) "reason kept" true
    (List.exists (fun l -> contains l "forced") d.E.failed_labels)

let test_result_json () =
  let r =
    E.run
      (descr ~id:"X7" (fun ctx ->
           ignore (E.check ctx ~label:"ok" true);
           E.measure ctx "rat" (E.Rat (Exact.Q.make 1 3));
           E.measure ctx "f" (E.Float 2.5);
           E.record_timing ctx "step"
             { Harness.Timer.median = 0.25; min = 0.2; max = 0.3; runs = 5 }))
  in
  let j = E.result_to_json r in
  Alcotest.(check bool) "id" true (J.member "id" j = Some (J.String "X7"));
  Alcotest.(check bool) "verdict" true
    (J.member "verdict" j = Some (J.String "pass"));
  (* rationals are strings, exactly *)
  (match J.member "measures" j with
  | Some m -> Alcotest.(check bool) "rat as string" true (J.member "rat" m = Some (J.String "1/3"))
  | None -> Alcotest.fail "no measures");
  (* the object parses back, and one canonicalization pass is a fixpoint
     (wall_s is an arbitrary float, so the first %.12g render may round) *)
  match J.of_string (J.to_string ~pretty:true j) with
  | Error e -> Alcotest.failf "result json does not parse: %s" e
  | Ok j' -> (
      match J.of_string (J.to_string ~pretty:true j') with
      | Ok j'' -> Alcotest.(check bool) "round-trips" true (j' = j'')
      | Error e -> Alcotest.failf "re-rendered json does not parse: %s" e)

let test_wire_roundtrip () =
  let r =
    E.run
      (descr ~id:"X8" (fun ctx ->
           E.out ctx "wire me\n";
           ignore (E.check ctx ~label:"good" true);
           ignore (E.check ctx ~label:"bad" false);
           E.measure ctx "n" (E.Int 7);
           E.measure ctx "q" (E.Rat (Exact.Q.make 8 3));
           E.measure ctx "name" (E.Str "8/3");
           E.measure ctx "flag" (E.Bool false);
           E.measure ctx "x" (E.Float 1.25);
           E.record_timing ctx "step"
             { Harness.Timer.median = 0.25; min = 0.2; max = 0.3; runs = 5 }))
  in
  match E.result_of_json (E.result_to_wire r) with
  | Error e -> Alcotest.failf "wire decode failed: %s" e
  | Ok r' ->
      Alcotest.(check string) "id" r.E.id r'.E.id;
      Alcotest.(check bool) "verdict" true (r.E.verdict = r'.E.verdict);
      Alcotest.(check int) "checks total" r.E.checks_total r'.E.checks_total;
      Alcotest.(check (list string)) "failed labels" r.E.failed_labels
        r'.E.failed_labels;
      Alcotest.(check string) "text survives" r.E.text r'.E.text;
      Alcotest.(check bool) "timings" true (r.E.timings = r'.E.timings);
      (* Rat comes back as Str with the same rendering — by design the
         re-emitted artifact bytes are identical even though the OCaml
         value typing is lossy. *)
      Alcotest.(check bool) "artifact bytes identical" true
        (J.to_string (E.result_to_json r) = J.to_string (E.result_to_json r'));
      Alcotest.(check bool) "rat decodes as its string rendering" true
        (List.assoc "q" r'.E.measures = E.Str "8/3")

let test_wire_rejects_garbage () =
  Alcotest.(check bool) "non-object rejected" true
    (Result.is_error (E.result_of_json (J.Int 3)));
  Alcotest.(check bool) "missing fields rejected" true
    (Result.is_error (E.result_of_json (J.Obj [ ("id", J.String "X") ])))

let test_crashed_constructor () =
  let t = descr ~id:"X9" (fun _ -> ()) in
  let r = E.crashed t ~reason:"worker killed by SIGKILL" ~wall:0.5 in
  Alcotest.(check bool) "verdict crashed" true (r.E.verdict = E.Crashed);
  Alcotest.(check string) "verdict renders" "crashed"
    (E.verdict_to_string E.Crashed);
  Alcotest.(check int) "one failed check" 1 r.E.checks_failed;
  Alcotest.(check (list string)) "reason is the failed label"
    [ "worker killed by SIGKILL" ] r.E.failed_labels;
  Alcotest.(check bool) "text names the experiment and reason" true
    (contains r.E.text "X9" && contains r.E.text "SIGKILL")

(* --- Registry --- *)

let with_clean_registry f =
  R.clear ();
  Fun.protect ~finally:R.clear f

let test_registry_register_find () =
  with_clean_registry (fun () ->
      R.register (descr ~id:"R1" (fun _ -> ()));
      R.register (descr ~id:"R2" (fun _ -> ()));
      Alcotest.(check (list string)) "ids in order" [ "R1"; "R2" ] (R.ids ());
      Alcotest.(check bool) "find hit" true (R.find "R2" <> None);
      Alcotest.(check bool) "find miss" true (R.find "R9" = None);
      Alcotest.check_raises "duplicate id"
        (Invalid_argument "Registry.register: duplicate experiment id \"R1\"")
        (fun () -> R.register (descr ~id:"R1" (fun _ -> ()))))

let test_registry_select () =
  with_clean_registry (fun () ->
      R.register (descr ~id:"T1" (fun _ -> ()));
      R.register (descr ~id:"F1" (fun _ -> ()));
      R.register (descr ~id:"T2" (fun _ -> ()));
      (match R.select ~only:[ "T2"; "T1" ] with
      | Ok es ->
          Alcotest.(check (list string)) "registration order kept" [ "T1"; "T2" ]
            (List.map (fun (e : E.t) -> e.E.id) es)
      | Error e -> Alcotest.failf "select failed: %s" e);
      match R.select ~only:[ "T1"; "ZZ" ] with
      | Ok _ -> Alcotest.fail "unknown id accepted"
      | Error msg -> Alcotest.(check bool) "names the unknown id" true (contains msg "ZZ"))

let test_registry_run_and_summary () =
  with_clean_registry (fun () ->
      R.register
        (descr ~id:"G1" (fun ctx -> ignore (E.check ctx ~label:"a" true)));
      R.register
        (descr ~id:"G2" (fun ctx -> ignore (E.check ctx ~label:"b" false)));
      R.register (descr ~id:"G3" (fun _ -> ()));
      let echoed = Buffer.create 16 in
      let results = R.run ~echo:(Buffer.add_string echoed) (R.all ()) in
      let s = R.summarize results in
      Alcotest.(check int) "total" 3 s.R.total;
      Alcotest.(check int) "pass" 1 s.R.pass;
      Alcotest.(check int) "degraded" 1 s.R.degraded;
      Alcotest.(check int) "info" 1 s.R.info;
      Alcotest.(check int) "checks" 2 s.R.checks_total;
      Alcotest.(check int) "failed" 1 s.R.checks_failed;
      let table = R.summary_table results in
      Alcotest.(check bool) "summary table lists ids" true
        (contains table "G1" && contains table "G2" && contains table "G3");
      Alcotest.(check bool) "totals line" true (contains table "3 experiments");
      let report = R.report_json ~scale:E.Full results in
      (match J.member "experiments" report with
      | Some (J.List xs) -> Alcotest.(check int) "report has all" 3 (List.length xs)
      | _ -> Alcotest.fail "no experiments array");
      match J.member "schema" report with
      | Some (J.String s) ->
          Alcotest.(check string) "schema tag" "defender-bench/v1" s
      | _ -> Alcotest.fail "no schema tag")

(* --- Parallel runner (the worker pool behind --jobs) --- *)

let find_result id results =
  match List.find_opt (fun (r : E.result) -> r.E.id = id) results with
  | Some r -> r
  | None -> Alcotest.failf "no result for %s" id

let test_parallel_matches_sequential () =
  with_clean_registry (fun () ->
      (* deterministic experiments only: text, checks and exact measures
         must agree between the in-process and pooled runs *)
      for i = 1 to 5 do
        let id = Printf.sprintf "P%d" i in
        R.register
          (descr ~id (fun ctx ->
               E.outf ctx "result %d\n" (i * i);
               ignore (E.check ctx ~label:"square" (i * i = i * i));
               E.measure ctx "sq" (E.Int (i * i));
               E.measure ctx "q" (E.Rat (Exact.Q.make i (i + 1)))))
      done;
      let seq = R.run ~echo:ignore (R.all ()) in
      let strip results =
        J.to_string (R.strip_timings (R.report_json ~scale:E.Full results))
      in
      let par = R.run_parallel ~jobs:3 ~echo:ignore (R.all ()) in
      Alcotest.(check (list string)) "registration order kept"
        (List.map (fun (r : E.result) -> r.E.id) seq)
        (List.map (fun (r : E.result) -> r.E.id) par);
      Alcotest.(check string) "stripped artifacts byte-identical" (strip seq)
        (strip par);
      Alcotest.(check bool) "no crashes" true
        ((R.summarize par).R.crashed = 0))

let test_parallel_crash_isolation () =
  with_clean_registry (fun () ->
      List.iter
        (fun id ->
          R.register
            (descr ~id (fun ctx -> ignore (E.check ctx ~label:"fine" true))))
        [ "C1"; "C2"; "C3" ];
      let results =
        R.run_parallel ~jobs:2 ~force_crash:[ "C2" ] ~echo:ignore (R.all ())
      in
      let c2 = find_result "C2" results in
      Alcotest.(check bool) "forced experiment crashed (after its retry)" true
        (c2.E.verdict = E.Crashed);
      Alcotest.(check bool) "reason names the signal" true
        (List.exists (fun l -> contains l "SIGKILL") c2.E.failed_labels);
      List.iter
        (fun id ->
          Alcotest.(check bool) (id ^ " unaffected") true
            ((find_result id results).E.verdict = E.Pass))
        [ "C1"; "C3" ];
      let s = R.summarize results in
      Alcotest.(check int) "summary counts the crash" 1 s.R.crashed;
      Alcotest.(check int) "others pass" 2 s.R.pass;
      Alcotest.(check bool) "summary table reports it" true
        (contains (R.summary_table results) "1 crashed");
      (* the artifact with a crashed verdict still round-trips (one
         canonicalization pass first: wall clocks are arbitrary floats,
         so the initial %.12g render may round) *)
      let report =
        match J.of_string (J.to_string ~pretty:true (R.report_json ~scale:E.Full results)) with
        | Ok j -> j
        | Error e -> Alcotest.failf "crashed artifact does not parse: %s" e
      in
      match J.of_string (J.to_string ~pretty:true report) with
      | Ok report' -> (
          Alcotest.(check bool) "artifact round-trips" true (report = report');
          match J.member "summary" report with
          | Some s ->
              Alcotest.(check bool) "summary json has crashed=1" true
                (J.member "crashed" s = Some (J.Int 1))
          | None -> Alcotest.fail "no summary")
      | Error e -> Alcotest.failf "crashed artifact does not parse: %s" e)

let test_parallel_timeout () =
  with_clean_registry (fun () ->
      R.register
        (descr ~id:"Q1" (fun ctx -> ignore (E.check ctx ~label:"fast" true)));
      R.register
        (descr ~id:"Q2" (fun _ ->
             (* signal-free sleep; would run for 30 s without the budget *)
             ignore (Unix.select [] [] [] 30.0)));
      let results =
        R.run_parallel ~jobs:2 ~timeout:0.2 ~echo:ignore (R.all ())
      in
      let q2 = find_result "Q2" results in
      Alcotest.(check bool) "sleeper crashed" true (q2.E.verdict = E.Crashed);
      Alcotest.(check bool) "reason says timed out" true
        (List.exists (fun l -> contains l "timed out") q2.E.failed_labels);
      Alcotest.(check bool) "fast sibling unaffected" true
        ((find_result "Q1" results).E.verdict = E.Pass))

let test_strip_timings () =
  let artifact =
    J.Obj
      [
        ("schema", J.String "defender-bench/v1");
        ( "experiments",
          J.List
            [
              J.Obj
                [
                  ("id", J.String "T1");
                  ( "measures",
                    J.Obj
                      [
                        ("rows", J.Int 44);
                        ("ns_per_run", J.Float 123.4);
                        ("gain", J.String "8/3");
                        ("skipped", J.Null);
                      ] );
                  ("timings", J.Obj [ ("kernel", J.Obj []) ]);
                  ("wall_s", J.Float 0.5);
                ];
            ] );
        ("wall_s", J.Float 1.5);
      ]
  in
  match R.strip_timings artifact with
  | J.Obj [ ("schema", _); ("experiments", J.List [ J.Obj fields ]) ] ->
      Alcotest.(check bool) "wall_s and timings dropped" true
        (not
           (List.exists
              (fun (k, _) -> k = "wall_s" || k = "timings")
              fields));
      (match List.assoc "measures" fields with
      | J.Obj m ->
          Alcotest.(check (list string))
            "float/null measures dropped, exact content kept"
            [ "rows"; "gain" ] (List.map fst m)
      | _ -> Alcotest.fail "measures not an object")
  | _ -> Alcotest.fail "unexpected stripped shape"

(* --- Timer.time_stats --- *)

let test_time_stats () =
  let calls = ref 0 in
  let st =
    Harness.Timer.time_stats ~repeat:5 (fun () ->
        incr calls;
        Sys.opaque_identity (ignore (Array.make 100 0.0)))
  in
  Alcotest.(check int) "runs all repeats" 5 !calls;
  Alcotest.(check int) "records runs" 5 st.Harness.Timer.runs;
  Alcotest.(check bool) "ordered" true
    (st.Harness.Timer.min <= st.Harness.Timer.median
    && st.Harness.Timer.median <= st.Harness.Timer.max);
  Alcotest.(check bool) "non-negative" true (st.Harness.Timer.min >= 0.0);
  Alcotest.check_raises "repeat must be positive"
    (Invalid_argument "Timer.time_stats: repeat must be positive") (fun () ->
      ignore (Harness.Timer.time_stats ~repeat:0 (fun () -> ())))

let () =
  Alcotest.run "experiment"
    [
      ( "json",
        [
          Alcotest.test_case "escaping" `Quick test_json_escaping;
          Alcotest.test_case "numbers" `Quick test_json_numbers;
          Alcotest.test_case "nesting" `Quick test_json_nesting;
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse" `Quick test_json_parse;
          Alcotest.test_case "surrogate pairs" `Quick test_json_surrogates;
          Alcotest.test_case "strict numbers" `Quick test_json_strict_numbers;
          Alcotest.test_case "member" `Quick test_json_member;
          Alcotest.test_case "depth bound" `Quick test_json_depth_bound;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "pass" `Quick test_experiment_pass;
          Alcotest.test_case "degraded" `Quick test_experiment_degraded;
          Alcotest.test_case "info" `Quick test_experiment_info;
          Alcotest.test_case "exception" `Quick test_experiment_exception;
          Alcotest.test_case "scale" `Quick test_experiment_scale;
          Alcotest.test_case "degrade hook" `Quick test_experiment_degrade_hook;
          Alcotest.test_case "result json" `Quick test_result_json;
          Alcotest.test_case "wire round-trip" `Quick test_wire_roundtrip;
          Alcotest.test_case "wire rejects garbage" `Quick
            test_wire_rejects_garbage;
          Alcotest.test_case "crashed constructor" `Quick
            test_crashed_constructor;
        ] );
      ( "registry",
        [
          Alcotest.test_case "register/find" `Quick test_registry_register_find;
          Alcotest.test_case "select" `Quick test_registry_select;
          Alcotest.test_case "run + summary" `Quick test_registry_run_and_summary;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "matches sequential" `Quick
            test_parallel_matches_sequential;
          Alcotest.test_case "crash isolation" `Quick
            test_parallel_crash_isolation;
          Alcotest.test_case "timeout" `Quick test_parallel_timeout;
          Alcotest.test_case "strip timings" `Quick test_strip_timings;
        ] );
      ("timer", [ Alcotest.test_case "time_stats" `Quick test_time_stats ]);
    ]
