(* Tests for the observability core (Harness.Obs) and its plumbing
   through the experiment engine: counter monotonicity, disabled-mode
   identity, span nesting, snapshot/delta semantics, metrics capture and
   wire round-trip, strip behavior (deterministic counters survive,
   durations and volatile counters do not) — and the determinism
   contract itself: a fixed registry of kernel-exercising experiments
   must strip to byte-identical artifacts between the sequential runner
   and a forked --jobs 2 sweep, counters included. *)

open Netgraph
module J = Harness.Json
module E = Harness.Experiment
module R = Harness.Registry
module Obs = Harness.Obs
module Q = Exact.Q
module Engine = Defender.Tuple_instance.Engine
module BR = Engine.Best_response

(* Obs state is process-global: force a level for one test and restore
   it (tests would otherwise leak recording into each other). *)
let with_level lvl f =
  let old = Obs.level () in
  Obs.set_level lvl;
  Fun.protect ~finally:(fun () -> Obs.set_level old) f

let raises_invalid f =
  match f () with
  | _ -> false
  | exception Invalid_argument _ -> true

(* --- levels and the disabled-mode identity --- *)

let test_disabled_identity () =
  with_level Obs.Off @@ fun () ->
  let c = Obs.counter "test.obs.off" in
  let snap = Obs.snapshot () in
  Obs.incr c;
  Obs.add c 41;
  (* negative add only checks monotonicity when recording *)
  Obs.add c (-5);
  Alcotest.(check int) "span is f () when off" 7
    (Obs.span "test.obs.off_span" (fun () -> 7));
  Alcotest.(check bool) "nothing recorded" true (Obs.is_empty (Obs.delta snap));
  Alcotest.(check bool) "not recording" false (Obs.recording ())

let test_counter_monotonicity () =
  with_level Obs.Counters @@ fun () ->
  let c = Obs.counter "test.obs.mono" in
  let snap = Obs.snapshot () in
  Obs.incr c;
  Obs.add c 4;
  Obs.add c 0;
  let d = Obs.delta snap in
  Alcotest.(check (list (pair string int))) "accumulates" [ ("test.obs.mono", 5) ] d.Obs.counters;
  Alcotest.(check bool) "negative add raises when recording" true
    (raises_invalid (fun () -> Obs.add c (-1)));
  Alcotest.(check int) "failed add left the counter alone" 5
    (List.assoc "test.obs.mono" (Obs.delta snap).Obs.counters)

let test_kind_clash () =
  let _ = Obs.counter "test.obs.kind" in
  let _ = Obs.volatile "test.obs.kind_v" in
  Alcotest.(check bool) "deterministic name cannot become volatile" true
    (raises_invalid (fun () -> Obs.volatile "test.obs.kind"));
  Alcotest.(check bool) "volatile name cannot become deterministic" true
    (raises_invalid (fun () -> Obs.counter "test.obs.kind_v"));
  Alcotest.(check bool) "re-interning the same kind is fine" true
    (Obs.counter "test.obs.kind" == Obs.counter "test.obs.kind")

let test_delta_sorted_and_sparse () =
  with_level Obs.Counters @@ fun () ->
  let cb = Obs.counter "test.obs.sort_b" in
  let ca = Obs.counter "test.obs.sort_a" in
  let _untouched = Obs.counter "test.obs.sort_untouched" in
  let snap = Obs.snapshot () in
  Obs.incr cb;
  Obs.incr ca;
  let d = Obs.delta snap in
  Alcotest.(check (list (pair string int)))
    "sorted by name, untouched dropped"
    [ ("test.obs.sort_a", 1); ("test.obs.sort_b", 1) ]
    d.Obs.counters;
  (* a second snapshot isolates later increments from earlier ones *)
  let snap2 = Obs.snapshot () in
  Obs.add ca 10;
  Alcotest.(check (list (pair string int))) "delta is relative to its snapshot"
    [ ("test.obs.sort_a", 10) ]
    (Obs.delta snap2).Obs.counters

(* --- spans --- *)

(* Keep the optimizer from deleting the timed loop. *)
let busy () =
  let acc = ref 0 in
  for i = 1 to 20_000 do
    acc := !acc + (i * i)
  done;
  ignore (Sys.opaque_identity !acc)

let test_span_nesting () =
  with_level Obs.Trace @@ fun () ->
  let snap = Obs.snapshot () in
  Obs.span "test.obs.outer" (fun () ->
      Obs.span "test.obs.inner" busy;
      Obs.span "test.obs.inner" busy);
  let d = Obs.delta snap in
  let outer = List.assoc "test.obs.outer" d.Obs.spans in
  let inner = List.assoc "test.obs.inner" d.Obs.spans in
  Alcotest.(check int) "outer entered once" 1 outer.Obs.calls;
  Alcotest.(check int) "inner entered twice" 2 inner.Obs.calls;
  Alcotest.(check bool) "inclusive: outer secs >= inner secs" true
    (outer.Obs.secs >= inner.Obs.secs);
  Alcotest.(check bool) "trace accumulates wall time" true (inner.Obs.secs > 0.0)

let test_span_records_on_raise () =
  with_level Obs.Counters @@ fun () ->
  let snap = Obs.snapshot () in
  (try Obs.span "test.obs.raiser" (fun () -> raise Exit)
   with Exit -> ());
  let d = Obs.delta snap in
  Alcotest.(check int) "raising span still counted" 1
    (List.assoc "test.obs.raiser" d.Obs.spans).Obs.calls;
  Alcotest.(check (float 0.0)) "counters level never reads the clock" 0.0
    (List.assoc "test.obs.raiser" d.Obs.spans).Obs.secs

let test_unobserved () =
  with_level Obs.Counters @@ fun () ->
  let c = Obs.counter "test.obs.shielded" in
  let snap = Obs.snapshot () in
  Obs.unobserved (fun () ->
      Alcotest.(check bool) "not recording inside" false (Obs.recording ());
      Obs.incr c);
  Alcotest.(check bool) "shielded incr not recorded" true
    (Obs.is_empty (Obs.delta snap));
  Alcotest.(check bool) "level restored" true (Obs.level () = Obs.Counters);
  (try Obs.unobserved (fun () -> raise Exit) with Exit -> ());
  Alcotest.(check bool) "level restored after exception" true
    (Obs.level () = Obs.Counters)

(* --- experiment-engine plumbing --- *)

(* A deterministic experiment exercising the instrumented subsystems:
   exact kernel queries (with replace_vp patches), blossom on a complete
   graph, Hopcroft–Karp on a complete bipartite one.  No randomness, so
   its counter delta is a constant of the code. *)
let kernel_exp id ~n =
  let run ctx =
    let g = Gen.complete n in
    let m = Defender.Model.make ~graph:g ~nu:3 ~k:2 in
    let t1 = Defender.Tuple.of_list g [ 0; 1 ] in
    let t2 = Defender.Tuple.of_list g [ 2; 3 ] in
    let prof =
      Engine.Profile.uniform m ~vp_support:[ 0; 1; 2 ] ~tp_support:[ t1; t2 ]
    in
    let v1 = BR.vp_best_value prof in
    let prof' = Engine.Profile.replace_vp prof 0 (Dist.Finite.point 1) in
    let v2 =
      Defender.Tuple_game.tp_greedy_value (Engine.Profile.instance prof')
        ~load:(Engine.Profile.expected_load prof')
    in
    ignore (E.check ctx ~label:"best-response values positive"
              (Q.compare v1 Q.zero > 0 && Q.compare v2 Q.zero >= 0));
    let b = Matching.Blossom.max_matching g in
    let hk = Matching.Hopcroft_karp.max_matching_bipartite (Gen.complete_bipartite 3 4) in
    ignore (E.check ctx ~label:"matching sizes"
              (b.Matching.Blossom.size = n / 2 && hk.Matching.Hopcroft_karp.size = 3))
  in
  {
    E.id;
    claim = "obs test fixture";
    expected = "deterministic counter delta";
    tag = E.Micro;
    game = "tuple";
    run;
  }

let test_run_captures_metrics () =
  let exp = kernel_exp "OBS_CAP" ~n:6 in
  with_level Obs.Off (fun () ->
      let r = E.run ~scale:E.Smoke exp in
      Alcotest.(check bool) "no metrics when off" true (r.E.metrics = None));
  with_level Obs.Counters @@ fun () ->
  let r = E.run ~scale:E.Smoke exp in
  match r.E.metrics with
  | None -> Alcotest.fail "metrics missing under Counters"
  | Some m ->
      Alcotest.(check bool) "kernel counters captured" true
        (List.mem_assoc "kernel.builds" m.E.m_counters);
      Alcotest.(check bool) "span captured" true
        (List.mem_assoc "blossom.max_matching" m.E.m_spans);
      List.iter
        (fun (name, (s : E.span_metric)) ->
          Alcotest.(check bool) (name ^ " has no duration at Counters") true
            (s.E.total_s = None))
        m.E.m_spans

let test_trace_records_durations () =
  with_level Obs.Trace @@ fun () ->
  let r = E.run ~scale:E.Smoke (kernel_exp "OBS_TRACE" ~n:6) in
  match r.E.metrics with
  | None -> Alcotest.fail "metrics missing under Trace"
  | Some m ->
      let s = List.assoc "blossom.max_matching" m.E.m_spans in
      Alcotest.(check bool) "span duration present at Trace" true
        (match s.E.total_s with Some t -> t >= 0.0 | None -> false)

let test_wire_roundtrip_metrics () =
  with_level Obs.Counters @@ fun () ->
  let r = E.run ~scale:E.Smoke (kernel_exp "OBS_WIRE" ~n:6) in
  match E.result_of_wire (E.result_to_wire r) with
  | Error e -> Alcotest.failf "wire decode failed: %s" e
  | Ok r' ->
      Alcotest.(check bool) "metrics survive the worker pipe" true
        (r'.E.metrics = r.E.metrics)

let test_strip_keeps_counters () =
  (* Trace + a volatile counter: stripping must drop the durations and
     the volatile section but keep counters and span call counts. *)
  with_level Obs.Trace @@ fun () ->
  let vol = Obs.volatile "test.obs.strip_vol" in
  let exp = kernel_exp "OBS_STRIP" ~n:6 in
  let exp = { exp with E.run = (fun ctx -> Obs.add vol 123; exp.E.run ctx) } in
  let r = E.run ~scale:E.Smoke exp in
  let stripped = R.strip_timings (R.report_json ~scale:E.Smoke [ r ]) in
  let e =
    match J.member "experiments" stripped with
    | Some (J.List [ e ]) -> e
    | _ -> Alcotest.fail "experiments list missing"
  in
  let metrics =
    match J.member "metrics" e with
    | Some m -> m
    | None -> Alcotest.fail "metrics stripped away entirely"
  in
  Alcotest.(check bool) "deterministic counters kept" true
    (match J.member "counters" metrics with
    | Some (J.Obj fields) -> List.mem_assoc "kernel.builds" fields
    | _ -> false);
  Alcotest.(check bool) "volatile section dropped" true
    (J.member "volatile" metrics = None);
  (match J.member "spans" metrics with
  | Some (J.Obj spans) ->
      List.iter
        (fun (name, cell) ->
          Alcotest.(check bool) (name ^ " keeps count") true
            (match J.member "count" cell with Some (J.Int n) -> n > 0 | _ -> false);
          Alcotest.(check bool) (name ^ " loses total_s") true
            (J.member "total_s" cell = None))
        spans
  | _ -> Alcotest.fail "spans section missing");
  Alcotest.(check bool) "wall_s stripped too" true (J.member "wall_s" e = None)

(* --- the determinism contract, end to end --- *)

let test_parallel_counter_determinism () =
  R.clear ();
  List.iter R.register
    [ kernel_exp "OBS_P1" ~n:6; kernel_exp "OBS_P2" ~n:7; kernel_exp "OBS_P3" ~n:8 ];
  Fun.protect ~finally:R.clear @@ fun () ->
  with_level Obs.Counters @@ fun () ->
  let seq = R.run ~scale:E.Smoke ~echo:ignore (R.all ()) in
  let par = R.run_parallel ~scale:E.Smoke ~jobs:2 ~echo:ignore (R.all ()) in
  List.iter
    (fun (r : E.result) ->
      match r.E.metrics with
      | Some m ->
          Alcotest.(check bool) (r.E.id ^ ": counters non-vacuous") true
            (m.E.m_counters <> [])
      | None -> Alcotest.fail (r.E.id ^ ": metrics missing"))
    (seq @ par);
  let strip rs =
    J.to_string ~pretty:true (R.strip_timings (R.report_json ~scale:E.Smoke rs))
  in
  Alcotest.(check string)
    "sequential and --jobs 2 artifacts byte-identical after strip, counters included"
    (strip seq) (strip par)

let () =
  Obs.set_level Obs.Off;
  Alcotest.run "obs"
    [
      ( "core",
        [
          Alcotest.test_case "disabled-mode identity" `Quick test_disabled_identity;
          Alcotest.test_case "counter monotonicity" `Quick test_counter_monotonicity;
          Alcotest.test_case "kind clash" `Quick test_kind_clash;
          Alcotest.test_case "delta sorted and sparse" `Quick test_delta_sorted_and_sparse;
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "span records on raise" `Quick test_span_records_on_raise;
          Alcotest.test_case "unobserved" `Quick test_unobserved;
        ] );
      ( "engine",
        [
          Alcotest.test_case "run captures metrics" `Quick test_run_captures_metrics;
          Alcotest.test_case "trace records durations" `Quick test_trace_records_durations;
          Alcotest.test_case "wire round-trip" `Quick test_wire_roundtrip_metrics;
          Alcotest.test_case "strip keeps counters" `Quick test_strip_keeps_counters;
          Alcotest.test_case "parallel counter determinism" `Quick
            test_parallel_counter_determinism;
        ] );
    ]
