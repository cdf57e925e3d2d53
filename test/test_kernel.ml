(* Property tests for the incremental exact-payoff kernel: every kernel
   query must be *exactly* equal (Q.equal, no tolerance) to the naive
   support-rescanning oracle (a Profile.rescan profile), on fresh profiles
   and after arbitrary chains of replace_vp / replace_tp, and a chain
   replayed from a rescan profile must stay a rescan chain.  Also covers the fictitious-play
   incremental-vs-naive equivalence and the greedy_response guard
   regressions. *)

open Netgraph
module Q = Exact.Q
module Engine = Defender.Tuple_instance.Engine
module Obs = Harness.Obs
module Sim_tuple = Sim.Sim_instance.Tuple

let q = Alcotest.testable Q.pp Q.equal

(* The deterministic counters [f] records, at the Counters level (Obs
   state is process-global, so the previous level is restored). *)
let with_counters f =
  let old = Obs.level () in
  Obs.set_level Obs.Counters;
  Fun.protect
    ~finally:(fun () -> Obs.set_level old)
    (fun () ->
      let snap = Obs.snapshot () in
      f ();
      (Obs.delta snap).Obs.counters)

(* --- random instances --- *)

let random_finite rng g =
  (* Non-uniform distribution with exact rational weights summing to 1. *)
  let n = Graph.n g in
  let vertices = Array.init n Fun.id in
  let size = 1 + Prng.Rng.int rng n in
  let support =
    Array.to_list (Prng.Rng.sample_without_replacement rng ~count:size vertices)
  in
  let weights = List.map (fun v -> (v, 1 + Prng.Rng.int rng 6)) support in
  let total = List.fold_left (fun acc (_, w) -> acc + w) 0 weights in
  Dist.Finite.make (List.map (fun (v, w) -> (v, Q.make w total)) weights)

let random_tp rng g k =
  let edge_ids = Array.init (Graph.m g) Fun.id in
  let tuples =
    List.init
      (1 + Prng.Rng.int rng 3)
      (fun _ ->
        Defender.Tuple.of_list g
          (Array.to_list
             (Prng.Rng.sample_without_replacement rng ~count:k edge_ids)))
    |> List.sort_uniq Defender.Tuple.compare
  in
  let weights = List.map (fun t -> (t, 1 + Prng.Rng.int rng 6)) tuples in
  let total = List.fold_left (fun acc (_, w) -> acc + w) 0 weights in
  List.map (fun (t, w) -> (t, Q.make w total)) weights

let random_model_profile rng =
  let g = Gen.gnp_connected rng ~n:(4 + Prng.Rng.int rng 4) ~p:0.45 in
  let nu = 1 + Prng.Rng.int rng 3 in
  let k = 1 + Prng.Rng.int rng (min 3 (Graph.m g)) in
  let m = Defender.Model.make ~graph:g ~nu ~k in
  let vp = List.init nu (fun _ -> random_finite rng g) in
  let tp = random_tp rng g k in
  (m, Engine.Profile.make_mixed m ~vp ~tp)

let random_tuple rng g k =
  let edge_ids = Array.init (Graph.m g) Fun.id in
  Defender.Tuple.of_list g
    (Array.to_list (Prng.Rng.sample_without_replacement rng ~count:k edge_ids))

(* Assert [actual] answers every vertex and edge query, and the load
   query of each of [strategies], exactly as [expected] does. *)
let check_same_queries ?(label = "") ?(strategies = []) expected actual =
  let g = Defender.Model.graph (Engine.Profile.instance expected) in
  for v = 0 to Graph.n g - 1 do
    Alcotest.check q
      (Printf.sprintf "%shit_prob %d" label v)
      (Engine.Profile.hit_prob expected v)
      (Engine.Profile.hit_prob actual v);
    Alcotest.check q
      (Printf.sprintf "%sexpected_load %d" label v)
      (Engine.Profile.expected_load expected v)
      (Engine.Profile.expected_load actual v)
  done;
  for id = 0 to Graph.m g - 1 do
    Alcotest.check q
      (Printf.sprintf "%sexpected_load_edge %d" label id)
      (Engine.Profile.expected_load_edge expected id)
      (Engine.Profile.expected_load_edge actual id)
  done;
  List.iter
    (fun t ->
      Alcotest.check q
        (Printf.sprintf "%sexpected_load_tuple" label)
        (Engine.Profile.expected_load_strategy expected t)
        (Engine.Profile.expected_load_strategy actual t))
    strategies

(* Assert every kernel query on [prof] equals the naive oracle (its
   Profile.rescan twin) exactly. *)
let check_kernel_vs_naive ?label rng prof =
  let m = Engine.Profile.instance prof in
  let strategies =
    List.init 3 (fun _ ->
        random_tuple rng (Defender.Model.graph m) (Defender.Model.k m))
  in
  check_same_queries ?label ~strategies (Engine.Profile.rescan prof) prof

(* Assert the kernel of [prof] answers like a kernel built from scratch
   on the same strategies (catches drift in incremental patches that the
   naive comparison alone would also catch, but localizes it to the
   patch).  Every table entry is one vertex or edge query. *)
let check_kernel_vs_fresh ?(label = "") prof =
  let fresh =
    Engine.Profile.make_mixed (Engine.Profile.instance prof)
      ~vp:(Array.to_list (Engine.Profile.vp_strategies prof))
      ~tp:(Engine.Profile.tp_strategy prof)
  in
  check_same_queries ~label:(label ^ "fresh rebuild: ") fresh prof

(* Replay a deviation chain from [Profile.rescan start]: every step must
   answer every query exactly as the kernel chain's profile at that step
   ([chain] pairs each deviation with that profile), and the replay
   must re-scan without building or patching a kernel. *)
let check_rescan_replay ~label start chain =
  let counters =
    with_counters (fun () ->
        ignore
          (List.fold_left
             (fun (step, prof) (deviate, kernel_prof) ->
               let prof = deviate prof in
               check_same_queries
                 ~label:(Printf.sprintf "%s rescan step %d: " label step)
                 ~strategies:(Engine.Profile.tp_support kernel_prof)
                 kernel_prof prof;
               (step + 1, prof))
             (1, Engine.Profile.rescan start)
             chain))
  in
  let count name = Option.value ~default:0 (List.assoc_opt name counters) in
  Alcotest.(check bool)
    (label ^ " rescan replay counts rescans")
    true
    (count "kernel.naive_rescans" > 0);
  List.iter
    (fun name ->
      Alcotest.(check int) (Printf.sprintf "%s rescan replay %s" label name) 0
        (count name))
    [ "kernel.builds"; "kernel.vp_patches"; "kernel.tp_patches"; "kernel.cow_cells" ]

(* --- fresh profiles --- *)

let test_fresh_profiles () =
  let rng = Prng.Rng.create 1337 in
  for i = 1 to 40 do
    let _, prof = random_model_profile rng in
    check_kernel_vs_naive ~label:(Printf.sprintf "fresh %d: " i) rng prof
  done

(* --- deviation chains --- *)

(* Run [steps] deviations drawn by [next] from a random profile, checking
   each step against the oracle and a fresh rebuild, then replay the
   chain from the start profile's rescan twin. *)
let run_chain ~name ~seed ~steps next =
  let rng = Prng.Rng.create seed in
  for i = 1 to 15 do
    let m, start = random_model_profile rng in
    let prof = ref start and chain = ref [] in
    for step = 1 to steps do
      let deviate = next rng m in
      prof := deviate !prof;
      chain := (deviate, !prof) :: !chain;
      let label = Printf.sprintf "%s %d step %d: " name i step in
      check_kernel_vs_naive ~label rng !prof;
      check_kernel_vs_fresh ~label !prof
    done;
    check_rescan_replay ~label:(Printf.sprintf "%s %d" name i) start
      (List.rev !chain)
  done

let vp_deviation rng m =
  let player = Prng.Rng.int rng (Defender.Model.nu m) in
  let d = random_finite rng (Defender.Model.graph m) in
  fun prof -> Engine.Profile.replace_vp prof player d

let tp_deviation rng m =
  let tp = random_tp rng (Defender.Model.graph m) (Defender.Model.k m) in
  fun prof -> Engine.Profile.replace_tp prof tp

let test_replace_vp_chain () =
  run_chain ~name:"vp chain" ~seed:7001 ~steps:8 vp_deviation

let test_replace_tp_chain () =
  run_chain ~name:"tp chain" ~seed:7002 ~steps:5 tp_deviation

let test_interleaved_chain () =
  run_chain ~name:"mixed chain" ~seed:7003 ~steps:10 (fun rng m ->
      if Prng.Rng.int rng 2 = 0 then vp_deviation rng m else tp_deviation rng m)

(* --- derived consumers agree across both paths --- *)

let test_consumers_agree () =
  let rng = Prng.Rng.create 7004 in
  for _ = 1 to 20 do
    let _, prof = random_model_profile rng in
    let rescan = Engine.Profile.rescan prof in
    Alcotest.check q "vp_best_value naive = kernel"
      (Engine.Best_response.vp_best_value rescan)
      (Engine.Best_response.vp_best_value prof);
    Alcotest.check q "tp_best_value naive = kernel"
      (Engine.Best_response.tp_best_value_exhaustive rescan)
      (Engine.Best_response.tp_best_value_exhaustive prof);
    let upper_bound p =
      Defender.Tuple_game.value_upper_bound (Engine.Profile.instance p)
        ~load:(Engine.Profile.expected_load p)
        ~edge_load:(Engine.Profile.expected_load_edge p)
    in
    Alcotest.check q "tp_upper_bound naive = kernel" (upper_bound rescan)
      (upper_bound prof);
    Alcotest.check q "expected_tp naive = kernel"
      (Engine.Profit.expected_tp rescan)
      (Engine.Profit.expected_tp prof);
    let exhaustive = Engine.Verify.Exhaustive in
    Alcotest.(check bool) "characterization naive = kernel" true
      (Defender.Characterization.holds exhaustive rescan
      = Defender.Characterization.holds exhaustive prof);
    List.iter
      (fun (name, mode) ->
        Alcotest.(check string)
          (Printf.sprintf "mixed_ne %s naive = kernel" name)
          (Engine.Verify.verdict_to_string (Engine.Verify.mixed_ne mode rescan))
          (Engine.Verify.verdict_to_string (Engine.Verify.mixed_ne mode prof)))
      [ ("exhaustive", exhaustive); ("certificate", Engine.Verify.Certificate);
        ("oracle", Engine.Verify.Oracle) ]
  done

(* --- kernel primitives --- *)

let test_vertex_incidence_sums () =
  (* P4: edges e0=(0,1), e1=(1,2), e2=(2,3) played with probabilities
     1/2, 1/3, 1/6: the hit probability of a vertex is the sum over its
     incident edges, in the kernel table and on a re-scan alike. *)
  let g = Gen.path 4 in
  let m = Defender.Model.make ~graph:g ~nu:1 ~k:1 in
  let prof =
    Engine.Profile.make_mixed m ~vp:[ Dist.Finite.point 0 ]
      ~tp:
        (List.map2
           (fun id p -> (Defender.Tuple.of_list g [ id ], p))
           [ 0; 1; 2 ]
           [ Q.make 1 2; Q.make 1 3; Q.make 1 6 ])
  in
  List.iter
    (fun p ->
      Alcotest.check q "v0" (Q.make 1 2) (Engine.Profile.hit_prob p 0);
      Alcotest.check q "v1" (Q.add (Q.make 1 2) (Q.make 1 3)) (Engine.Profile.hit_prob p 1);
      Alcotest.check q "v2" (Q.add (Q.make 1 3) (Q.make 1 6)) (Engine.Profile.hit_prob p 2);
      Alcotest.check q "v3" (Q.make 1 6) (Engine.Profile.hit_prob p 3))
    [ prof; Engine.Profile.rescan prof ]

(* --- fictitious play: incremental vs history-rescanning naive mode --- *)

let fictitious_results_equal a b =
  let open Sim_tuple.Fictitious in
  a.rounds = b.rounds
  && a.avg_gain = b.avg_gain
  && a.tail_avg_gain = b.tail_avg_gain
  && a.attack_frequency = b.attack_frequency
  && a.scan_frequency = b.scan_frequency
  && a.gain_series = b.gain_series

let test_fictitious_naive_identical () =
  let configs =
    [
      (Gen.path 6, 3, 2, 60);
      (Gen.cycle 8, 4, 2, 60);
      (Gen.grid 3 4, 5, 3, 40);
    ]
  in
  List.iter
    (fun (g, nu, k, rounds) ->
      let m = Defender.Model.make ~graph:g ~nu ~k in
      let incremental =
        Sim_tuple.Fictitious.run (Prng.Rng.create 99) m ~rounds
      in
      let naive =
        Sim_tuple.Fictitious.run ~naive:true (Prng.Rng.create 99) m ~rounds
      in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d bit-for-bit identical" (Graph.n g))
        true
        (fictitious_results_equal incremental naive))
    configs

(* --- greedy_response guard regressions --- *)

let test_greedy_response_guards () =
  let greedy_response = Defender.Tuple_game.greedy_edges in
  let g = Gen.path 3 in
  (* m = 2 edges.  k out of range raises instead of looping/crashing. *)
  Alcotest.check_raises "k = 0"
    (Invalid_argument "Tuple_game.greedy_response: k = 0 outside [1, m = 2]")
    (fun () -> ignore (greedy_response g 0 [| 0; 0; 0 |]));
  Alcotest.check_raises "k > m"
    (Invalid_argument "Tuple_game.greedy_response: k = 3 outside [1, m = 2]")
    (fun () -> ignore (greedy_response g 3 [| 0; 0; 0 |]));
  (* All-zero loads: every pick ties at gain 0, still a valid k-tuple. *)
  let t = greedy_response g 2 [| 0; 0; 0 |] in
  Alcotest.(check int) "zero loads: full tuple" 2
    (List.length (Defender.Tuple.to_list t));
  (* Negative loads: every gain is below the -1 sentinel, so the old code
     indexed Graph.edge g (-1); the fallback must pick remaining edges. *)
  let t = greedy_response g 2 [| -5; -5; -5 |] in
  Alcotest.(check int) "negative loads: full tuple" 2
    (List.length (Defender.Tuple.to_list t));
  (* Second pass of k=2 on a star: after the first pick covers the hub,
     remaining gains are all 0 (> -1), fine; with negative leaf loads the
     sentinel path triggers on the second pick. *)
  let s = Gen.star 4 in
  let t = greedy_response s 2 [| 10; -3; -3; -3 |] in
  Alcotest.(check int) "sentinel on second pick: full tuple" 2
    (List.length (Defender.Tuple.to_list t))

(* --- Finite error attribution --- *)

let test_finite_error_attribution () =
  Alcotest.check_raises "make attributes itself"
    (Invalid_argument "Finite.make: negative probability") (fun () ->
      ignore (Dist.Finite.make [ (0, Q.make 1 2); (1, Q.make (-1) 2) ]));
  Alcotest.check_raises "make reports bad sum"
    (Invalid_argument "Finite.make: probabilities sum to 1/2, not 1")
    (fun () -> ignore (Dist.Finite.make [ (0, Q.make 1 2) ]));
  (* map routes through the shared builder with its own caller name; a
     merging map must stay a valid distribution. *)
  let d = Dist.Finite.make [ (0, Q.make 1 3); (1, Q.make 2 3) ] in
  let merged = Dist.Finite.map d ~f:(fun _ -> 7) in
  Alcotest.check q "map merges mass" Q.one (Dist.Finite.prob merged 7)

let () =
  Alcotest.run "kernel"
    [
      ( "kernel = naive (exact)",
        [
          Alcotest.test_case "fresh profiles" `Quick test_fresh_profiles;
          Alcotest.test_case "replace_vp chains" `Quick test_replace_vp_chain;
          Alcotest.test_case "replace_tp chains" `Quick test_replace_tp_chain;
          Alcotest.test_case "interleaved chains" `Quick test_interleaved_chain;
          Alcotest.test_case "consumers agree" `Quick test_consumers_agree;
          Alcotest.test_case "vertex incidence sums" `Quick
            test_vertex_incidence_sums;
        ] );
      ( "fictitious play",
        [
          Alcotest.test_case "naive mode bit-for-bit" `Quick
            test_fictitious_naive_identical;
          Alcotest.test_case "greedy_response guards" `Quick
            test_greedy_response_guards;
        ] );
      ( "dist",
        [
          Alcotest.test_case "error attribution" `Quick
            test_finite_error_attribution;
        ] );
    ]
