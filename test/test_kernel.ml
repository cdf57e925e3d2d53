(* Property tests for the incremental exact-payoff kernel: every kernel
   query must be *exactly* equal (Q.equal, no tolerance) to the naive
   support-rescanning oracle, on fresh profiles and after arbitrary chains
   of replace_vp / replace_tp.  Also covers the fictitious-play
   incremental-vs-naive equivalence and the greedy_response guard
   regressions. *)

open Netgraph
module Q = Exact.Q
module Engine = Defender.Tuple_instance.Engine
module K = Engine.Kernel
module Sim_tuple = Sim.Sim_instance.Tuple

let q = Alcotest.testable Q.pp Q.equal

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

(* Assert every kernel query on [prof] equals the naive oracle exactly. *)
let check_kernel_vs_naive ?(label = "") rng prof =
  let m = Engine.Profile.instance prof in
  let g = Defender.Model.graph m in
  for v = 0 to Graph.n g - 1 do
    Alcotest.check q
      (Printf.sprintf "%shit_prob %d" label v)
      (Engine.Profile.hit_prob ~naive:true prof v)
      (Engine.Profile.hit_prob prof v);
    Alcotest.check q
      (Printf.sprintf "%sexpected_load %d" label v)
      (Engine.Profile.expected_load ~naive:true prof v)
      (Engine.Profile.expected_load prof v)
  done;
  for id = 0 to Graph.m g - 1 do
    Alcotest.check q
      (Printf.sprintf "%sexpected_load_edge %d" label id)
      (Engine.Profile.expected_load_edge ~naive:true prof id)
      (Engine.Profile.expected_load_edge prof id)
  done;
  for _ = 1 to 3 do
    let t = random_tuple rng g (Defender.Model.k m) in
    Alcotest.check q
      (Printf.sprintf "%sexpected_load_tuple" label)
      (Engine.Profile.expected_load_strategy ~naive:true prof t)
      (Engine.Profile.expected_load_strategy prof t)
  done

(* Assert the kernel of [prof] has the same tables as a kernel built from
   scratch on the same strategies (catches drift in incremental patches
   that the naive comparison alone would also catch, but localizes it to
   the table level). *)
let check_kernel_vs_fresh ?(label = "") prof =
  let fresh =
    Engine.Profile.make_mixed (Engine.Profile.instance prof)
      ~vp:(Array.to_list (Engine.Profile.vp_strategies prof))
      ~tp:(Engine.Profile.tp_strategy prof)
  in
  let tables k =
    ( K.hit_table_copy k, K.load_table_copy k, K.edge_load_table_copy k )
  in
  let h1, l1, e1 = tables (Engine.Profile.kernel prof) in
  let h2, l2, e2 = tables (Engine.Profile.kernel fresh) in
  let eq name a b =
    Alcotest.(check bool)
      (Printf.sprintf "%s%s table = fresh rebuild" label name)
      true
      (Array.length a = Array.length b && Array.for_all2 Q.equal a b)
  in
  eq "hit" h1 h2;
  eq "load" l1 l2;
  eq "edge_load" e1 e2

(* --- fresh profiles --- *)

let test_fresh_profiles () =
  let rng = Prng.Rng.create 1337 in
  for i = 1 to 40 do
    let _, prof = random_model_profile rng in
    check_kernel_vs_naive ~label:(Printf.sprintf "fresh %d: " i) rng prof
  done

(* --- replace_vp chains --- *)

let test_replace_vp_chain () =
  let rng = Prng.Rng.create 7001 in
  for i = 1 to 15 do
    let m, prof = random_model_profile rng in
    let g = Defender.Model.graph m in
    let nu = Defender.Model.nu m in
    let prof = ref prof in
    for step = 1 to 8 do
      let player = Prng.Rng.int rng nu in
      prof := Engine.Profile.replace_vp !prof player (random_finite rng g);
      let label = Printf.sprintf "vp chain %d step %d: " i step in
      check_kernel_vs_naive ~label rng !prof;
      check_kernel_vs_fresh ~label !prof
    done
  done

(* --- replace_tp chains --- *)

let test_replace_tp_chain () =
  let rng = Prng.Rng.create 7002 in
  for i = 1 to 15 do
    let m, prof = random_model_profile rng in
    let g = Defender.Model.graph m in
    let k = Defender.Model.k m in
    let prof = ref prof in
    for step = 1 to 5 do
      prof := Engine.Profile.replace_tp !prof (random_tp rng g k);
      let label = Printf.sprintf "tp chain %d step %d: " i step in
      check_kernel_vs_naive ~label rng !prof;
      check_kernel_vs_fresh ~label !prof
    done
  done

(* --- interleaved deviations --- *)

let test_interleaved_chain () =
  let rng = Prng.Rng.create 7003 in
  for i = 1 to 15 do
    let m, prof = random_model_profile rng in
    let g = Defender.Model.graph m in
    let nu = Defender.Model.nu m in
    let k = Defender.Model.k m in
    let prof = ref prof in
    for step = 1 to 10 do
      (if Prng.Rng.int rng 2 = 0 then
         let player = Prng.Rng.int rng nu in
         prof := Engine.Profile.replace_vp !prof player (random_finite rng g)
       else prof := Engine.Profile.replace_tp !prof (random_tp rng g k));
      let label = Printf.sprintf "mixed chain %d step %d: " i step in
      check_kernel_vs_naive ~label rng !prof;
      check_kernel_vs_fresh ~label !prof
    done
  done

(* --- derived consumers agree across both paths --- *)

let test_consumers_agree () =
  let rng = Prng.Rng.create 7004 in
  for _ = 1 to 20 do
    let _, prof = random_model_profile rng in
    Alcotest.check q "vp_best_value naive = kernel"
      (Engine.Best_response.vp_best_value ~naive:true prof)
      (Engine.Best_response.vp_best_value prof);
    Alcotest.check q "tp_best_value naive = kernel"
      (Engine.Best_response.tp_best_value_exhaustive ~naive:true prof)
      (Engine.Best_response.tp_best_value_exhaustive prof);
    Alcotest.check q "expected_tp naive = kernel"
      (Engine.Profit.expected_tp ~naive:true prof)
      (Engine.Profit.expected_tp prof);
    let exhaustive = Engine.Verify.Exhaustive 500_000 in
    Alcotest.(check bool) "characterization naive = kernel" true
      (Defender.Characterization.holds ~naive:true exhaustive prof
      = Defender.Characterization.holds exhaustive prof);
    Alcotest.(check bool) "mixed_ne naive = kernel" true
      (Engine.Verify.verdict_is_confirmed
         (Engine.Verify.mixed_ne ~naive:true exhaustive prof)
      = Engine.Verify.verdict_is_confirmed
          (Engine.Verify.mixed_ne exhaustive prof))
  done

(* --- kernel primitives --- *)

let test_vertex_incidence_sums () =
  (* P4: edges e0=(0,1), e1=(1,2), e2=(2,3); weights 1/2, 1/3, 1/5. *)
  let g = Gen.path 4 in
  let w = [| Q.make 1 2; Q.make 1 3; Q.make 1 5 |] in
  let sums = Defender.Minimax.vertex_incidence_sums g w in
  Alcotest.check q "v0" (Q.make 1 2) sums.(0);
  Alcotest.check q "v1" (Q.add (Q.make 1 2) (Q.make 1 3)) sums.(1);
  Alcotest.check q "v2" (Q.add (Q.make 1 3) (Q.make 1 5)) sums.(2);
  Alcotest.check q "v3" (Q.make 1 5) sums.(3);
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Payoff_kernel.vertex_incidence_sums: need one weight per edge")
    (fun () -> ignore (Defender.Minimax.vertex_incidence_sums g [| Q.one |]))

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
  let greedy_response =
    Defender.Tuple_game.greedy_edges ~err:"Fictitious.greedy_response"
  in
  let g = Gen.path 3 in
  (* m = 2 edges.  k out of range raises instead of looping/crashing. *)
  Alcotest.check_raises "k = 0"
    (Invalid_argument "Fictitious.greedy_response: k = 0 outside [1, m = 2]")
    (fun () -> ignore (greedy_response g 0 [| 0; 0; 0 |]));
  Alcotest.check_raises "k > m"
    (Invalid_argument "Fictitious.greedy_response: k = 3 outside [1, m = 2]")
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
