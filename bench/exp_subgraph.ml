(* Experiment family S: the connected-subgraph defender (Akrida et al.,
   arXiv:1906.02774) driven through the same functorized engine as the
   tuple game.  S1 is the exact story: on cycles the uniform rotation
   of lambda-arcs is a verified mixed Nash equilibrium whose price of
   defense is exactly n/lambda, and on other Tier-1 families the greedy
   defender is gated against the top-lambda load certificate.  S2 is
   the dynamic story: fictitious play's tail-average defender gain
   converges to the equilibrium value nu*lambda/n on cycles. *)

open Netgraph
open Exp_util
module E = Harness.Experiment
module SG = Defender.Subgraph_game
module Engine = Defender.Subgraph_instance.Engine
module Q = Exact.Q

let all_strategies inst =
  List.rev (SG.fold_strategies inst ~init:[] ~f:(fun acc s -> s :: acc))

(* S1 — uniform rotation equilibrium and price of defense on cycles.
   The connected lambda-subsets of C_n (lambda < n) are exactly the n
   arcs, each vertex lies on lambda of them, so uniform-arcs vs
   uniform-vertices equalizes both sides: a mixed NE with defender gain
   nu*lambda/n and PoD = nu / gain = n/lambda. *)
let s1 ctx =
  let nu = 4 in
  let ns = if E.is_smoke ctx then [ 5; 6; 8 ] else [ 5; 6; 8; 10; 12; 16; 24 ] in
  let lambdas = [ 1; 2; 3 ] in
  let table =
    Harness.Table.create ~title:"S1: connected-subgraph defender on cycles"
      ~columns:[ "n"; "lambda"; "|Sigma_l|"; "NE"; "gain"; "PoD"; "n/lambda" ]
  in
  List.iter
    (fun n ->
      List.iter
        (fun lambda ->
          if lambda < n then begin
            let inst = SG.make ~graph:(Gen.cycle n) ~nu ~lambda in
            let arcs = all_strategies inst in
            ignore
              (E.check ctx
                 ~label:
                   (Printf.sprintf "S1 C%d lambda=%d: %d rotation arcs" n
                      lambda n)
                 (List.length arcs = n));
            let profile =
              Engine.Profile.uniform inst
                ~vp_support:(List.init n Fun.id)
                ~tp_support:arcs
            in
            let verdict =
              Engine.Verify.mixed_ne Engine.Verify.Exhaustive profile
            in
            ignore
              (E.check ctx
                 ~label:
                   (Printf.sprintf
                      "S1 C%d lambda=%d: uniform rotation verified NE" n
                      lambda)
                 (Engine.Verify.verdict_is_confirmed verdict));
            let gain = Engine.Profit.expected_tp profile in
            ignore
              (E.check ctx
                 ~label:
                   (Printf.sprintf "S1 C%d lambda=%d: gain = nu*lambda/n" n
                      lambda)
                 (Q.equal gain (Q.make (nu * lambda) n)));
            let pod = Q.div (Q.of_int nu) gain in
            ignore
              (E.check ctx
                 ~label:
                   (Printf.sprintf "S1 C%d lambda=%d: PoD = n/lambda" n lambda)
                 (Q.equal pod (Q.make n lambda)));
            Harness.Table.add_row table
              [
                string_of_int n;
                string_of_int lambda;
                string_of_int (List.length arcs);
                Engine.Verify.verdict_to_string verdict;
                q_str gain;
                q_str pod;
                q_str (Q.make n lambda);
              ]
          end)
        lambdas)
    ns;
  E.out ctx (Harness.Table.to_string table);
  (* Certificate gate on non-transitive families: against the uniform
     vertex-player profile, the greedy connected subgraph never beats
     the top-lambda vertex-load bound, and its gain is monotone
     nondecreasing in lambda (a larger connected subgraph can only
     cover more). *)
  let families =
    [
      ("star 9", Gen.star 9);
      ("path 8", Gen.path 8);
      ("wheel 8", Gen.wheel 8);
      ("petersen", Gen.petersen ());
    ]
  in
  List.iter
    (fun (name, g) ->
      let n = Graph.n g in
      let prev = ref Q.zero in
      let monotone = ref true and bounded = ref true in
      List.iter
        (fun lambda ->
          let inst = SG.make ~graph:g ~nu ~lambda in
          let profile =
            Engine.Profile.uniform inst ~vp_support:(List.init n Fun.id)
              ~tp_support:[ SG.round_robin inst ~round:0 ]
          in
          let load = Engine.Profile.expected_load profile in
          let greedy =
            SG.greedy_response inst ~load:(Array.init n (Engine.Profile.expected_load profile))
          in
          let gain = Engine.Profile.expected_load_strategy profile greedy in
          let bound =
            SG.value_upper_bound inst ~load
              ~edge_load:(Engine.Profile.expected_load_edge profile)
          in
          if Q.( < ) gain !prev then monotone := false;
          if Q.( < ) bound gain then bounded := false;
          prev := gain)
        [ 1; 2; 3; 4 ];
      ignore
        (E.check ctx
           ~label:(Printf.sprintf "S1 %s: greedy gain <= top-lambda bound" name)
           !bounded);
      ignore
        (E.check ctx
           ~label:(Printf.sprintf "S1 %s: greedy gain monotone in lambda" name)
           !monotone))
    families;
  E.out ctx "\n";
  E.measure ctx "cycle_sizes" (E.Int (List.length ns))

(* S2 — fictitious play on the subgraph game.  On C_n with lambda-arcs
   the equilibrium defender gain is nu*lambda/n; the tail average of
   the empirical play should land near it (tolerances match F6's
   smoke/full split, loosened for the coarser dynamics). *)
let s2 ctx =
  let rounds = if E.is_smoke ctx then 1_500 else 20_000 in
  let tolerance_pct = if E.is_smoke ctx then 20.0 else 10.0 in
  let cases =
    [ ("C6 nu=4 lambda=2", 6, 4, 2); ("C8 nu=3 lambda=3", 8, 3, 3) ]
  in
  let results =
    List.map
      (fun (name, n, nu, lambda) ->
        let inst = SG.make ~graph:(Gen.cycle n) ~nu ~lambda in
        let r =
          Sim.Sim_instance.Subgraph.Fictitious.run (Prng.Rng.create 11) inst
            ~rounds
        in
        let expected = float_of_int (nu * lambda) /. float_of_int n in
        (name, expected, r))
      cases
  in
  let named =
    List.map
      (fun (name, _, r) ->
        let module F = Sim.Sim_instance.Subgraph.Fictitious in
        let series =
          List.filter_map
            (fun i ->
              let idx = (i * r.F.rounds / 12) - 1 in
              if idx >= 1 then
                Some (float_of_int (idx + 1), r.F.gain_series.(idx))
              else None)
            (List.init 13 Fun.id)
        in
        (name, series))
      results
  in
  E.out ctx
    (Harness.Table.multi_series
       ~title:"S2: fictitious play on the subgraph game — prefix-average gain"
       ~x_label:"round" ~y_label:"average gain" named);
  List.iter
    (fun (name, expected, r) ->
      let module F = Sim.Sim_instance.Subgraph.Fictitious in
      let tail = r.F.tail_avg_gain in
      let err_pct = 100.0 *. abs_float (tail -. expected) /. expected in
      ignore
        (E.check ctx
           ~label:(Printf.sprintf "S2 %s: tail average converges" name)
           (err_pct <= tolerance_pct));
      E.measure ctx
        (Printf.sprintf "tail_error_pct_%s" (String.sub name 0 2))
        (E.Float err_pct);
      E.outf ctx "  %-24s tail average %.4f vs predicted %.4f (error %.2f%%)\n"
        name tail expected err_pct)
    results;
  E.out ctx "\n";
  E.measure ctx "rounds" (E.Int rounds)

let register () =
  let r ~id ~claim ~expected run =
    Harness.Registry.register
      {
        Harness.Experiment.id;
        tag = Harness.Experiment.Extension;
        claim;
        expected;
        game = "subgraph";
        run;
      }
  in
  r ~id:"S1"
    ~claim:"subgraph defender: uniform rotation is an NE on cycles, PoD = n/lambda"
    ~expected:"verified mixed NE with gain nu*lambda/n; greedy within certificate bound"
    s1;
  r ~id:"S2"
    ~claim:"subgraph defender: fictitious play converges to the cycle NE value"
    ~expected:"tail-average defender gain near nu*lambda/n" s2
