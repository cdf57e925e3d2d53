(* Figure experiments F1-F6: scaling and series claims, rendered as ASCII
   charts with fitted slopes/exponents.  Registered as Harness.Experiment
   descriptors: full-scale text is unchanged, wall-clock points land in
   the JSON artifact as timing stats, and the fitted slopes/exponents are
   recorded as measures with range checks (timing-sensitive checks run at
   full scale only — smoke boxes are too noisy to gate on). *)

open Netgraph
open Exp_util
module E = Harness.Experiment
module Q = Exact.Q
module Engine = Defender.Tuple_instance.Engine
module Sim_tuple = Sim.Sim_instance.Tuple

(* log-log exponent, guarded: smoke-scale timings can hit 0.0 ms, which
   Stats.power_law_exponent rejects. *)
let safe_exponent points =
  if List.for_all (fun (x, y) -> x > 0.0 && y > 0.0) points then
    Harness.Stats.power_law_exponent points
  else nan

(* F1 — Theorem 4.13: A_tuple runs in O(k*n).  Two series: time vs n at
   fixed k (expect linear, log-log exponent ~1) and time vs k at fixed n
   (the cyclic-lift step in isolation, where the O(k*n) term lives). *)
let f1 ctx =
  (* time vs n on stars: partition is leaves, |IS| = n-1, k fixed. *)
  let k = 8 in
  let ns =
    if E.is_smoke ctx then [ 100; 200; 400 ]
    else [ 200; 400; 800; 1600; 3200; 6400 ]
  in
  let repeat = if E.is_smoke ctx then 3 else 5 in
  let vs_n =
    List.map
      (fun n ->
        let g = Gen.star n in
        let m = model ~g ~nu:4 ~k in
        let p = Defender.Matching_nash.partition_of_is g (List.init (n - 1) (fun i -> i + 1)) in
        ignore (ok (Defender.Tuple_nash.a_tuple m p));
        Gc.full_major ();
        let st =
          Harness.Timer.time_stats ~repeat (fun () ->
              ignore (ok (Defender.Tuple_nash.a_tuple m p)))
        in
        E.record_timing ctx (Printf.sprintf "a_tuple_n%d" n) st;
        (float_of_int n, st.Harness.Timer.median *. 1e3))
      ns
  in
  (* time vs k at fixed n: the cyclic construction on a fixed edge list.
     The lift builds lcm(E_num, k) edge slots, so the O(k*n) worst case
     needs gcd(E_num, k) = 1: take E_num = 3989 (prime), making every k
     in the sweep coprime to it. *)
  let n = if E.is_smoke ctx then 500 else 3990 in
  let g = Gen.star n in
  let edges = List.init (n - 1) Fun.id in
  let ks = if E.is_smoke ctx then [ 2; 4; 8 ] else [ 2; 4; 8; 16; 32; 64 ] in
  let vs_k =
    List.map
      (fun k ->
        let st =
          Harness.Timer.time_stats ~repeat (fun () ->
              ignore (Defender.Tuple_nash.cyclic_tuples g edges ~k))
        in
        E.record_timing ctx (Printf.sprintf "cyclic_lift_k%d" k) st;
        (float_of_int k, st.Harness.Timer.median *. 1e3))
      ks
  in
  E.out ctx
    (Harness.Table.series ~title:"F1a: A_tuple wall time vs n (k = 8, star graphs)"
       ~x_label:"n" ~y_label:"ms" vs_n);
  let fit_n = Harness.Stats.linear_fit vs_n in
  let exponent_n = safe_exponent vs_n in
  E.outf ctx
    "F1a log-log exponent: %.3f; affine fit R^2 = %.4f (paper: linear in n)\n\n"
    exponent_n fit_n.Harness.Stats.r_squared;
  E.out ctx
    (Harness.Table.series ~title:"F1b: cyclic-lift wall time vs k (E_num = 3989, prime)"
       ~x_label:"k" ~y_label:"ms" vs_k);
  let fit_k = Harness.Stats.linear_fit vs_k in
  E.outf ctx
    "F1b affine fit: %.4f ms/k + %.4f ms, R^2 = %.4f (paper: O(k*n) — linear in k \
     with a\n    per-tuple constant term, delta = E_num tuples regardless of k \
     here)\n\n"
    fit_k.Harness.Stats.slope fit_k.Harness.Stats.intercept
    fit_k.Harness.Stats.r_squared;
  E.measure ctx "loglog_exponent_vs_n" (E.Float exponent_n);
  E.measure ctx "slope_ms_per_k" (E.Float fit_k.Harness.Stats.slope);
  if not (E.is_smoke ctx) then begin
    (* timing checks are meaningful only at full scale *)
    ignore
      (E.check ctx ~label:"F1a: exponent consistent with linear growth"
         (exponent_n >= 0.5 && exponent_n <= 1.6));
    ignore
      (E.check ctx ~label:"F1b: time increases with k"
         (fit_k.Harness.Stats.slope > 0.0))
  end

(* F2 — Theorem 5.1: the bipartite pipeline is polynomial,
   max{O(kn), O(m sqrt n)}.  Time vs n on random bipartite graphs of
   constant average degree. *)
let f2 ctx =
  let rng = Prng.Rng.create 808 in
  let sizes =
    if E.is_smoke ctx then [ 100; 200 ] else [ 200; 400; 800; 1600; 3200 ]
  in
  let repeat = if E.is_smoke ctx then 3 else 5 in
  let series =
    List.map
      (fun half ->
        let g = Gen.random_bipartite rng ~a:half ~b:half ~p:(8.0 /. float_of_int half) in
        let feasible = Defender.Pipeline.max_feasible_k g in
        let k = max 1 (min 6 feasible) in
        let m = model ~g ~nu:4 ~k in
        (* settle the heap and warm caches so the median measures the
           algorithm, not the first major GC cycle *)
        ignore (ok (Defender.Pipeline.solve m));
        Gc.full_major ();
        let st =
          Harness.Timer.time_stats ~repeat (fun () ->
              ignore (ok (Defender.Pipeline.solve m)))
        in
        E.record_timing ctx (Printf.sprintf "pipeline_n%d" (Graph.n g)) st;
        (float_of_int (Graph.n g), st.Harness.Timer.median *. 1e3))
      sizes
  in
  let exponent = safe_exponent series in
  E.out ctx
    (Harness.Table.series
       ~title:"F2: bipartite pipeline wall time vs n (random bipartite, ~8 avg degree)"
       ~x_label:"n" ~y_label:"ms" series);
  E.outf ctx
    "F2 log-log exponent: %.3f (paper bound max{O(kn), O(m sqrt n)}: anything in \
     ~[1.0, 1.5]\n    is consistent — Hopcroft-Karp rarely exhibits its sqrt(n) \
     phase count on random inputs)\n\n"
    exponent;
  E.measure ctx "loglog_exponent" (E.Float exponent);
  if not (E.is_smoke ctx) then
    ignore
      (E.check ctx ~label:"F2: exponent consistent with the polynomial bound"
         (exponent >= 0.5 && exponent <= 2.0))

(* F3 — the headline: defender gain linear in k, slope nu/|IS|, on several
   topologies; analytic (exact) and simulated series coincide. *)
let f3 ctx =
  let nu = 6 in
  let sim_rounds = if E.is_smoke ctx then 2_000 else 8_000 in
  let topologies =
    [
      ("path-10", Gen.path 10);
      ("cycle-12", Gen.cycle 12);
      ("star-9", Gen.star 9);
      ("grid-3x4", Gen.grid 3 4);
      ("K(4,5)", Gen.complete_bipartite 4 5);
    ]
  in
  let named_series =
    List.filter_map
      (fun (name, g) ->
        match Defender.Matching_nash.solve_auto (model ~g ~nu ~k:1) with
        | Error _ -> None
        | Ok edge_prof ->
            let is_size = List.length (Engine.Profile.vp_support_union edge_prof) in
            let points =
              List.init is_size (fun i ->
                  let k = i + 1 in
                  let lifted = ok (Defender.Reduction.edge_to_tuple ~k edge_prof) in
                  (float_of_int k, Q.to_float (Defender.Gain.defender_gain lifted)))
            in
            Some (name, is_size, points))
      topologies
  in
  E.out ctx
    (Harness.Table.multi_series ~title:"F3: the power of the defender — gain vs k"
       ~x_label:"k (links scanned)" ~y_label:"expected attackers arrested"
       (List.map (fun (n, _, p) -> (n, p)) named_series));
  List.iter
    (fun (name, is_size, points) ->
      if List.length points >= 2 then begin
        let fit = Harness.Stats.linear_fit points in
        let predicted = float_of_int nu /. float_of_int is_size in
        ignore
          (E.check ctx
             ~label:(Printf.sprintf "F3 %s: gain linear in k, slope nu/|IS|" name)
             (Harness.Stats.is_linear points
             && abs_float (fit.Harness.Stats.slope -. predicted) < 1e-9));
        E.measure ctx ("slope_" ^ name) (E.Float fit.Harness.Stats.slope);
        E.outf ctx
          "  %-10s slope %.4f (predicted nu/|IS| = %.4f), R^2 = %.9f, linear: %s\n"
          name fit.Harness.Stats.slope predicted
          fit.Harness.Stats.r_squared
          (yesno (Harness.Stats.is_linear points))
      end)
    named_series;
  (* one simulated series to show the empirical curve lies on the line *)
  (match named_series with
  | (name, _, _) :: _ ->
      let g = List.assoc name topologies in
      let edge_prof = ok (Defender.Matching_nash.solve_auto (model ~g ~nu ~k:1)) in
      let is_size = List.length (Engine.Profile.vp_support_union edge_prof) in
      let simulated =
        List.init is_size (fun i ->
            let k = i + 1 in
            let lifted = ok (Defender.Reduction.edge_to_tuple ~k edge_prof) in
            let stats =
              Sim_tuple.Engine.play (Prng.Rng.create (k * 17)) lifted ~rounds:sim_rounds
            in
            (float_of_int k, stats.Sim_tuple.Engine.mean_caught))
      in
      let fit = Harness.Stats.linear_fit simulated in
      if not (E.is_smoke ctx) then
        ignore
          (E.check ctx
             ~label:(Printf.sprintf "F3 %s: simulated series lies on the line" name)
             (fit.Harness.Stats.r_squared > 0.999));
      E.measure ctx "simulated_r_squared" (E.Float fit.Harness.Stats.r_squared);
      E.outf ctx
        "  %-10s SIMULATED slope %.4f, R^2 = %.6f (sampling noise only)\n" name
        fit.Harness.Stats.slope fit.Harness.Stats.r_squared
  | [] -> ());
  E.out ctx "\n";
  E.measure ctx "sim_rounds" (E.Int sim_rounds)

(* F4 — flip side of Theorem 3.1: the class of graphs admitting pure NE
   grows with k.  Fraction of connected G(n,p) samples with rho(G) <= k. *)
let f4 ctx =
  let rng = Prng.Rng.create 246 in
  let n = 14 in
  let samples = if E.is_smoke ctx then 60 else 300 in
  let graphs =
    List.init samples (fun _ -> Gen.gnp_connected rng ~n ~p:0.25)
  in
  let rhos = List.map Matching.Edge_cover.rho graphs in
  let points =
    List.map
      (fun k ->
        let admitting = List.length (List.filter (fun r -> r <= k) rhos) in
        (float_of_int k, float_of_int admitting /. float_of_int samples))
      [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
  in
  E.out ctx
    (Harness.Table.series
       ~title:
         (Printf.sprintf
            "F4: fraction of connected G(%d, 0.25) samples admitting a pure NE vs k"
            n)
       ~x_label:"k" ~y_label:"fraction with rho <= k" points);
  let monotone =
    let rec check = function
      | (_, a) :: ((_, b) :: _ as rest) -> a <= b && check rest
      | _ -> true
    in
    check points
  in
  ignore (E.check ctx ~label:"F4: fraction monotone non-decreasing in k" monotone);
  ignore
    (E.check ctx ~label:"F4: all samples admit a pure NE by k = 9"
       (match List.rev points with (_, last) :: _ -> last = 1.0 | [] -> false));
  E.outf ctx
    "F4 monotone non-decreasing in k: %s; jumps from 0 to 1 across k = n/2 = %d\n\n"
    (yesno monotone) (n / 2);
  E.measure ctx "samples" (E.Int samples)

(* F5 — extension: equilibrium robustness.  Tilt the NE defender toward
   one tuple of its support by epsilon and measure the exact max regret:
   it grows linearly, so small schedule drift costs proportionally little
   (the equilibrium is not a knife edge). *)
let f5 ctx =
  let g = Gen.path 8 in
  let m = model ~g ~nu:4 ~k:2 in
  let prof = ok (Defender.Tuple_nash.a_tuple_auto m) in
  let towards = List.hd (Engine.Profile.tp_support prof) in
  let points =
    List.map
      (fun i ->
        let eps = Q.make i 20 in
        let tilted = Defender.Robustness.tilt_tp prof ~epsilon:eps ~towards in
        let r = Defender.Robustness.max_regret (Defender.Robustness.regret tilted) in
        (Q.to_float eps, Q.to_float r))
      [ 0; 1; 2; 3; 4; 5; 6; 8; 10 ]
  in
  E.out ctx
    (Harness.Table.series
       ~title:"F5 (extension): exact max regret vs defender-schedule tilt epsilon"
       ~x_label:"epsilon" ~y_label:"max regret" points);
  let fit = Harness.Stats.linear_fit points in
  ignore
    (E.check ctx ~label:"F5: regret exactly linear in eps, zero at eps = 0"
       (abs_float (fit.Harness.Stats.slope -. 0.5) < 1e-9
       && abs_float fit.Harness.Stats.intercept < 1e-9
       && fit.Harness.Stats.r_squared > 1.0 -. 1e-9));
  E.measure ctx "regret_slope" (E.Float fit.Harness.Stats.slope);
  E.outf ctx
    "F5 linear fit: regret = %.4f*eps %+.4f, R^2 = %.6f (exactly linear, zero at \
     eps = 0)\n\n"
    fit.Harness.Stats.slope fit.Harness.Stats.intercept fit.Harness.Stats.r_squared

(* F6 — extension: fictitious play converges to the equilibrium gain on
   instances WITH a k-matching NE, and to the LP max-min value on
   instances WITHOUT one — learning dynamics recover both theories. *)
let f6 ctx =
  let rounds = if E.is_smoke ctx then 4_000 else 30_000 in
  let tolerance_pct = if E.is_smoke ctx then 15.0 else 1.0 in
  let run name modelv expected =
    let r = Sim_tuple.Fictitious.run (Prng.Rng.create 5) modelv ~rounds in
    let series =
      List.filter_map
        (fun i ->
          let idx = (i * r.Sim_tuple.Fictitious.rounds / 12) - 1 in
          if idx >= 1 then
            Some (float_of_int (idx + 1), r.Sim_tuple.Fictitious.gain_series.(idx))
          else None)
        (List.init 13 Fun.id)
    in
    (name, expected, r.Sim_tuple.Fictitious.tail_avg_gain, series)
  in
  let p6 = run "P6 nu=4 k=2 (NE value 8/3)"
      (model ~g:(Gen.path 6) ~nu:4 ~k:2)
      (8.0 /. 3.0)
  in
  let c5 = run "C5 nu=3 k=1 (max-min value 6/5)"
      (model ~g:(Gen.cycle 5) ~nu:3 ~k:1)
      1.2
  in
  let named = List.map (fun (n, _, _, s) -> (n, s)) [ p6; c5 ] in
  E.out ctx
    (Harness.Table.multi_series
       ~title:"F6 (extension): fictitious play — prefix-average defender gain"
       ~x_label:"round" ~y_label:"average gain" named);
  List.iter
    (fun (name, expected, tail, _) ->
      let err_pct = 100.0 *. abs_float (tail -. expected) /. expected in
      ignore
        (E.check ctx
           ~label:(Printf.sprintf "F6 %s: tail average converges" name)
           (err_pct <= tolerance_pct));
      E.measure ctx
        (Printf.sprintf "tail_error_pct_%s" (String.sub name 0 2))
        (E.Float err_pct);
      E.outf ctx "  %-32s tail average %.4f vs predicted %.4f (error %.2f%%)\n"
        name tail expected err_pct)
    [ p6; c5 ];
  E.out ctx "\n";
  E.measure ctx "rounds" (E.Int rounds)

let register () =
  let r ~id ~claim ~expected run =
    Harness.Registry.register
      {
        Harness.Experiment.id;
        tag = Harness.Experiment.Figure;
        claim;
        expected;
        game = "tuple";
        run;
      }
  in
  r ~id:"F1"
    ~claim:"Thm 4.13: A_tuple runs in O(k*n)"
    ~expected:"wall time linear in n at fixed k and linear in k at fixed n" f1;
  r ~id:"F2"
    ~claim:"Thm 5.1: bipartite pipeline polynomial, max{O(kn), O(m sqrt n)}"
    ~expected:"log-log exponent in ~[1.0, 1.5] on random bipartite graphs" f2;
  r ~id:"F3"
    ~claim:"headline: defender gain linear in k with slope nu/|IS|"
    ~expected:"analytic series exactly linear; simulated series on the line" f3;
  r ~id:"F4"
    ~claim:"flip side of Thm 3.1: the class of graphs with pure NE grows with k"
    ~expected:"fraction admitting pure NE monotone in k, reaching 1" f4;
  r ~id:"F5"
    ~claim:"extension (Robustness): max regret linear in schedule tilt epsilon"
    ~expected:"regret = 0.5*eps exactly on P8 (nu = 4, k = 2), R^2 = 1" f5;
  r ~id:"F6"
    ~claim:
      "extension (Fictitious): learning recovers the NE gain (P6) and the \
       max-min value (C5)"
    ~expected:"tail averages within tolerance of 8/3 and 6/5" f6
