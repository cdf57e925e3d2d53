(* Table experiments T1-T12 and ablations A1-A2 (see EXPERIMENTS.md):
   each regenerates one quantitative claim of the paper as an aligned
   table, cross-validated against an independent oracle where one
   exists.  Every experiment is registered as a Harness.Experiment
   descriptor: the text rendering is unchanged at full scale, and every
   row-level cross-check is additionally recorded as a structured check
   so the verdict ("44/44 rows agree") lands in the JSON artifact. *)

open Netgraph
open Exp_util
module E = Harness.Experiment
module Q = Exact.Q
module Engine = Defender.Tuple_instance.Engine
module Sim_tuple = Sim.Sim_instance.Tuple
module V = Engine.Verify

(* T1 — Theorem 3.1 / Corollary 3.2: pure NE exists iff an edge cover of
   size k exists; polynomial decision vs brute-force oracle. *)
let t1 ctx =
  let table =
    Harness.Table.create ~title:"T1: pure NE existence (Theorem 3.1) vs brute force"
      ~columns:[ "graph"; "n"; "m"; "rho"; "k"; "theorem"; "brute"; "agree" ]
  in
  let mismatches = ref 0 and rows = ref 0 in
  List.iter
    (fun (name, g) ->
      List.iter
        (fun k ->
          if k <= Graph.m g then begin
            let m = model ~g ~nu:2 ~k in
            let thm = Defender.Pure_nash.exists m in
            let brute = Engine.Pure.exists_brute_force m in
            let agree =
              E.check ctx
                ~label:(Printf.sprintf "T1 %s k=%d: theorem = brute force" name k)
                (thm = brute)
            in
            if not agree then incr mismatches;
            incr rows;
            Harness.Table.add_row table
              [
                name;
                string_of_int (Graph.n g);
                string_of_int (Graph.m g);
                string_of_int (Matching.Edge_cover.rho g);
                string_of_int k;
                yesno thm;
                yesno brute;
                checkmark agree;
              ]
          end)
        [ 1; 2; 3 ])
    (small_atlas ());
  E.out ctx (Harness.Table.to_string table);
  E.outf ctx "T1 mismatches: %d (paper: 0 expected)\n\n" !mismatches;
  E.measure ctx "rows" (E.Int !rows);
  E.measure ctx "mismatches" (E.Int !mismatches)

(* T2 — Corollary 3.3: n >= 2k+1 forces non-existence; the n = 2k boundary
   admits pure NE exactly when a perfect cover of size k exists. *)
let t2 ctx =
  let table =
    Harness.Table.create ~title:"T2: the n = 2k+1 boundary (Corollary 3.3)"
      ~columns:[ "family"; "k"; "n"; "n>=2k+1"; "pure NE"; "consistent" ]
  in
  let consistent = ref true and rows = ref 0 in
  let families =
    [
      ("path", fun n -> if n >= 2 then Some (Gen.path n) else None);
      ("cycle", fun n -> if n >= 3 then Some (Gen.cycle n) else None);
      ("complete", fun n -> if n >= 2 then Some (Gen.complete n) else None);
    ]
  in
  List.iter
    (fun (fam, make) ->
      List.iter
        (fun k ->
          List.iter
            (fun n ->
              match make n with
              | Some g when k <= Graph.m g ->
                  let m = model ~g ~nu:2 ~k in
                  let exists = Defender.Pure_nash.exists m in
                  let boundary = n >= (2 * k) + 1 in
                  let row_ok =
                    E.check ctx
                      ~label:
                        (Printf.sprintf "T2 %s k=%d n=%d: corollary holds" fam k n)
                      (not (boundary && exists))
                  in
                  if not row_ok then consistent := false;
                  incr rows;
                  Harness.Table.add_row table
                    [
                      fam;
                      string_of_int k;
                      string_of_int n;
                      yesno boundary;
                      yesno exists;
                      checkmark row_ok;
                    ]
              | _ -> ())
            [ (2 * k) - 1; 2 * k; (2 * k) + 1; (2 * k) + 2 ])
        [ 1; 2; 3 ])
    families;
  E.out ctx (Harness.Table.to_string table);
  E.outf ctx "T2 corollary violated: %s (paper: never)\n\n"
    (if !consistent then "never" else "VIOLATED");
  E.measure ctx "rows" (E.Int !rows)

(* T3 — Theorem 3.4: the characterization agrees with the definitional
   best-response check on random profiles.  Known exception (DESIGN.md):
   "saturating" NEs with IP_tp = nu, where the defender already catches
   everyone and its indifference stops forcing the vertex-cover condition;
   every disagreement must be of that kind. *)
let t3 ctx =
  let profiles = if E.is_smoke ctx then 40 else 150 in
  let rng = Prng.Rng.create 31337 in
  let total = ref 0
  and nash = ref 0
  and agree = ref 0
  and saturating = ref 0
  and unexplained = ref 0 in
  while !total < profiles do
    let g = Gen.gnp_connected rng ~n:(4 + Prng.Rng.int rng 3) ~p:0.4 in
    let nu = 1 + Prng.Rng.int rng 3 in
    let k = 1 + Prng.Rng.int rng (min 2 (Graph.m g)) in
    let m = model ~g ~nu ~k in
    let vertices = Array.init (Graph.n g) Fun.id in
    let support =
      Array.to_list
        (Prng.Rng.sample_without_replacement rng
           ~count:(1 + Prng.Rng.int rng (Graph.n g))
           vertices)
    in
    let edge_ids = Array.init (Graph.m g) Fun.id in
    let tuples =
      List.init
        (1 + Prng.Rng.int rng 3)
        (fun _ ->
          Defender.Tuple.of_list g
            (Array.to_list (Prng.Rng.sample_without_replacement rng ~count:k edge_ids)))
      |> List.sort_uniq Defender.Tuple.compare
    in
    let prof = Engine.Profile.uniform m ~vp_support:support ~tp_support:tuples in
    incr total;
    let direct = V.verdict_is_confirmed (V.mixed_ne (V.Exhaustive 500_000) prof) in
    let characterized = Defender.Characterization.holds (V.Exhaustive 500_000) prof in
    if direct then incr nash;
    let explained =
      if direct = characterized then begin
        incr agree;
        true
      end
      else if
        direct && Q.equal (Engine.Profit.expected_tp prof) (Q.of_int nu)
      then begin
        incr saturating;
        true
      end
      else begin
        incr unexplained;
        false
      end
    in
    ignore
      (E.check ctx
         ~label:(Printf.sprintf "T3 profile %d: agreement or saturating" !total)
         explained)
  done;
  let table =
    Harness.Table.create
      ~title:"T3: Theorem 3.4 characterization vs definitional NE check"
      ~columns:
        [
          "random profiles";
          "NEs found";
          "agreements";
          "saturating exceptions";
          "unexplained";
        ]
  in
  Harness.Table.add_row table
    [
      string_of_int !total;
      string_of_int !nash;
      string_of_int !agree;
      string_of_int !saturating;
      string_of_int !unexplained;
    ];
  E.out ctx (Harness.Table.to_string table);
  E.outf ctx
    "T3: the saturating exceptions (defender already catches all nu attackers \
     w.p. 1) are the\n\
     documented gap in the paper's necessity proof — DESIGN.md proves the \
     equivalence whenever\n\
     IP_tp < nu, so 'unexplained' must be 0.\n\n";
  E.measure ctx "profiles" (E.Int !total);
  E.measure ctx "nes_found" (E.Int !nash);
  E.measure ctx "agreements" (E.Int !agree);
  E.measure ctx "saturating" (E.Int !saturating);
  E.measure ctx "unexplained" (E.Int !unexplained)

(* T4 — Lemma 4.1 + Claim 4.9: the A_tuple construction is an NE; the
   cyclic lift uses delta = E/gcd(E,k) tuples, each edge in k/gcd(E,k). *)
let t4 ctx =
  let table =
    Harness.Table.create ~title:"T4: k-matching NE construction (Lemma 4.1, Claim 4.9)"
      ~columns:
        [ "graph"; "k"; "|IS|=E_num"; "delta"; "per-edge mult"; "claim 4.9"; "NE verified" ]
  in
  let rows = ref 0 in
  List.iter
    (fun (name, g) ->
      match Defender.Matching_nash.find_partition g with
      | None -> ()
      | Some p ->
          let is_size = List.length p.Defender.Matching_nash.is in
          List.iter
            (fun k ->
              if k >= 1 && k <= is_size then begin
                let m = model ~g ~nu:3 ~k in
                let prof = ok (Defender.Tuple_nash.a_tuple m p) in
                let tuples = Engine.Profile.tp_support prof in
                let edges = Defender.Tuple.edge_union (Engine.Profile.tp_support prof) in
                let delta = Defender.Tuple_nash.delta ~e_num:is_size ~k in
                let mult = Defender.Tuple_nash.multiplicity ~e_num:is_size ~k in
                let claim49 =
                  E.check ctx
                    ~label:(Printf.sprintf "T4 %s k=%d: claim 4.9 counts" name k)
                    (List.length tuples = delta
                    && List.for_all
                         (fun id ->
                           List.length
                             (List.filter
                                (fun t -> Defender.Tuple.contains_edge t id)
                                tuples)
                           = mult)
                         edges)
                in
                let verified =
                  E.check ctx
                    ~label:(Printf.sprintf "T4 %s k=%d: NE verified" name k)
                    (V.verdict_is_confirmed (V.mixed_ne V.Certificate prof))
                in
                incr rows;
                Harness.Table.add_row table
                  [
                    name;
                    string_of_int k;
                    string_of_int is_size;
                    string_of_int delta;
                    string_of_int mult;
                    checkmark claim49;
                    yesno verified;
                  ]
              end)
            (List.sort_uniq compare [ 1; 2; 3; is_size ])
        )
    (small_atlas ());
  E.out ctx (Harness.Table.to_string table);
  E.out ctx "\n";
  E.measure ctx "rows" (E.Int !rows)

(* T5 — Theorem 4.5: the reduction works in both directions and round
   trips; the k <= |IS| feasibility boundary is sharp. *)
let t5 ctx =
  let table =
    Harness.Table.create ~title:"T5: the Theorem 4.5 reduction, both directions"
      ~columns:[ "graph"; "|IS|"; "k"; "lift"; "back"; "round trip"; "k=|IS|+1" ]
  in
  let rows = ref 0 in
  List.iter
    (fun (name, g) ->
      match Defender.Matching_nash.solve_auto (model ~g ~nu:3 ~k:1) with
      | Error _ -> ()
      | Ok edge_prof ->
          let is_size = List.length (Engine.Profile.vp_support_union edge_prof) in
          List.iter
            (fun k ->
              if k >= 1 && k <= is_size && k <= Graph.m g then begin
                let lift = Defender.Reduction.edge_to_tuple ~k edge_prof in
                let lift_ok =
                  E.check ctx
                    ~label:(Printf.sprintf "T5 %s k=%d: lift" name k)
                    (Result.is_ok lift)
                in
                let back_ok =
                  E.check ctx
                    ~label:(Printf.sprintf "T5 %s k=%d: back" name k)
                    (match lift with
                    | Ok lifted ->
                        Defender.Matching_nash.is_matching_configuration
                          (Defender.Reduction.tuple_to_edge lifted)
                    | Error _ -> false)
                in
                let rt =
                  E.check ctx
                    ~label:(Printf.sprintf "T5 %s k=%d: round trip" name k)
                    (Defender.Reduction.round_trip_preserves ~k edge_prof)
                in
                let beyond =
                  if is_size + 1 <= Graph.m g then
                    match Defender.Reduction.edge_to_tuple ~k:(is_size + 1) edge_prof with
                    | Error _ -> "refused"
                    | Ok _ -> "ACCEPTED?!"
                  else "n/a"
                in
                ignore
                  (E.check ctx
                     ~label:(Printf.sprintf "T5 %s k=%d: k=|IS|+1 refused" name k)
                     (beyond <> "ACCEPTED?!"));
                incr rows;
                Harness.Table.add_row table
                  [
                    name;
                    string_of_int is_size;
                    string_of_int k;
                    yesno lift_ok;
                    yesno back_ok;
                    checkmark rt;
                    beyond;
                  ]
              end)
            (List.sort_uniq compare [ 1; 2; is_size ])
        )
    (small_atlas ());
  E.out ctx (Harness.Table.to_string table);
  E.out ctx "\n";
  E.measure ctx "rows" (E.Int !rows)

(* T6 — Corollaries 4.7/4.10: IP_tp(k-matching NE) = k*nu/|IS| exactly. *)
let t6 ctx =
  let table =
    Harness.Table.create
      ~title:"T6: defender gain IP_tp = k*nu/|IS| (Corollaries 4.7/4.10, exact)"
      ~columns:[ "graph"; "nu"; "|IS|"; "k"; "IP_tp(1)"; "IP_tp(k)"; "ratio"; "= k" ]
  in
  let rows = ref 0 in
  List.iter
    (fun (name, g) ->
      List.iter
        (fun nu ->
          match Defender.Matching_nash.solve_auto (model ~g ~nu ~k:1) with
          | Error _ -> ()
          | Ok edge_prof ->
              let is_size =
                List.length (Engine.Profile.vp_support_union edge_prof)
              in
              let base = Defender.Gain.defender_gain edge_prof in
              List.iter
                (fun k ->
                  if k >= 2 && k <= is_size then
                    match Defender.Reduction.edge_to_tuple ~k edge_prof with
                    | Error _ -> ()
                    | Ok lifted ->
                        let gain = Defender.Gain.defender_gain lifted in
                        let ratio = Defender.Gain.gain_ratio lifted edge_prof in
                        let exact =
                          E.check ctx
                            ~label:
                              (Printf.sprintf "T6 %s nu=%d k=%d: ratio = k" name nu k)
                            (Q.equal ratio (Q.of_int k))
                        in
                        incr rows;
                        Harness.Table.add_row table
                          [
                            name;
                            string_of_int nu;
                            string_of_int is_size;
                            string_of_int k;
                            q_str base;
                            q_str gain;
                            q_str ratio;
                            checkmark exact;
                          ])
                (List.sort_uniq compare [ 2; 3; is_size ]))
        [ 1; 5 ])
    [ List.nth (small_atlas ()) 1; List.nth (small_atlas ()) 3;
      ("K(3,3)", Gen.complete_bipartite 3 3); ("grid-3x3", Gen.grid 3 3);
      ("star-6", Gen.star 6) ];
  E.out ctx (Harness.Table.to_string table);
  E.out ctx "\n";
  E.measure ctx "rows" (E.Int !rows)

(* T7 — equations (1)-(2): analytic expected profits match empirical play
   (Monte Carlo, 4-sigma band). *)
let t7 ctx =
  let rounds = if E.is_smoke ctx then 4_000 else 30_000 in
  let table =
    Harness.Table.create ~title:"T7: analytic vs Monte-Carlo defender gain"
      ~columns:[ "graph"; "nu"; "k"; "analytic"; "simulated"; "|delta|"; "within 4sd" ]
  in
  let cases =
    [
      ("path-6", Gen.path 6, 4, 2);
      ("cycle-8", Gen.cycle 8, 5, 3);
      ("star-7", Gen.star 7, 3, 2);
      ("K(3,4)", Gen.complete_bipartite 3 4, 6, 2);
      ("grid-3x3", Gen.grid 3 3, 4, 3);
      ("tree-d3", Gen.binary_tree 3, 5, 4);
    ]
  in
  let worst = ref 0.0 in
  List.iter
    (fun (name, g, nu, k) ->
      let m = model ~g ~nu ~k in
      let prof = ok (Defender.Tuple_nash.a_tuple_auto m) in
      let stats = Sim_tuple.Engine.play (Prng.Rng.create 9090) prof ~rounds in
      let analytic = Q.to_float (Defender.Gain.defender_gain prof) in
      let within =
        E.check ctx
          ~label:(Printf.sprintf "T7 %s: simulation within 4 sigma" name)
          (Sim_tuple.Engine.agrees_with_analytic stats prof)
      in
      worst := max !worst (abs_float (analytic -. stats.Sim_tuple.Engine.mean_caught));
      Harness.Table.add_row table
        [
          name;
          string_of_int nu;
          string_of_int k;
          Printf.sprintf "%.4f" analytic;
          Printf.sprintf "%.4f" stats.Sim_tuple.Engine.mean_caught;
          Printf.sprintf "%.4f" (abs_float (analytic -. stats.Sim_tuple.Engine.mean_caught));
          yesno within;
        ])
    cases;
  E.out ctx (Harness.Table.to_string table);
  E.out ctx "\n";
  E.measure ctx "rounds" (E.Int rounds);
  E.measure ctx "max_abs_delta" (E.Float !worst)

(* A1 — ablation beyond the paper: how much of the NE defense's value
   comes from randomization?  Deterministic and naive baselines against a
   learning attacker. *)
let a1 ctx =
  let rounds = if E.is_smoke ctx then 3_000 else 25_000 in
  let rng = Prng.Rng.create 5150 in
  let g = Gen.enterprise rng ~core:5 ~leaves:12 ~uplinks:2 in
  let nu = 6 in
  (* Non-bipartite topology: fall back to the best bipartite subinstance
     is out of scope; use a grid instead when no partition exists. *)
  let g, note =
    match Defender.Matching_nash.find_partition g with
    | Some _ -> (g, "enterprise 5+12")
    | None -> (Gen.grid 3 5, "grid-3x5 (enterprise graph admits no k-matching NE)")
  in
  let k = 3 in
  let m = model ~g ~nu ~k in
  let prof = ok (Defender.Tuple_nash.a_tuple_auto m) in
  let attacker = Sim_tuple.Workload.Attacker_adaptive { epsilon = 0.1 } in
  let table =
    Harness.Table.create
      ~title:(Printf.sprintf "A1 (ablation): defenses vs adaptive attacker on %s" note)
      ~columns:[ "defense"; "mean caught/round"; "vs NE analytic" ]
  in
  let analytic = Q.to_float (Defender.Gain.defender_gain prof) in
  let tolerance = if E.is_smoke ctx then 0.2 else 0.05 in
  List.iteri
    (fun i defender ->
      let o =
        Sim_tuple.Workload.run (Prng.Rng.create 2222) m ~attacker ~defender ~rounds
      in
      let policy = Sim_tuple.Workload.policy_name defender in
      (* The NE schedule's floor property: even a learning attacker cannot
         push the fixed NE defense below its analytic gain. *)
      if i = 0 then
        ignore
          (E.check ctx
             ~label:(Printf.sprintf "A1 %s: holds the analytic floor" policy)
             (o.Sim_tuple.Workload.mean_caught >= analytic -. tolerance));
      E.measure ctx ("mean_caught_" ^ policy) (E.Float o.Sim_tuple.Workload.mean_caught);
      Harness.Table.add_row table
        [
          policy;
          Printf.sprintf "%.3f" o.Sim_tuple.Workload.mean_caught;
          Printf.sprintf "%+.3f" (o.Sim_tuple.Workload.mean_caught -. analytic);
        ])
    [
      Sim_tuple.Workload.Defender_fixed (Engine.Profile.tp_strategy prof);
      Sim_tuple.Workload.Defender_uniform_tuple;
      Sim_tuple.Workload.Defender_greedy { epsilon = 0.1 };
      Sim_tuple.Workload.Defender_round_robin;
    ];
  E.out ctx (Harness.Table.to_string table);
  E.outf ctx "A1 NE analytic floor: %.3f\n\n" analytic;
  E.measure ctx "analytic_floor" (E.Float analytic);
  E.measure ctx "rounds" (E.Int rounds)

(* T8 — extension: the max-min ("paranoid") defense vs the equilibrium
   defense.  Exact-LP fractional edge covers: on bipartite graphs
   rho* = rho = |IS| so the NE defense is max-min optimal; on
   non-bipartite graphs without matching NEs the LP still produces the
   optimal conservative schedule, strictly better than integral covers. *)
let t8 ctx =
  let table =
    Harness.Table.create
      ~title:"T8 (extension): max-min defense (exact LP) vs matching-NE defense, k = 1"
      ~columns:
        [ "graph"; "rho"; "rho* (LP)"; "max-min hit"; "NE hit floor 1/|IS|"; "relation" ]
  in
  List.iter
    (fun (name, g) ->
      let d = Defender.Minimax.solve g in
      let rho = Matching.Edge_cover.rho g in
      ignore
        (E.check ctx
           ~label:(Printf.sprintf "T8 %s: LP optimum certified" name)
           (Defender.Minimax.certified g d));
      let ne_floor =
        match Defender.Matching_nash.find_partition g with
        | Some p -> Some (List.length p.Defender.Matching_nash.is)
        | None -> None
      in
      let relation =
        match ne_floor with
        | Some is_size when Q.equal d.Defender.Minimax.value (Q.make 1 is_size) ->
            "NE defense is max-min optimal"
        | Some _ -> "NE weaker than max-min"
        | None ->
            if Q.( > ) d.Defender.Minimax.value (Q.make 1 rho) then
              "no matching NE; LP beats every integral cover"
            else "no matching NE"
      in
      (* when a matching NE exists, bipartiteness forces rho* = rho = |IS| *)
      (match ne_floor with
      | Some is_size ->
          ignore
            (E.check ctx
               ~label:(Printf.sprintf "T8 %s: NE defense is max-min optimal" name)
               (Q.equal d.Defender.Minimax.value (Q.make 1 is_size)))
      | None -> ());
      Harness.Table.add_row table
        [
          name;
          string_of_int rho;
          q_str d.Defender.Minimax.rho_star;
          q_str d.Defender.Minimax.value;
          (match ne_floor with
          | Some s -> q_str (Q.make 1 s)
          | None -> "-");
          relation;
        ])
    (small_atlas ());
  E.out ctx (Harness.Table.to_string table);
  E.out ctx "\n"

(* T9 — extension (Path model of [8]): the defender-power threshold for
   pure equilibria under path-constrained scans vs free tuples. *)
let t9 ctx =
  let table =
    Harness.Table.create
      ~title:"T9 (extension): pure-NE power thresholds, Tuple model vs Path model"
      ~columns:[ "graph"; "n"; "tuple model (rho)"; "path model (n-1 if traceable)" ]
  in
  List.iter
    (fun (name, g) ->
      if Graph.n g <= 22 then begin
        let rho, path_k = Defender.Path_model.pure_thresholds g in
        ignore
          (E.check ctx
             ~label:(Printf.sprintf "T9 %s: thresholds consistent" name)
             (rho >= 1
             && (match path_k with Some k -> k = Graph.n g - 1 | None -> true)));
        Harness.Table.add_row table
          [
            name;
            string_of_int (Graph.n g);
            string_of_int rho;
            (match path_k with
            | Some k -> string_of_int k
            | None -> "never (no Hamiltonian path)");
          ]
      end)
    (small_atlas ());
  E.out ctx (Harness.Table.to_string table);
  E.outf ctx
    "T9: constraining the defender to paths raises the pure-NE threshold from \
     rho(G) to n-1,\n\
     and only on traceable graphs — quantifying how much strategy-space freedom \
     is worth.\n\n"

(* T10 — extension: weighted attackers.  The k-matching NE survives any
   damage-weight vector and the gain law becomes IP_tp = k*W/|IS|. *)
let t10 ctx =
  let table =
    Harness.Table.create
      ~title:"T10 (extension): weighted attackers — arrested damage = k*W/|IS|"
      ~columns:[ "graph"; "k"; "weights"; "W"; "|IS|"; "arrested damage"; "verified" ]
  in
  let cases =
    [
      ("path-6", Gen.path 6, 2, [ Q.of_int 5; Q.one; Q.make 1 2 ]);
      ("star-6", Gen.star 6, 3, [ Q.of_int 10; Q.of_int 10 ]);
      ("grid-2x3", Gen.grid 2 3, 1, [ Q.one; Q.make 2 3; Q.make 1 3 ]);
      ("K(3,3)", Gen.complete_bipartite 3 3, 2, [ Q.of_int 7 ]);
      ("cycle-8", Gen.cycle 8, 3, [ Q.one; Q.of_int 2; Q.of_int 3; Q.of_int 4 ]);
    ]
  in
  List.iter
    (fun (name, g, k, weights) ->
      let m = model ~g ~nu:(List.length weights) ~k in
      let w = Defender.Weighted.make m ~weights in
      match Defender.Matching_nash.find_partition g with
      | None -> ()
      | Some p ->
          let prof = ok (Defender.Weighted.a_tuple w p) in
          let is_size = List.length p.Defender.Matching_nash.is in
          let damage = Defender.Weighted.expected_tp w prof in
          let predicted = Defender.Weighted.predicted_gain w ~is_size in
          let verified =
            E.check ctx
              ~label:(Printf.sprintf "T10 %s: NE verified, damage = k*W/|IS|" name)
              (Engine.Verify.verdict_is_confirmed (Defender.Weighted.verify_ne w prof)
              && Q.equal damage predicted)
          in
          Harness.Table.add_row table
            [
              name;
              string_of_int k;
              String.concat "," (List.map Q.to_string weights);
              q_str (Defender.Weighted.total_weight w);
              string_of_int is_size;
              q_str damage;
              yesno verified;
            ])
    cases;
  E.out ctx (Harness.Table.to_string table);
  E.out ctx "\n"

(* T11 — extension: selection-independence of the matching-NE gain.
   Derived invariant (proof in DESIGN.md): every admissible (IS,VC)
   partition has |IS| = alpha(G) = rho(G), so all matching NEs share the
   gain k*nu/rho, and they exist only on Koenig-Egervary graphs
   (tau = mu).  The table verifies all three identities empirically. *)
let t11 ctx =
  let table =
    Harness.Table.create
      ~title:
        "T11 (extension): matching-NE gain is selection-independent (|IS| = alpha = rho)"
      ~columns:
        [ "graph"; "#admissible"; "|IS| range"; "alpha"; "rho"; "tau=mu"; "invariant" ]
  in
  let violations = ref 0 in
  List.iter
    (fun (name, g) ->
      if Graph.n g <= 20 then begin
        let all = Defender.Matching_nash.all_partitions g in
        let alpha = Matching.Independent.independence_number g in
        let rho = Matching.Edge_cover.rho g in
        let mu = Matching.Blossom.matching_number g in
        let tau = Graph.n g - alpha in
        match all with
        | [] ->
            (* no matching NE: the graph must fail Koenig-Egervary *)
            ignore
              (E.check ctx
                 ~label:(Printf.sprintf "T11 %s: no partition => tau <> mu" name)
                 (tau <> mu));
            Harness.Table.add_row table
              [
                name; "0"; "-"; string_of_int alpha; string_of_int rho;
                yesno (tau = mu); "n/a (no matching NE)";
              ]
        | _ ->
            let sizes =
              List.map (fun p -> List.length p.Defender.Matching_nash.is) all
            in
            let lo = List.fold_left min (List.hd sizes) sizes in
            let hi = List.fold_left max (List.hd sizes) sizes in
            let invariant =
              E.check ctx
                ~label:(Printf.sprintf "T11 %s: |IS| = alpha = rho, tau = mu" name)
                (lo = hi && lo = alpha && alpha = rho && tau = mu)
            in
            if not invariant then incr violations;
            Harness.Table.add_row table
              [
                name;
                string_of_int (List.length all);
                Printf.sprintf "%d..%d" lo hi;
                string_of_int alpha;
                string_of_int rho;
                yesno (tau = mu);
                checkmark invariant;
              ]
      end)
    (small_atlas ());
  E.out ctx (Harness.Table.to_string table);
  E.outf ctx
    "T11 invariant violations: %d (theory: 0 — so equilibrium selection never \
     changes the gain)\n\n"
    !violations;
  E.measure ctx "violations" (E.Int !violations)

(* T12 — extension: symmetric-equilibrium census by support enumeration
   (exact indifference solves).  Finds equilibria the paper's
   constructions cannot: e.g. C5 has no matching NE, yet carries a unique
   full-support symmetric NE whose gain equals nu times the LP max-min
   value — the two extension layers agree. *)
let t12 ctx =
  let table =
    Harness.Table.create
      ~title:"T12 (extension): symmetric-NE census via support enumeration (k = 1, nu = 3)"
      ~columns:
        [ "graph"; "#NEs"; "gains"; "matching NE?"; "nu * max-min value" ]
  in
  let total_nes = ref 0 in
  let census name g =
    let nu = 3 in
    let m = model ~g ~nu ~k:1 in
    let candidates =
      List.init (Graph.m g) (fun id -> Defender.Tuple.of_list g [ id ])
    in
    let nes = Defender.Support_solver.search m ~candidate_tuples:candidates in
    let gains =
      List.sort_uniq Q.compare (List.map Defender.Gain.defender_gain nes)
    in
    let minimax = (Defender.Minimax.solve g).Defender.Minimax.value in
    total_nes := !total_nes + List.length nes;
    ignore
      (E.check ctx
         ~label:(Printf.sprintf "T12 %s: every gain = nu * max-min" name)
         (List.for_all (fun gain -> Q.equal gain (Q.mul_int minimax nu)) gains));
    Harness.Table.add_row table
      [
        name;
        string_of_int (List.length nes);
        String.concat " " (List.map Q.to_string gains);
        yesno (Defender.Matching_nash.find_partition g <> None);
        q_str (Q.mul_int minimax nu);
      ]
  in
  census "path-4" (Gen.path 4);
  census "cycle-4" (Gen.cycle 4);
  census "cycle-5" (Gen.cycle 5);
  census "star-5" (Gen.star 5);
  census "paw" (Graph.make ~n:4 [ (0, 1); (1, 2); (0, 2); (2, 3) ]);
  census "complete-4" (Gen.complete 4);
  census "diamond" (Graph.make ~n:4 [ (0, 1); (1, 2); (2, 3); (0, 3); (0, 2) ]);
  E.out ctx (Harness.Table.to_string table);
  E.outf ctx
    "T12: every equilibrium found has gain EXACTLY nu * max-min — consistent with \
     the game's\n\
     zero-sum structure forcing a unique equilibrium value.  complete-4 shows the \
     census's\n\
     square-support limitation: its equilibria need |S| <> |T| (underdetermined \
     indifference\n\
     systems), which the solver deliberately reports as ambiguous rather than \
     guessing.\n\n";
  E.measure ctx "equilibria_found" (E.Int !total_nes)

(* A2 — failure injection: a flaky scanner loses exactly the failed
   fraction of the equilibrium gain — graceful, linear degradation. *)
let a2 ctx =
  let rounds = if E.is_smoke ctx then 4_000 else 30_000 in
  let tolerance = if E.is_smoke ctx then 0.08 else 0.02 in
  let g = Gen.path 8 in
  let nu = 4 and k = 2 in
  let m = model ~g ~nu ~k in
  let prof = ok (Defender.Tuple_nash.a_tuple_auto m) in
  let analytic = Q.to_float (Defender.Gain.defender_gain prof) in
  let attacker = Sim_tuple.Workload.Attacker_fixed (Engine.Profile.vp_strategy prof 0) in
  let table =
    Harness.Table.create
      ~title:"A2 (failure injection): flaky NE scanner, gain vs outage rate"
      ~columns:[ "failure rate"; "measured gain"; "predicted (1-f)*gain"; "delta" ]
  in
  let worst = ref 0.0 in
  List.iter
    (fun f ->
      let base = Sim_tuple.Workload.Defender_fixed (Engine.Profile.tp_strategy prof) in
      let defender =
        if f = 0.0 then base
        else Sim_tuple.Workload.Defender_flaky { base; failure_rate = f }
      in
      let o =
        Sim_tuple.Workload.run (Prng.Rng.create 4321) m ~attacker ~defender ~rounds
      in
      let predicted = (1.0 -. f) *. analytic in
      let delta = o.Sim_tuple.Workload.mean_caught -. predicted in
      worst := max !worst (abs_float delta);
      ignore
        (E.check ctx
           ~label:(Printf.sprintf "A2 f=%.2f: linear degradation" f)
           (abs_float delta <= tolerance));
      Harness.Table.add_row table
        [
          Printf.sprintf "%.2f" f;
          Printf.sprintf "%.4f" o.Sim_tuple.Workload.mean_caught;
          Printf.sprintf "%.4f" predicted;
          Printf.sprintf "%+.4f" delta;
        ])
    [ 0.0; 0.1; 0.2; 0.3; 0.4; 0.5 ];
  E.out ctx (Harness.Table.to_string table);
  E.out ctx "\n";
  E.measure ctx "rounds" (E.Int rounds);
  E.measure ctx "max_abs_delta" (E.Float !worst)

(* T13 — numeric-tower scale sweep: the exact machinery keeps working at
   sizes where the seed's fixed-width rationals overflowed.  Two probes:

   (1) payoff tables whose entries are sums of reciprocals of primes near
       10^5 — the common denominator is the product of the primes, which
       clears max_int at four attackers, exactly where the seed raised
       Q.Overflow mid-table; the incremental kernel must still equal the
       naive oracle entry-for-entry and conserve total load = nu.

   (2) exact Hilbert solves: det(H_n) has an astronomically large
       denominator from n = 7 on, so Gaussian elimination promotes
       internally, yet the solution of H_n x = (row sums) demotes back to
       the all-ones vector.  The determinant is cross-checked against the
       closed form (prod k!)^4 / prod k!. *)

let t13_primes = [| 99991; 99989; 99971; 99961; 99929; 99923 |]

(* Partial-pivot determinant over Q, local to the experiment (Gauss.solve
   deliberately does not expose pivots). *)
let t13_det a =
  let n = Array.length a in
  let a = Array.map Array.copy a in
  let det = ref Q.one in
  (try
     for c = 0 to n - 1 do
       let p = ref (-1) in
       for r = c to n - 1 do
         if !p < 0 && not (Q.is_zero a.(r).(c)) then p := r
       done;
       if !p < 0 then begin
         det := Q.zero;
         raise Exit
       end;
       if !p <> c then begin
         let t = a.(c) in
         a.(c) <- a.(!p);
         a.(!p) <- t;
         det := Q.neg !det
       end;
       det := Q.mul !det a.(c).(c);
       for r = c + 1 to n - 1 do
         let f = Q.div a.(r).(c) a.(c).(c) in
         for cc = c to n - 1 do
           a.(r).(cc) <- Q.sub a.(r).(cc) (Q.mul f a.(c).(cc))
         done
       done
     done
   with Exit -> ());
  !det

(* prod_{k=1}^{upto} k! as an exact rational. *)
let t13_superfactorial upto =
  let acc = ref Q.one and fact = ref Q.one in
  for k = 1 to upto do
    fact := Q.mul_int !fact k;
    acc := Q.mul !acc !fact
  done;
  !acc

let t13_hilbert_det_closed n =
  let c = t13_superfactorial (n - 1) in
  Q.div (Q.mul (Q.mul c c) (Q.mul c c)) (t13_superfactorial ((2 * n) - 1))

let t13 ctx =
  let g = Gen.grid 3 4 in
  let n = Graph.n g in
  let k = 2 in
  let kernel_equals_naive prof =
    Seq.for_all
      (fun v ->
        Q.equal (Engine.Profile.hit_prob prof v)
          (Engine.Profile.hit_prob ~naive:true prof v)
        && Q.equal
             (Engine.Profile.expected_load prof v)
             (Engine.Profile.expected_load ~naive:true prof v))
      (Seq.init n Fun.id)
    && Seq.for_all
         (fun id ->
           Q.equal
             (Engine.Profile.expected_load_edge prof id)
             (Engine.Profile.expected_load_edge ~naive:true prof id))
         (Seq.init (Graph.m g) Fun.id)
  in
  let table1 =
    Harness.Table.create
      ~title:
        "T13a: payoff tables over prime reciprocals (denominator = product of \
         primes near 1e5)"
      ~columns:
        [ "nu"; "load(v0)"; "digits(den)"; "small rep"; "seed overflows";
          "kernel=naive"; "sum=nu" ]
  in
  let nus = if E.is_smoke ctx then [ 2; 4 ] else [ 2; 3; 4; 6 ] in
  List.iter
    (fun nu ->
      let m = model ~g ~nu ~k in
      let vp =
        List.init nu (fun i ->
            let p = t13_primes.(i) in
            Dist.Finite.make
              [ (0, Q.make 1 p); (1 + (i mod (n - 1)), Q.make (p - 1) p) ])
      in
      let tp =
        [
          (Defender.Tuple.of_list g [ 0; 1 ], Q.make 1 2);
          (Defender.Tuple.of_list g [ 2; 3 ], Q.make 1 2);
        ]
      in
      let prof = Engine.Profile.make_mixed m ~vp ~tp in
      let load0 = Engine.Profile.expected_load prof 0 in
      (* The seed raised at the first prefix sum of 1/p_i that leaves the
         63-bit range; a non-small prefix is a sufficient witness. *)
      let seed_overflows =
        let acc = ref Q.zero and hit = ref false in
        for i = 0 to nu - 1 do
          acc := Q.add !acc (Q.make 1 t13_primes.(i));
          if not (Q.is_small !acc) then hit := true
        done;
        !hit
      in
      let agree =
        E.check ctx
          ~label:(Printf.sprintf "T13a nu=%d: kernel = naive oracle" nu)
          (kernel_equals_naive prof)
      in
      let conserved =
        E.check ctx
          ~label:(Printf.sprintf "T13a nu=%d: total load = nu exactly" nu)
          (Q.equal
             (Q.sum
                (List.init n (fun v -> Engine.Profile.expected_load prof v)))
             (Q.of_int nu))
      in
      ignore
        (E.check ctx
           ~label:
             (Printf.sprintf
                "T13a nu=%d: load(v0) promoted iff a prefix overflowed" nu)
           (Bool.equal (not (Q.is_small load0)) seed_overflows));
      (* The incremental tables survive a deviation that demotes the
         entries back to the small representation. *)
      let deviated =
        Engine.Profile.replace_vp prof 0 (Dist.Finite.uniform [ 0; 1; 2 ])
      in
      ignore
        (E.check ctx
           ~label:(Printf.sprintf "T13a nu=%d: kernel = naive after replace_vp" nu)
           (kernel_equals_naive deviated));
      let den_digits =
        let s = Q.to_string load0 in
        match String.index_opt s '/' with
        | Some i -> String.length s - i - 1
        | None -> 1
      in
      Harness.Table.add_row table1
        [
          string_of_int nu;
          (if String.length (Q.to_string load0) <= 24 then Q.to_string load0
           else "(" ^ string_of_int (String.length (Q.to_string load0)) ^ " chars)");
          string_of_int den_digits;
          yesno (Q.is_small load0);
          yesno seed_overflows;
          checkmark agree;
          checkmark conserved;
        ])
    nus;
  E.out ctx (Harness.Table.to_string table1);
  E.outf ctx
    "T13a: the seed's fixed-width arithmetic raised Q.Overflow from nu = 4 \
     on; the tower promotes\n\
     those entries to big rationals and demotes them back after the \
     deviation.\n\n";
  let table2 =
    Harness.Table.create
      ~title:"T13b: exact Hilbert solves H_n x = rowsums (Gauss over the tower)"
      ~columns:
        [ "n"; "det fits 63-bit"; "digits(1/det)"; "det = closed form";
          "x = ones" ]
  in
  let sizes = if E.is_smoke ctx then [ 4; 8 ] else [ 4; 6; 8; 10; 12 ] in
  List.iter
    (fun hn ->
      let h =
        Array.init hn (fun i -> Array.init hn (fun j -> Q.make 1 (i + j + 1)))
      in
      let b = Array.map (fun row -> Q.sum (Array.to_list row)) h in
      let det = t13_det h in
      let det_ok =
        E.check ctx
          ~label:(Printf.sprintf "T13b n=%d: determinant = closed form" hn)
          (Q.equal det (t13_hilbert_det_closed hn))
      in
      let ones_ok =
        E.check ctx
          ~label:(Printf.sprintf "T13b n=%d: solution is the ones vector" hn)
          (match Lp.Gauss.solve ~a:h ~b with
          | Lp.Gauss.Unique xs -> Array.for_all (fun x -> Q.equal x Q.one) xs
          | Lp.Gauss.Underdetermined | Lp.Gauss.Inconsistent -> false)
      in
      let inv_det_digits =
        let s = Q.to_string det in
        match String.index_opt s '/' with
        | Some i -> String.length s - i - 1
        | None -> String.length s
      in
      Harness.Table.add_row table2
        [
          string_of_int hn;
          yesno (Q.is_small det);
          string_of_int inv_det_digits;
          checkmark det_ok;
          checkmark ones_ok;
        ];
      E.measure ctx
        (Printf.sprintf "hilbert_%d_inv_det_digits" hn)
        (E.Int inv_det_digits))
    sizes;
  E.out ctx (Harness.Table.to_string table2);
  E.outf ctx
    "T13b: from n = 7 the determinant's denominator exceeds 63 bits \
     (elimination promotes\n\
     internally), yet the solution demotes back to exact ones — the seed \
     raised Q.Overflow here.\n\n";
  E.measure ctx "prime_rows" (E.Int (List.length nus));
  E.measure ctx "hilbert_rows" (E.Int (List.length sizes))

let register () =
  let r ~id ~tag ~claim ~expected run =
    Harness.Registry.register
      { Harness.Experiment.id; tag; claim; expected; game = "tuple"; run }
  in
  r ~id:"T1" ~tag:Harness.Experiment.Table
    ~claim:
      "Thm 3.1 / Cor 3.2: Pi_k(G) has a pure NE iff G has an edge cover of \
       size k; decidable in P"
    ~expected:"polynomial decision = brute-force search on every instance" t1;
  r ~id:"T2" ~tag:Harness.Experiment.Table
    ~claim:"Cor 3.3: n >= 2k+1 implies no pure NE"
    ~expected:"no pure NE above the boundary on any family" t2;
  r ~id:"T3" ~tag:Harness.Experiment.Table
    ~claim:
      "Thm 3.4: mixed-NE characterization equivalent to the definitional \
       best-response check"
    ~expected:
      "every disagreement is a saturating-defender exception (IP_tp = nu); 0 \
       unexplained" t3;
  r ~id:"T4" ~tag:Harness.Experiment.Table
    ~claim:
      "Lemma 4.1 + Claim 4.9: A_tuple's cyclic lift yields delta = E/gcd(E,k) \
       tuples, each edge in k/gcd(E,k), and the result is an NE"
    ~expected:"claim-4.9 counts exact and every constructed profile verified" t4;
  r ~id:"T5" ~tag:Harness.Experiment.Table
    ~claim:"Thm 4.5: poly-time reduction k-matching <-> matching NE, both directions"
    ~expected:"round trips preserve supports; k > |IS| refused" t5;
  r ~id:"T6" ~tag:Harness.Experiment.Table
    ~claim:"Cors 4.7/4.10: IP_tp(k-NE) = k * IP_tp(1-NE) = k*nu/|IS|"
    ~expected:"ratio exactly k in exact arithmetic, no tolerance" t6;
  r ~id:"T7" ~tag:Harness.Experiment.Table
    ~claim:"Eqs (1)-(2): analytic expected profits match empirical play"
    ~expected:"Monte-Carlo mean within 4 sigma of the exact value" t7;
  r ~id:"T8" ~tag:Harness.Experiment.Extension
    ~claim:
      "extension (Minimax): max-min defense value = 1/rho*(G) by exact LP; \
       equals the NE floor 1/|IS| exactly when matching NEs exist"
    ~expected:"LP certified on every atlas graph; NE defense max-min optimal" t8;
  r ~id:"T9" ~tag:Harness.Experiment.Extension
    ~claim:
      "extension (Path model of [8]): path-constrained defender has pure NE \
       iff k = n-1 and G traceable"
    ~expected:"thresholds rho(G) vs n-1 across the atlas" t9;
  r ~id:"T10" ~tag:Harness.Experiment.Extension
    ~claim:
      "extension (weighted attackers): k-matching NE survives any damage \
       weights; arrested damage = k*W/|IS|"
    ~expected:"all instances verified exactly" t10;
  r ~id:"T11" ~tag:Harness.Experiment.Extension
    ~claim:
      "derived invariant: every admissible partition has |IS| = alpha = rho; \
       matching NEs exist iff G is Koenig-Egervary (tau = mu)"
    ~expected:"0 violations across the atlas" t11;
  r ~id:"T12" ~tag:Harness.Experiment.Extension
    ~claim:
      "extension (Support_solver): symmetric-NE census by exact indifference \
       solves over support pairs"
    ~expected:"every equilibrium found has gain exactly nu * (max-min value)" t12;
  r ~id:"A1" ~tag:Harness.Experiment.Extension
    ~claim:"ablation beyond the paper: value of NE randomization"
    ~expected:"the fixed NE defense holds its analytic floor vs an adaptive attacker"
    a1;
  r ~id:"T13" ~tag:Harness.Experiment.Extension
    ~claim:
      "numeric tower at scale: payoff tables and exact solves stay correct \
       where fixed-width rationals overflowed"
    ~expected:
      "kernel = naive and total load = nu over prime-product denominators \
       beyond 63 bits; Hilbert dets match the closed form and solutions \
       demote to exact ones"
    t13;
  r ~id:"A2" ~tag:Harness.Experiment.Extension
    ~claim:"failure injection: flaky scanner degrades linearly"
    ~expected:"measured gain within tolerance of (1-f) * k*nu/|IS| for every f" a2
