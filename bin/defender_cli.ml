(* Command-line interface to the defender library.

   Subcommands:
     gen       generate a graph and print/save it as an edge list
     analyze   structural + equilibrium-relevant analysis of a graph
     pure      decide/construct pure Nash equilibria (Theorem 3.1)
     solve     compute a k-matching Nash equilibrium (Algorithm A_tuple)
     simulate  Monte-Carlo play of the computed equilibrium
     dynamics  best-response dynamics until convergence or budget

     verify    re-verify a saved equilibrium profile
     minimax   optimal max-min single-link defense (exact LP)
     paths     pure-NE thresholds for the path-constrained defender
     fp        fictitious-play learning dynamics
     census    enumerate symmetric equilibria of a tiny instance
     experiments  run registered EXPERIMENTS.md experiments (same
                  registry as bench/main.exe; JSON artifacts)

   Graphs are specified either with --file (edge-list format) or --family
   using a compact spec (see Netgraph.Family): path:6, cycle:8, star:5,
   complete:4, kbip:3x4, grid:3x4, hypercube:3, wheel:6, petersen,
   barbell:4:2, lollipop:4:3, caterpillar:4:2, multipartite:2:2:2,
   tree:12, gnp:20:0.1, bipartite:5x7:0.2, regular:10:4,
   enterprise:4:20:2. *)

open Cmdliner
module Engine = Defender.Tuple_instance.Engine
module Sim_tuple = Sim.Sim_instance.Tuple

let parse_family spec seed =
  Netgraph.Family.parse ~rng:(Prng.Rng.create seed) spec

let load_graph file family seed =
  match (file, family) with
  | Some f, None -> Netgraph.Edge_list.load f
  | None, Some spec -> parse_family spec seed
  | Some _, Some _ -> failwith "give either --file or --family, not both"
  | None, None -> failwith "a graph is required: --file or --family"

(* Common options *)
let file_arg =
  Arg.(value & opt (some string) None & info [ "file"; "f" ] ~docv:"FILE" ~doc:"Edge-list file.")

let family_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "family"; "g" ] ~docv:"SPEC" ~doc:"Generator spec, e.g. grid:3x4 or gnp:20:0.1.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let k_arg =
  Arg.(value & opt int 1 & info [ "k" ] ~docv:"K" ~doc:"Defender power (links scanned).")

let nu_arg =
  Arg.(value & opt int 1 & info [ "nu" ] ~docv:"NU" ~doc:"Number of attackers.")

(* GAME instance selection, on the subcommands whose engine is
   functorized over it (fp, dynamics).  The tuple game reads --k; the
   connected-subgraph game reads --lambda. *)
let game_arg =
  Arg.(
    value
    & opt (enum [ ("tuple", `Tuple); ("subgraph", `Subgraph) ]) `Tuple
    & info [ "game" ] ~docv:"GAME"
        ~doc:"Game instance: $(b,tuple) (k edges) or $(b,subgraph) (a \
              lambda-vertex connected subgraph).")

let lambda_arg =
  Arg.(
    value & opt int 1
    & info [ "lambda" ] ~docv:"LAMBDA"
        ~doc:"Defender subgraph size (subgraph game only).")

(* Every subcommand body runs under this wrapper.  The typed errors our
   own layers raise — Invalid_argument (malformed graph6/profile input,
   bad parameters), Failure (parsers, option validation), Sys_error
   (missing or unreadable files) — are user-input problems, not bugs:
   they print as one [error: ...] line on stderr and exit 1, never as an
   uncaught-exception backtrace. *)
let handle f =
  let die msg =
    Printf.eprintf "error: %s\n" msg;
    exit 1
  in
  try `Ok (f ())
  with
  | Invalid_argument msg | Failure msg | Sys_error msg -> die msg
  | Unix.Unix_error (e, fn, arg) ->
      die
        (Printf.sprintf "%s%s: %s" fn
           (if arg = "" then "" else " " ^ arg)
           (Unix.error_message e))

(* Observability flags, shared by the compute-heavy subcommands: run the
   body with recording on and print the summed counter/span tables
   afterwards.  The experiments subcommand instead threads the flags
   through Runner.opts so the artifact carries per-experiment metrics. *)
let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Record observability counters and print the summed table.")

let trace_arg =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:
          "Additionally accumulate span wall time (implies $(b,--metrics)).")

let with_obs ~metrics ~trace f =
  let module Obs = Harness.Obs in
  if not (metrics || trace) then f ()
  else begin
    let ambient = Obs.level () in
    Obs.set_level (if trace then Obs.Trace else Obs.Counters);
    Fun.protect ~finally:(fun () -> Obs.set_level ambient) @@ fun () ->
    let snap = Obs.snapshot () in
    let result = f () in
    let d = Obs.delta snap in
    if not (Obs.is_empty d) then
      print_string
        (Harness.Registry.metrics_table
           ~driver:(Harness.Experiment.metrics_of_obs d) []);
    result
  end

(* gen *)
let gen_cmd =
  let out_arg =
    Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Output file.")
  in
  let run family seed out =
    handle (fun () ->
        let g =
          match family with
          | Some spec -> parse_family spec seed
          | None -> failwith "gen requires --family"
        in
        match out with
        | Some f ->
            Netgraph.Edge_list.save f g;
            Printf.printf "wrote %s (n=%d, m=%d)\n" f (Netgraph.Graph.n g)
              (Netgraph.Graph.m g)
        | None -> print_string (Netgraph.Edge_list.to_string g))
  in
  Cmd.v (Cmd.info "gen" ~doc:"Generate a graph.")
    Term.(ret (const run $ family_arg $ seed_arg $ out_arg))

(* analyze *)
let analyze_cmd =
  let run file family seed =
    handle (fun () ->
        let g = load_graph file family seed in
        Format.printf "%a@." Netgraph.Props.pp_summary (Netgraph.Props.summary g);
        if Netgraph.Traverse.is_connected g then begin
          Printf.printf "diameter %d, radius %d, girth %s\n"
            (Netgraph.Metrics.diameter g) (Netgraph.Metrics.radius g)
            (match Netgraph.Metrics.girth g with
            | Some c -> string_of_int c
            | None -> "none (forest)");
          Printf.printf "articulation points: %d, bridges: %d\n"
            (List.length (Netgraph.Metrics.articulation_points g))
            (List.length (Netgraph.Metrics.bridges g))
        end;
        Printf.printf "minimum edge cover rho(G) = %d (pure NE exists iff k >= rho)\n"
          (Matching.Edge_cover.rho g);
        Printf.printf "maximum matching mu(G) = %d\n"
          (Matching.Blossom.matching_number g);
        (match Defender.Matching_nash.find_partition g with
        | Some p ->
            let is_size = List.length p.Defender.Matching_nash.is in
            Printf.printf
              "admissible (IS, VC) partition found: |IS| = %d, |VC| = %d\n\
               matching NE exist; k-matching NE exist for every k in [1, %d]\n"
              is_size
              (List.length p.Defender.Matching_nash.vc)
              is_size
        | None ->
            print_endline
              "no admissible (IS, VC) partition: no matching/k-matching NE \
               (Theorem 2.2 / Corollary 4.11)");
        let d = Defender.Minimax.solve g in
        Printf.printf
          "max-min defense (k = 1): interception %s (fractional edge cover rho* = %s)\n"
          (Exact.Q.to_string d.Defender.Minimax.value)
          (Exact.Q.to_string d.Defender.Minimax.rho_star))
  in
  Cmd.v (Cmd.info "analyze" ~doc:"Analyze a graph's equilibrium structure.")
    Term.(ret (const run $ file_arg $ family_arg $ seed_arg))

(* minimax *)
let minimax_cmd =
  let run file family seed =
    handle (fun () ->
        let g = load_graph file family seed in
        let d = Defender.Minimax.solve g in
        Printf.printf "fractional edge-cover number rho* = %s\n"
          (Exact.Q.to_string d.Defender.Minimax.rho_star);
        Printf.printf "max-min interception probability = %s (certified %b)\n"
          (Exact.Q.to_string d.Defender.Minimax.value)
          (Defender.Minimax.certified g d);
        print_endline "optimal scan marginals (nonzero):";
        Array.iteri
          (fun id p ->
            if not (Exact.Q.is_zero p) then
              let e = Netgraph.Graph.edge g id in
              Printf.printf "  link %d-%d: %s\n" e.Netgraph.Graph.u
                e.Netgraph.Graph.v (Exact.Q.to_string p))
          d.Defender.Minimax.marginals)
  in
  Cmd.v
    (Cmd.info "minimax"
       ~doc:"Optimal max-min (paranoid) single-link defense, exact LP.")
    Term.(ret (const run $ file_arg $ family_arg $ seed_arg))

(* paths *)
let paths_cmd =
  let run file family seed =
    handle (fun () ->
        let g = load_graph file family seed in
        let rho, path_k = Defender.Path_model.pure_thresholds g in
        Printf.printf "Tuple model: pure NE exists iff k >= rho(G) = %d\n" rho;
        match path_k with
        | Some k ->
            Printf.printf
              "Path model: pure NE exists iff k = n-1 = %d (graph is traceable)\n" k
        | None ->
            print_endline
              "Path model: no pure NE for any k (no Hamiltonian path)")
  in
  Cmd.v
    (Cmd.info "paths"
       ~doc:"Pure-NE thresholds when the defender is constrained to paths.")
    Term.(ret (const run $ file_arg $ family_arg $ seed_arg))

(* census: symmetric-NE enumeration on tiny graphs *)
let census_cmd =
  let run file family seed nu k =
    handle (fun () ->
        let g = load_graph file family seed in
        let m = Defender.Model.make ~graph:g ~nu ~k in
        let candidates =
          if k = 1 then
            List.init (Netgraph.Graph.m g) (fun id -> Defender.Tuple.of_list g [ id ])
          else Defender.Tuple.enumerate ~limit:10 g ~k
        in
        let nes = Defender.Support_solver.search m ~candidate_tuples:candidates in
        Printf.printf "%d symmetric equilibria found\n" (List.length nes);
        List.iter
          (fun p ->
            Format.printf "%a@.gain: %s@.@." Engine.Profile.pp p
              (Exact.Q.to_string (Defender.Gain.defender_gain p)))
          nes)
  in
  Cmd.v
    (Cmd.info "census"
       ~doc:"Enumerate symmetric Nash equilibria of a tiny instance by support \
             enumeration.")
    Term.(ret (const run $ file_arg $ family_arg $ seed_arg $ nu_arg $ k_arg))

(* fp: fictitious play *)
let fp_cmd =
  let rounds_arg =
    Arg.(value & opt int 20_000 & info [ "rounds" ] ~docv:"N" ~doc:"Play rounds.")
  in
  let run file family seed nu k game lambda rounds metrics trace =
    handle (fun () ->
        with_obs ~metrics ~trace @@ fun () ->
        let g = load_graph file family seed in
        match game with
        | `Tuple ->
            let m = Defender.Model.make ~graph:g ~nu ~k in
            let r = Sim_tuple.Fictitious.run (Prng.Rng.create seed) m ~rounds in
            Printf.printf
              "fictitious play over %d rounds: average gain %.4f (tail %.4f)\n"
              rounds r.Sim_tuple.Fictitious.avg_gain r.Sim_tuple.Fictitious.tail_avg_gain;
            (match Defender.Tuple_nash.a_tuple_auto m with
            | Ok prof ->
                Printf.printf "k-matching NE prediction: %s\n"
                  (Exact.Q.to_string (Defender.Gain.defender_gain prof))
            | Error _ -> ());
            if k = 1 then
              let d = Defender.Minimax.solve g in
              Printf.printf "max-min prediction: nu * %s = %.4f\n"
                (Exact.Q.to_string d.Defender.Minimax.value)
                (Exact.Q.to_float (Exact.Q.mul_int d.Defender.Minimax.value nu))
        | `Subgraph ->
            let module F = Sim.Sim_instance.Subgraph.Fictitious in
            let inst = Defender.Subgraph_game.make ~graph:g ~nu ~lambda in
            let r = F.run (Prng.Rng.create seed) inst ~rounds in
            Printf.printf
              "fictitious play (subgraph game, lambda = %d) over %d rounds: \
               average gain %.4f (tail %.4f)\n"
              lambda rounds r.F.avg_gain r.F.tail_avg_gain)
  in
  Cmd.v (Cmd.info "fp" ~doc:"Fictitious-play learning dynamics.")
    Term.(
      ret
        (const run $ file_arg $ family_arg $ seed_arg $ nu_arg $ k_arg $ game_arg
       $ lambda_arg $ rounds_arg $ metrics_arg $ trace_arg))

(* pure *)
let pure_cmd =
  let run file family seed nu k =
    handle (fun () ->
        let g = load_graph file family seed in
        let m = Defender.Model.make ~graph:g ~nu ~k in
        if Defender.Pure_nash.exists m then begin
          match Defender.Pure_nash.construct m with
          | Some prof ->
              Printf.printf
                "pure NE exists (Theorem 3.1); defender cover: edges {%s}\n"
                (String.concat ","
                   (List.map string_of_int
                      (Defender.Tuple.to_list prof.Engine.Profile.tp_choice)))
          | None -> assert false
        end
        else
          Printf.printf
            "no pure NE: rho(G) = %d > k = %d%s\n"
            (Matching.Edge_cover.rho g) k
            (if Defender.Pure_nash.cor33_applies m then
               " (also forced by Corollary 3.3: n >= 2k+1)"
             else ""))
  in
  Cmd.v (Cmd.info "pure" ~doc:"Decide/construct pure Nash equilibria.")
    Term.(ret (const run $ file_arg $ family_arg $ seed_arg $ nu_arg $ k_arg))

(* solve *)
let solve_cmd =
  let verify_arg =
    Arg.(value & flag & info [ "verify" ] ~doc:"Exhaustively verify the result.")
  in
  let save_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"FILE" ~doc:"Write the equilibrium profile to FILE.")
  in
  let method_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("characterization", `Characterization);
               ("double-oracle", `Double_oracle);
             ])
          `Characterization
      & info [ "method" ] ~docv:"METHOD"
          ~doc:
            "Solver: $(b,characterization) (the paper's A_tuple closed forms; \
             tuple game only) or $(b,double-oracle) (column generation over \
             exact best-response oracles — any instance, either game).")
  in
  (* The double-oracle report, shared by both games: the invariant
     quantities plus the loop accounting, over already-extracted plain
     values (the two instantiations of the solver functor have distinct
     result types). *)
  let print_double_oracle ~nu ~value ~iterations ~oracle_calls ~warm_solves
      ~final_rows ~final_cols ~sigma_support ~tp_support =
    Printf.printf "game value (per-attacker interception): %s\n"
      (Exact.Q.to_string value);
    Printf.printf "defender gain: %s (= nu * value)\n"
      (Exact.Q.to_string (Exact.Q.mul_int value nu));
    Printf.printf "attacker escape probability: %s\n"
      (Exact.Q.to_string (Exact.Q.sub Exact.Q.one value));
    Printf.printf
      "double-oracle: %d iterations, %d oracle calls, %d warm solves, final \
       restricted game %dx%d, support %d vertices x %d strategies\n"
      iterations oracle_calls warm_solves final_rows final_cols sigma_support
      tp_support
  in
  let run file family seed nu k game lambda method_ verify save metrics trace =
    handle (fun () ->
        with_obs ~metrics ~trace @@ fun () ->
        let g = load_graph file family seed in
        match (method_, game) with
        | `Characterization, `Subgraph ->
            failwith
              "the characterization solver covers the tuple game only; use \
               --method double-oracle for the subgraph game"
        | `Characterization, `Tuple -> (
            let m = Defender.Model.make ~graph:g ~nu ~k in
            match Defender.Tuple_nash.a_tuple_auto m with
            | Error e -> Printf.printf "no k-matching NE: %s\n" e
            | Ok prof ->
                Format.printf "%a@." Engine.Profile.pp prof;
                Printf.printf "defender gain: %s (= k*nu/|IS|)\n"
                  (Exact.Q.to_string (Defender.Gain.defender_gain prof));
                Printf.printf "attacker escape probability: %s\n"
                  (Exact.Q.to_string (Defender.Gain.escape_probability prof 0));
                let mode =
                  if verify then Engine.Verify.Exhaustive 2_000_000
                  else Engine.Verify.Certificate
                in
                Printf.printf "verification (%s): %s\n"
                  (if verify then "exhaustive" else "certificate")
                  (Engine.Verify.verdict_to_string
                     (Engine.Verify.mixed_ne mode prof));
                match save with
                | Some path ->
                    Engine.Io.save path prof;
                    Printf.printf "profile written to %s\n" path
                | None -> ())
        | `Double_oracle, `Tuple -> (
            let m = Defender.Model.make ~graph:g ~nu ~k in
            let module DO = Solver.Instances.Tuple in
            let r = DO.solve m in
            print_double_oracle ~nu ~value:r.DO.value
              ~iterations:r.DO.stats.DO.iterations
              ~oracle_calls:r.DO.stats.DO.oracle_calls
              ~warm_solves:r.DO.stats.DO.warm_solves
              ~final_rows:r.DO.stats.DO.final_rows
              ~final_cols:r.DO.stats.DO.final_cols
              ~sigma_support:(Dist.Finite.support_size r.DO.sigma)
              ~tp_support:(List.length r.DO.tp);
            let prof = DO.profile m r in
            Printf.printf "verification (oracle): %s\n"
              (Engine.Verify.verdict_to_string
                 (Engine.Verify.mixed_ne Engine.Verify.Oracle prof));
            if verify then
              Printf.printf "verification (exhaustive): %s\n"
                (Engine.Verify.verdict_to_string
                   (Engine.Verify.mixed_ne
                      (Engine.Verify.Exhaustive 2_000_000)
                      prof));
            match save with
            | Some path ->
                Engine.Io.save path prof;
                Printf.printf "profile written to %s\n" path
            | None -> ())
        | `Double_oracle, `Subgraph ->
            if save <> None then
              failwith
                "--save writes Profile_io format, which covers the tuple game \
                 only";
            let inst = Defender.Subgraph_game.make ~graph:g ~nu ~lambda in
            let module DOS = Solver.Instances.Subgraph in
            let module SEngine = Defender.Subgraph_instance.Engine in
            let r = DOS.solve inst in
            print_double_oracle ~nu ~value:r.DOS.value
              ~iterations:r.DOS.stats.DOS.iterations
              ~oracle_calls:r.DOS.stats.DOS.oracle_calls
              ~warm_solves:r.DOS.stats.DOS.warm_solves
              ~final_rows:r.DOS.stats.DOS.final_rows
              ~final_cols:r.DOS.stats.DOS.final_cols
              ~sigma_support:(Dist.Finite.support_size r.DOS.sigma)
              ~tp_support:(List.length r.DOS.tp);
            let prof = DOS.profile inst r in
            Printf.printf "verification (oracle): %s\n"
              (SEngine.Verify.verdict_to_string
                 (SEngine.Verify.mixed_ne SEngine.Verify.Oracle prof));
            if verify then
              Printf.printf "verification (exhaustive): %s\n"
                (SEngine.Verify.verdict_to_string
                   (SEngine.Verify.mixed_ne
                      (SEngine.Verify.Exhaustive 2_000_000)
                      prof)))
  in
  Cmd.v
    (Cmd.info "solve"
       ~doc:
         "Compute an exact Nash equilibrium: the paper's closed-form \
          characterization, or the double-oracle solver for instances beyond \
          it.")
    Term.(
      ret
        (const run $ file_arg $ family_arg $ seed_arg $ nu_arg $ k_arg $ game_arg
       $ lambda_arg $ method_arg $ verify_arg $ save_arg $ metrics_arg
       $ trace_arg))

(* verify: re-check a saved profile *)
let verify_cmd =
  let load_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "load" ] ~docv:"FILE" ~doc:"Saved profile to verify.")
  in
  let run file family seed nu k path =
    handle (fun () ->
        let g = load_graph file family seed in
        let m = Defender.Model.make ~graph:g ~nu ~k in
        let prof = Engine.Io.load m path in
        Printf.printf "definitional check: %s\n"
          (Engine.Verify.verdict_to_string
             (Engine.Verify.mixed_ne (Engine.Verify.Exhaustive 2_000_000) prof));
        Format.printf "Theorem 3.4 characterization:@.%a@."
          Defender.Characterization.pp_report
          (Defender.Characterization.check (Engine.Verify.Exhaustive 2_000_000) prof);
        Printf.printf "defender gain: %s\n"
          (Exact.Q.to_string (Defender.Gain.defender_gain prof)))
  in
  Cmd.v
    (Cmd.info "verify" ~doc:"Re-verify a saved equilibrium profile against a graph.")
    Term.(
      ret (const run $ file_arg $ family_arg $ seed_arg $ nu_arg $ k_arg $ load_arg))

(* simulate *)
let simulate_cmd =
  let rounds_arg =
    Arg.(value & opt int 10_000 & info [ "rounds" ] ~docv:"N" ~doc:"Simulation rounds.")
  in
  let run file family seed nu k rounds =
    handle (fun () ->
        let g = load_graph file family seed in
        let m = Defender.Model.make ~graph:g ~nu ~k in
        match Defender.Tuple_nash.a_tuple_auto m with
        | Error e -> Printf.printf "no k-matching NE to simulate: %s\n" e
        | Ok prof ->
            let stats = Sim_tuple.Engine.play (Prng.Rng.create seed) prof ~rounds in
            Printf.printf "analytic expected catch: %s\n"
              (Exact.Q.to_string (Defender.Gain.defender_gain prof));
            Printf.printf "simulated mean over %d rounds: %.4f (95%% CI +/- %.4f)\n"
              rounds stats.Sim_tuple.Engine.mean_caught (Sim_tuple.Engine.confidence95 stats);
            Printf.printf "agreement: %b\n"
              (Sim_tuple.Engine.agrees_with_analytic stats prof))
  in
  Cmd.v (Cmd.info "simulate" ~doc:"Monte-Carlo play of the equilibrium.")
    Term.(
      ret (const run $ file_arg $ family_arg $ seed_arg $ nu_arg $ k_arg $ rounds_arg))

(* dynamics *)
let dynamics_cmd =
  let steps_arg =
    Arg.(value & opt int 10_000 & info [ "max-steps" ] ~docv:"N" ~doc:"Step budget.")
  in
  let run file family seed nu k game lambda max_steps =
    handle (fun () ->
        let g = load_graph file family seed in
        match game with
        | `Tuple -> (
            let m = Defender.Model.make ~graph:g ~nu ~k in
            match Sim_tuple.Dynamics.run (Prng.Rng.create seed) m ~max_steps with
            | Sim_tuple.Dynamics.Converged { steps; profile } ->
                Printf.printf
                  "converged to a pure NE after %d steps; defender plays {%s}\n"
                  steps
                  (String.concat ","
                     (List.map string_of_int
                        (Defender.Tuple.to_list profile.Engine.Profile.tp_choice)))
            | Sim_tuple.Dynamics.Cycling { steps } ->
                Printf.printf
                  "still churning after %d steps — consistent with no pure NE \
                   (rho = %d vs k = %d)\n"
                  steps (Matching.Edge_cover.rho g) k)
        | `Subgraph -> (
            let module D = Sim.Sim_instance.Subgraph.Dynamics in
            let inst = Defender.Subgraph_game.make ~graph:g ~nu ~lambda in
            match D.run (Prng.Rng.create seed) inst ~max_steps with
            | D.Converged { steps; profile } ->
                Printf.printf
                  "converged to a pure NE after %d steps; defender plays %s\n"
                  steps
                  (Format.asprintf "%a" Defender.Subgraph_game.Strategy.pp
                     profile.tp_choice)
            | D.Cycling { steps } ->
                Printf.printf
                  "still churning after %d steps — consistent with no pure NE\n"
                  steps))
  in
  Cmd.v (Cmd.info "dynamics" ~doc:"Best-response dynamics.")
    Term.(
      ret
        (const run $ file_arg $ family_arg $ seed_arg $ nu_arg $ k_arg $ game_arg
       $ lambda_arg $ steps_arg))

(* experiments: drive the shared registry (same set as bench/main.exe) *)
let experiments_cmd =
  let list_arg =
    Arg.(value & flag & info [ "list" ] ~doc:"List registered experiments and exit.")
  in
  let only_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "only" ] ~docv:"IDS"
          ~doc:"Comma-separated experiment ids to run, e.g. T4,F2.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Write the JSON artifact to FILE.")
  in
  let smoke_arg =
    Arg.(
      value & flag
      & info [ "smoke" ] ~doc:"Reduced-size sweep (same seeds, smaller instances).")
  in
  let quiet_arg =
    Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress the text rendering.")
  in
  let jobs_arg =
    Arg.(
      value & opt int 1
      & info [ "jobs" ] ~docv:"N"
          ~doc:
            "Run experiments on a persistent pool of $(docv) pre-forked \
             worker processes; results keep registration order, and a \
             crashed worker is respawned and its experiment retried once \
             before being reported crashed.  1 = in-process sequential run \
             (on one pool worker when $(b,--timeout) or $(b,--force-crash) \
             is given).")
  in
  let timeout_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECS"
          ~doc:
            "Per-experiment wall-clock budget; a worker past it is killed and \
             its experiment reported as crashed.")
  in
  let force_crash_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "force-crash" ] ~docv:"IDS"
          ~doc:
            "Kill the worker running each listed experiment (fault-injection \
             test hook for the crash-isolation path).")
  in
  let split_ids = function
    | None -> []
    | Some ids -> String.split_on_char ',' ids |> List.filter (fun x -> x <> "")
  in
  let run list only json smoke quiet jobs timeout force_crash metrics trace =
    if list then `Ok (print_string (Experiments.Runner.list_text ()))
    else
      let opts =
        {
          Experiments.Runner.default_opts with
          Experiments.Runner.scale =
            (if smoke then Harness.Experiment.Smoke else Harness.Experiment.Full);
          only = split_ids only;
          json_out = json;
          echo = not quiet;
          jobs;
          timeout;
          force_crash = split_ids force_crash;
          metrics;
          trace;
        }
      in
      match Experiments.Runner.run opts with
      | 0 -> `Ok ()
      | 1 -> `Error (false, "one or more experiments degraded or crashed")
      | _ -> `Error (false, "experiment selection failed")
  in
  Cmd.v
    (Cmd.info "experiments"
       ~doc:
         "Run the registered reproduction experiments (tables, figures, \
          microbenchmarks) and optionally emit the JSON artifact.")
    Term.(
      ret
        (const run $ list_arg $ only_arg $ json_arg $ smoke_arg $ quiet_arg
       $ jobs_arg $ timeout_arg $ force_crash_arg $ metrics_arg
       $ trace_arg))

(* serve / query: the batch-query daemon (Harness.Daemon specialized by
   Service.Daemon_service) and its scriptable client. *)

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Listen/connect on a Unix socket.")

let port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"N" ~doc:"Listen/connect on a TCP port.")

let host_arg =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"HOST" ~doc:"TCP host (with $(b,--port)).")

let address_of socket port host =
  match (socket, port) with
  | Some path, None -> Harness.Daemon.Unix_socket path
  | None, Some n -> Harness.Daemon.Tcp (host, n)
  | Some _, Some _ -> failwith "give either --socket or --port, not both"
  | None, None -> failwith "an address is required: --socket PATH or --port N"

let serve_cmd =
  let jobs_arg =
    Arg.(
      value & opt int 2
      & info [ "jobs" ] ~docv:"N" ~doc:"Worker processes answering queries.")
  in
  let timeout_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECS"
          ~doc:
            "Per-request budget; a worker past it is killed and the request \
             answered with an error.")
  in
  let cache_arg =
    Arg.(
      value & opt int 1024
      & info [ "cache-entries" ] ~docv:"M"
          ~doc:
            "Capacity of the canonical-instance solve cache (LRU eviction; 0 \
             disables caching).")
  in
  let inflight_arg =
    Arg.(
      value & opt int 64
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:
            "Dispatched-and-unanswered request high-water mark; past it new \
             queries are rejected with a busy error.")
  in
  let run socket port host jobs timeout cache_entries max_inflight metrics trace
      =
    handle (fun () ->
        with_obs ~metrics ~trace @@ fun () ->
        let address = address_of socket port host in
        let stats =
          Service.Daemon_service.serve ~address ~workers:jobs ?timeout
            ~cache_entries ~max_inflight
            ~on_ready:(fun sa ->
              (match sa with
              | Unix.ADDR_UNIX path -> Printf.printf "listening on %s\n" path
              | Unix.ADDR_INET (a, p) ->
                  Printf.printf "listening on %s:%d\n"
                    (Unix.string_of_inet_addr a)
                    p);
              flush stdout)
            ()
        in
        Printf.printf
          "drained: %d requests, %d cache hits, %d busy rejects\n"
          stats.Harness.Daemon.requests stats.Harness.Daemon.cache_hits
          stats.Harness.Daemon.busy_rejects)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the query daemon: a socket server answering solve/profit/\
          equilibrium-check requests from a worker pool, with a canonical-\
          instance solve cache (isomorphic queries share one entry).  Drains \
          and exits on SIGTERM, SIGINT or a $(b,shutdown) request.")
    Term.(
      ret
        (const run $ socket_arg $ port_arg $ host_arg $ jobs_arg $ timeout_arg
       $ cache_arg $ inflight_arg $ metrics_arg $ trace_arg))

let query_cmd =
  let op_arg =
    Arg.(
      value & opt string "solve"
      & info [ "op" ] ~docv:"OP"
          ~doc:
            "Request op: $(b,solve), $(b,profit), $(b,equilibrium-check), \
             $(b,ping), $(b,stats) or $(b,shutdown).")
  in
  let graph6_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "graph6" ] ~docv:"G6" ~doc:"Graph as a graph6/sparse6 line.")
  in
  let profile_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "profile" ] ~docv:"FILE"
          ~doc:"Saved profile to send (profit, equilibrium-check).")
  in
  let mode_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "mode" ] ~docv:"MODE"
          ~doc:
            "Verification mode: $(b,certificate), $(b,exhaustive) or \
             $(b,oracle).")
  in
  let solve_method_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "method" ] ~docv:"METHOD"
          ~doc:
            "Solve method sent with the request: $(b,characterization) \
             (default) or $(b,double-oracle).")
  in
  let raw_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "request" ] ~docv:"JSON"
          ~doc:
            "Raw request object sent verbatim (scripting escape hatch; \
             overrides every other request option).")
  in
  let retries_arg =
    Arg.(
      value & opt int 0
      & info [ "retries" ] ~docv:"N"
          ~doc:"Connection attempts to retry, 50 ms apart (daemon startup).")
  in
  let pretty_arg =
    Arg.(value & flag & info [ "pretty" ] ~doc:"Pretty-print the response.")
  in
  let read_file path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let run socket port host retries op graph6 file family seed k nu game lambda
      profile mode solve_method raw pretty =
    handle (fun () ->
        let module Json = Harness.Json in
        let address = address_of socket port host in
        let msg =
          match raw with
          | Some text -> (
              match Json.of_string text with
              | Ok j -> j
              | Error e -> failwith ("bad --request JSON: " ^ e))
          | None ->
              let g6 =
                (* The daemon speaks graph6 only; file and family inputs
                   are encoded client-side. *)
                match (graph6, file, family) with
                | Some s, None, None -> Some s
                | None, Some f, None ->
                    Some (Netgraph.Graph6.encode (Netgraph.Edge_list.load f))
                | None, None, Some spec ->
                    Some (Netgraph.Graph6.encode (parse_family spec seed))
                | None, None, None -> None
                | _ -> failwith "give at most one of --graph6, --file, --family"
              in
              Json.Obj
                (List.concat
                   [
                     [ ("id", Json.Int 0); ("op", Json.String op) ];
                     (match g6 with
                     | Some s -> [ ("graph6", Json.String s) ]
                     | None -> []);
                     [
                       ("k", Json.Int k);
                       ("nu", Json.Int nu);
                       ( "game",
                         Json.String
                           (match game with
                           | `Tuple -> "tuple"
                           | `Subgraph -> "subgraph") );
                       ("lambda", Json.Int lambda);
                     ];
                     (match profile with
                     | Some path ->
                         [ ("profile", Json.String (read_file path)) ]
                     | None -> []);
                     (match mode with
                     | Some m -> [ ("mode", Json.String m) ]
                     | None -> []);
                     (match solve_method with
                     | Some m -> [ ("method", Json.String m) ]
                     | None -> []);
                   ])
        in
        let conn = Harness.Daemon.Client.connect ~retries address in
        Fun.protect ~finally:(fun () -> Harness.Daemon.Client.close conn)
        @@ fun () ->
        match Harness.Daemon.Client.request conn msg with
        | Error e -> failwith e
        | Ok response -> (
            print_endline (Json.to_string ~pretty response);
            match Json.member "ok" response with
            | Some (Json.Bool true) -> ()
            | _ -> exit 1))
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "Send one request to a running daemon and print the JSON response \
          (exit 1 when the daemon answers $(b,ok:false)).")
    Term.(
      ret
        (const run $ socket_arg $ port_arg $ host_arg $ retries_arg $ op_arg
       $ graph6_arg $ file_arg $ family_arg $ seed_arg $ k_arg $ nu_arg
       $ game_arg $ lambda_arg $ profile_arg $ mode_arg $ solve_method_arg
       $ raw_arg $ pretty_arg))

let () =
  let info =
    Cmd.info "defender-cli" ~version:"1.0.0"
      ~doc:"Attack/defense network games: the Tuple model of ICDCS 2006."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            gen_cmd;
            analyze_cmd;
            pure_cmd;
            solve_cmd;
            verify_cmd;
            simulate_cmd;
            dynamics_cmd;
            minimax_cmd;
            paths_cmd;
            fp_cmd;
            census_cmd;
            experiments_cmd;
            serve_cmd;
            query_cmd;
          ]))
