(* Enterprise scenario: a two-tier corporate network — a meshed backbone of
   core routers and leaf hosts multihomed into it — defended by an IDS
   appliance that can mirror (scan) k links at a time.

   The example:
     1. builds the topology and reports its structure;
     2. computes the defender's game-theoretically optimal mixed scan
        schedule where one exists, and explains the obstruction otherwise;
     3. stress-tests the deployed schedule against four attacker behaviours
        (uniform, hotspot-on-the-core, fixed, adaptive) and three naive
        defender baselines, in simulation.

     dune exec examples/enterprise_network.exe
*)

module Q = Exact.Q
module Engine = Defender.Tuple_instance.Engine
module Sim_tuple = Sim.Sim_instance.Tuple

let section title = Printf.printf "\n--- %s ---\n" title

let () =
  let rng = Prng.Rng.create 7 in
  (* A bipartite two-tier network: no core mesh (core = clean uplink tier)
     keeps the topology bipartite so Theorem 5.1 applies verbatim. *)
  let core = 6 and leaves = 18 in
  let g =
    Netgraph.Gen.random_bipartite rng ~a:core ~b:leaves ~p:0.15
  in
  let attackers = 8 in
  let scan_capacity = 4 in

  section "Topology";
  Format.printf "%a@." Netgraph.Props.pp_summary (Netgraph.Props.summary g);
  Printf.printf "attackers: %d, IDS scan capacity k = %d links/round\n" attackers
    scan_capacity;

  let model = Defender.Model.make ~graph:g ~nu:attackers ~k:scan_capacity in

  section "Equilibrium defense (Theorem 5.1 pipeline)";
  let outcome =
    match Defender.Pipeline.solve model with
    | Ok o -> o
    | Error e ->
        Printf.printf "pipeline failed: %s\n" e;
        exit 1
  in
  let profile = outcome.Defender.Pipeline.profile in
  let partition = outcome.Defender.Pipeline.partition in
  Printf.printf "attacker-side support IS: %d vertices, defender VC side: %d\n"
    (List.length partition.Defender.Matching_nash.is)
    (List.length partition.Defender.Matching_nash.vc);
  Printf.printf "scan schedule: %d tuples of %d links each\n"
    (List.length (Engine.Profile.tp_support profile))
    scan_capacity;
  Printf.printf "verification: %s\n"
    (Engine.Verify.verdict_to_string
       (Engine.Verify.mixed_ne Engine.Verify.Certificate profile));
  Printf.printf "expected intrusions stopped per round: %s of %d\n"
    (Q.to_string (Defender.Gain.defender_gain profile))
    attackers;
  Printf.printf "per-attacker escape probability: %s\n"
    (Q.to_string (Defender.Gain.escape_probability profile 0));

  section "Deployment stress test (20k rounds each)";
  let ne_defense = Sim_tuple.Workload.Defender_fixed (Engine.Profile.tp_strategy profile) in
  let defenses =
    [
      ne_defense;
      Sim_tuple.Workload.Defender_uniform_tuple;
      Sim_tuple.Workload.Defender_greedy { epsilon = 0.1 };
      Sim_tuple.Workload.Defender_round_robin;
    ]
  in
  let hotspot_targets = List.filteri (fun i _ -> i < 2) partition.Defender.Matching_nash.vc in
  let attacks =
    [
      Sim_tuple.Workload.Attacker_uniform;
      Sim_tuple.Workload.Attacker_hotspot { targets = hotspot_targets; concentration = 0.9 };
      Sim_tuple.Workload.Attacker_fixed (Engine.Profile.vp_strategy profile 0);
      Sim_tuple.Workload.Attacker_adaptive { epsilon = 0.1 };
    ]
  in
  let table =
    Harness.Table.create ~title:"mean intrusions stopped per round"
      ~columns:
        ("defense \\ attack"
        :: List.map Sim_tuple.Workload.attacker_name attacks)
  in
  List.iter
    (fun defender ->
      let cells =
        List.map
          (fun attacker ->
            let o =
              Sim_tuple.Workload.run (Prng.Rng.create 1001) model ~attacker ~defender
                ~rounds:20_000
            in
            Printf.sprintf "%.3f" o.Sim_tuple.Workload.mean_caught)
          attacks
      in
      Harness.Table.add_row table (Sim_tuple.Workload.policy_name defender :: cells))
    defenses;
  Harness.Table.print table;
  Printf.printf
    "\nReading: the fixed/NE row never drops below %s no matter the attack —\n\
     that worst-case floor is what the equilibrium buys; the adaptive column\n\
     shows learning attackers punishing the predictable baselines.\n"
    (Q.to_string (Defender.Gain.defender_gain profile))
