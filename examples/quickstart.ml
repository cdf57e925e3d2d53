(* Quickstart: build a network, give the defender power k, compute a
   k-matching Nash equilibrium, verify it, and read off the guarantees.

     dune exec examples/quickstart.exe
*)

module Engine = Defender.Tuple_instance.Engine
module Sim_tuple = Sim.Sim_instance.Tuple

let () =
  (* A 3x3 grid network: 9 hosts, 12 links. *)
  let network = Netgraph.Gen.grid 3 3 in

  (* 5 attackers; the security software can scan 3 links at a time. *)
  let game = Defender.Model.make ~graph:network ~nu:5 ~k:3 in

  match Defender.Tuple_nash.a_tuple_auto game with
  | Error reason -> prerr_endline ("no k-matching equilibrium: " ^ reason)
  | Ok equilibrium ->
      Format.printf "Equilibrium found:@.%a@.@." Engine.Profile.pp equilibrium;

      (* Independent verification against the definition of a Nash
         equilibrium (defender side enumerated exhaustively). *)
      let verdict =
        Engine.Verify.mixed_ne (Engine.Verify.Exhaustive 100_000) equilibrium
      in
      Format.printf "verification: %s@." (Engine.Verify.verdict_to_string verdict);

      (* The quantities the paper is about. *)
      let gain = Defender.Gain.defender_gain equilibrium in
      let quality = Defender.Gain.protection_quality equilibrium in
      Format.printf "expected attackers arrested per round: %s@."
        (Exact.Q.to_string gain);
      Format.printf "fraction of attack traffic stopped:    %s@."
        (Exact.Q.to_string quality);

      (* Cross-check by simulation. *)
      let stats =
        Sim_tuple.Engine.play (Prng.Rng.create 42) equilibrium ~rounds:50_000
      in
      Format.printf "simulated over %d rounds:              %.4f (+/- %.4f)@."
        stats.Sim_tuple.Engine.rounds stats.Sim_tuple.Engine.mean_caught
        (Sim_tuple.Engine.confidence95 stats)
