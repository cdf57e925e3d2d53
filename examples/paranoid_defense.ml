(* Paranoid defense: what to deploy when the theory says "no equilibrium".

   Odd cycles, cliques, the Petersen graph: none of them admits a
   matching Nash equilibrium (their complements of independent sets fail
   the expander condition), so the paper's constructions return nothing.
   The max-min extension (Minimax, exact LP over rationals) still
   produces the optimal conservative scan distribution — the one
   maximizing the worst-case interception probability — together with a
   dual certificate that no schedule does better.  Fictitious play then
   confirms the value empirically: learning attackers and a learning
   defender settle exactly on it.

     dune exec examples/paranoid_defense.exe
*)

module Q = Exact.Q
module Sim_tuple = Sim.Sim_instance.Tuple

let show name g =
  Printf.printf "\n--- %s ---\n" name;
  (match Defender.Matching_nash.find_partition g with
  | Some _ -> print_endline "(admits a matching NE; shown for comparison)"
  | None -> print_endline "no matching NE exists (Theorem 2.2 obstruction)");
  let d = Defender.Minimax.solve g in
  Printf.printf "fractional edge-cover number rho* = %s\n"
    (Q.to_string d.Defender.Minimax.rho_star);
  Printf.printf "max-min interception probability  = %s (certified: %b)\n"
    (Q.to_string d.Defender.Minimax.value)
    (Defender.Minimax.certified g d);
  Printf.printf "integral-cover defense would give = 1/%d\n"
    (Matching.Edge_cover.rho g);
  Printf.printf "optimal scan marginals:";
  Array.iteri
    (fun id p ->
      if not (Q.is_zero p) then
        let e = Netgraph.Graph.edge g id in
        Printf.printf " (%d-%d):%s" e.Netgraph.Graph.u e.Netgraph.Graph.v
          (Q.to_string p))
    d.Defender.Minimax.marginals;
  print_newline ();
  (* empirical confirmation by fictitious play *)
  let nu = 3 in
  let m = Defender.Model.make ~graph:g ~nu ~k:1 in
  let fp = Sim_tuple.Fictitious.run (Prng.Rng.create 11) m ~rounds:30_000 in
  Printf.printf
    "fictitious play (nu = %d, 30k rounds): avg gain %.4f vs predicted nu*value = %s*%d = %.4f\n"
    nu fp.Sim_tuple.Fictitious.tail_avg_gain
    (Q.to_string d.Defender.Minimax.value)
    nu
    (Q.to_float (Q.mul_int d.Defender.Minimax.value nu))

let () =
  show "cycle C5" (Netgraph.Gen.cycle 5);
  show "clique K5" (Netgraph.Gen.complete 5);
  show "Petersen graph" (Netgraph.Gen.petersen ());
  show "lollipop K4 + P3" (Netgraph.Gen.lollipop 4 ~tail:3);
  show "path P6 (baseline with a matching NE)" (Netgraph.Gen.path 6)
