(* "The power of the defender" as a story: sweep the defender's power k on
   one network and watch the protection quality grow — exactly linearly,
   as Theorem 4.5 / Corollaries 4.7 and 4.10 promise — in three
   independent ways: the closed form k*nu/|IS|, the exact expected profit
   of the constructed equilibrium, and a Monte-Carlo simulation of it.

     dune exec examples/defense_scaling.exe
*)

module Q = Exact.Q
module Engine = Defender.Tuple_instance.Engine
module Sim_tuple = Sim.Sim_instance.Tuple

let () =
  let g = Netgraph.Gen.grid 4 5 in
  let nu = 10 in
  Format.printf "network: %a@." Netgraph.Props.pp_summary (Netgraph.Props.summary g);

  let m1 = Defender.Model.make ~graph:g ~nu ~k:1 in
  let edge_profile =
    match Defender.Matching_nash.solve_auto m1 with
    | Ok p -> p
    | Error e ->
        prerr_endline ("no matching NE: " ^ e);
        exit 1
  in
  let is_size = List.length (Engine.Profile.vp_support_union edge_profile) in
  Printf.printf "attacker support |IS| = %d, so k ranges over 1..%d\n\n" is_size is_size;

  let table =
    Harness.Table.create ~title:"defender gain vs power k"
      ~columns:[ "k"; "closed form k*nu/|IS|"; "exact profit"; "simulated"; "escape prob" ]
  in
  let points = ref [] in
  for k = 1 to is_size do
    let profile =
      match Defender.Reduction.edge_to_tuple ~k edge_profile with
      | Ok p -> p
      | Error e -> failwith e
    in
    let closed_form = Q.make (k * nu) is_size in
    let exact = Defender.Gain.defender_gain profile in
    assert (Q.equal closed_form exact);
    let stats = Sim_tuple.Engine.play (Prng.Rng.create (100 + k)) profile ~rounds:20_000 in
    Harness.Table.add_row table
      [
        string_of_int k;
        Q.to_string closed_form;
        Q.to_string exact;
        Printf.sprintf "%.3f" stats.Sim_tuple.Engine.mean_caught;
        Q.to_string (Defender.Gain.escape_probability profile 0);
      ];
    points := (float_of_int k, Q.to_float exact) :: !points
  done;
  Harness.Table.print table;

  let fit = Harness.Stats.linear_fit !points in
  Printf.printf
    "\nlinear fit: gain = %.4f * k + %.4f   (R^2 = %.6f; slope prediction nu/|IS| = %.4f)\n"
    fit.Harness.Stats.slope fit.Harness.Stats.intercept fit.Harness.Stats.r_squared
    (float_of_int nu /. float_of_int is_size);

  print_string
    (Harness.Table.series ~title:"the power of the defender" ~x_label:"k (links scanned)"
       ~y_label:"expected attackers arrested" (List.rev !points))
