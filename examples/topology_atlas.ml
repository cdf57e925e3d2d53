(* Topology atlas: walk the generator families and report, for each
   network, which defenses the theory grants it — pure equilibria
   (Theorem 3.1), matching equilibria of the Edge model (Theorem 2.2) and
   k-matching equilibria of the Tuple model (Corollary 4.11 + the
   feasibility bound k <= |IS|) — and why the obstruction bites when one
   does not exist.

     dune exec examples/topology_atlas.exe
*)

open Netgraph
module Engine = Defender.Tuple_instance.Engine

let () =
  let table =
    Harness.Table.create ~title:"equilibrium atlas (nu = 3)"
      ~columns:
        [ "graph"; "n"; "m"; "rho"; "pure NE k>="; "matching NE"; "max k-matching k"; "note" ]
  in
  List.iter
    (fun (name, g) ->
      let rho = Matching.Edge_cover.rho g in
      let partition = Defender.Matching_nash.find_partition g in
      let matching_ne, max_k, note =
        match partition with
        | Some p ->
            let is_size = List.length p.Defender.Matching_nash.is in
            ("yes", string_of_int is_size,
             Printf.sprintf "IS = {%s}"
               (String.concat ","
                  (List.map string_of_int
                     (List.filteri (fun i _ -> i < 5) p.Defender.Matching_nash.is))
               ^ if is_size > 5 then ",..." else ""))
        | None ->
            let why =
              if not (Bipartite.is_bipartite g) then
                "no admissible (IS,VC): expander condition fails"
              else "no admissible partition"
            in
            ("no", "-", why)
      in
      Harness.Table.add_row table
        [
          name;
          string_of_int (Graph.n g);
          string_of_int (Graph.m g);
          string_of_int rho;
          string_of_int rho;
          matching_ne;
          max_k;
          note;
        ])
    (Gen.atlas_small ());
  Harness.Table.print table;

  (* Spot-check the table's promises on one admitting and one refusing
     instance. *)
  print_newline ();
  let grid = Gen.grid 3 3 in
  let m = Defender.Model.make ~graph:grid ~nu:3 ~k:2 in
  (match Defender.Tuple_nash.a_tuple_auto m with
  | Ok prof ->
      Format.printf "grid-3x3, k=2: k-matching NE with gain %s — %s@."
        (Exact.Q.to_string (Defender.Gain.defender_gain prof))
        (Engine.Verify.verdict_to_string
           (Engine.Verify.mixed_ne Engine.Verify.Certificate prof))
  | Error e -> Format.printf "grid-3x3, k=2: %s@." e);
  let c5 = Gen.cycle 5 in
  (match
     Defender.Matching_nash.solve_auto (Defender.Model.make ~graph:c5 ~nu:3 ~k:1)
   with
  | Ok _ -> Format.printf "cycle-5: unexpectedly found a matching NE@."
  | Error e -> Format.printf "cycle-5: correctly refused — %s@." e);

  (* Pure equilibria across the atlas at the threshold power. *)
  print_newline ();
  let pure_table =
    Harness.Table.create ~title:"pure NE threshold check (Theorem 3.1)"
      ~columns:[ "graph"; "rho"; "exists at k=rho"; "exists at k=rho-1" ]
  in
  List.iter
    (fun (name, g) ->
      let rho = Matching.Edge_cover.rho g in
      let at k =
        if k < 1 || k > Graph.m g then "-"
        else
          string_of_bool
            (Defender.Pure_nash.exists (Defender.Model.make ~graph:g ~nu:3 ~k))
      in
      Harness.Table.add_row pure_table
        [ name; string_of_int rho; at rho; at (rho - 1) ])
    (Gen.atlas_small ());
  Harness.Table.print pure_table
