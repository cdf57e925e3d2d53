(* The double-oracle loop.  See double_oracle.mli for the reduction and
   the termination argument; the invariants the code below maintains:

   - The restricted matrix is the ESCAPE game: rows = attacker vertices
     maximizing 1 − [covered], columns = defender strategies minimizing
     it.  Solving from the attacker side puts the defender's strategies
     in the LP columns, which is what makes warm restarts pay: the
     defender side is the one that grows on almost every iteration, and
     an appended column leaves the previous optimal tableau valid, so
     Matrix_game prices the newcomer into it instead of re-solving.  A
     new attacker row changes the LP's rows, and that solve is cold.
   - At a restricted equilibrium every restricted vertex is hit with
     probability ≥ v* and every restricted strategy intercepts ≤ v*, so
     a strictly improving oracle answer is provably NOT in the
     restricted set — the asserts below are the termination invariant,
     and would only fire on an inexact oracle (a contract violation).
   - Both restricted sets grow by appending in oracle order; with the
     deterministic simplex and oracles this makes the whole run a pure
     function of (instance, seeds), which the do.* counter determinism
     gates rely on. *)

open Netgraph
module Q = Exact.Q
module Finite = Dist.Finite

let c_iterations = Obs.counter "do.iterations"
let c_oracle_calls = Obs.counter "do.oracle_calls"
let c_support_size = Obs.counter "do.support_size"

module Make (G : Defender.Game.S) = struct
  module Engine = Defender.Game_engine.Make (G)
  module SSet = Set.Make (G.Strategy)

  type iteration = {
    iteration : int;
    value : Q.t;
    lower : Q.t;
    upper : Q.t;
    rows : int;
    cols : int;
  }

  type stats = {
    iterations : int;
    oracle_calls : int;
    warm_solves : int;
    final_rows : int;
    final_cols : int;
  }

  type result = {
    value : Q.t;
    sigma : Finite.t;
    tp : (G.Strategy.t * Q.t) list;
    stats : stats;
  }

  let solve ?(max_iterations = 10_000) ?(init_vertices = [])
      ?(init_strategies = []) ?on_iteration inst =
    let g = G.graph inst in
    let n = Graph.n g in
    let row_mem = Array.make n false in
    let rows_rev = ref [] in
    let add_vertex v =
      if v < 0 || v >= n then
        invalid_arg
          (Printf.sprintf "Double_oracle.solve: seed vertex %d out of range" v);
      if not row_mem.(v) then begin
        row_mem.(v) <- true;
        rows_rev := v :: !rows_rev
      end
    in
    let col_set = ref SSet.empty in
    let cols_rev = ref [] in
    let add_strategy s =
      G.validate inst s;
      if not (SSet.mem s !col_set) then begin
        col_set := SSet.add s !col_set;
        cols_rev := s :: !cols_rev
      end
    in
    (match init_vertices with
    | [] -> add_vertex 0
    | vs -> List.iter add_vertex vs);
    (match init_strategies with
    | [] -> add_strategy (G.round_robin inst ~round:0)
    | ss -> List.iter add_strategy ss);
    let prev = ref None in
    let iterations = ref 0 and warm_solves = ref 0 in
    let rec loop () =
      if !iterations >= max_iterations then
        failwith
          (Printf.sprintf
             "Double_oracle.solve: no convergence within %d iterations"
             max_iterations);
      incr iterations;
      Obs.incr c_iterations;
      let rows = Array.of_list (List.rev !rows_rev) in
      let cols = Array.of_list (List.rev !cols_rev) in
      let nr = Array.length rows and nc = Array.length cols in
      let matrix =
        Array.init nr (fun i ->
            Array.init nc (fun j ->
                if G.covers inst cols.(j) rows.(i) then Q.zero else Q.one))
      in
      let warm =
        match !prev with
        | Some (sol, pr) when pr = nr ->
            incr warm_solves;
            Some sol.Lp.Matrix_game.warm
        | _ -> None
      in
      let sol = Lp.Matrix_game.solve ?warm matrix in
      prev := Some (sol, nr);
      let v_star = Q.sub Q.one sol.Lp.Matrix_game.value in
      (* Defender oracle: best pure interception against σ. *)
      let weight = Array.make n Q.zero in
      Array.iteri
        (fun i v -> weight.(v) <- sol.Lp.Matrix_game.row_strategy.(i))
        rows;
      let d_new = G.best_response_weighted inst ~weight in
      let upper =
        List.fold_left
          (fun acc v -> Q.add acc weight.(v))
          Q.zero (G.covered inst d_new)
      in
      (* Attacker oracle: least-hit vertex against the defender mix,
         lowest id on ties. *)
      let hit = Array.make n Q.zero in
      Array.iteri
        (fun j s ->
          let p = sol.Lp.Matrix_game.col_strategy.(j) in
          if not (Q.is_zero p) then
            List.iter (fun v -> hit.(v) <- Q.add hit.(v) p) (G.covered inst s))
        cols;
      let v_new = ref 0 in
      for v = 1 to n - 1 do
        if Q.( < ) hit.(v) hit.(!v_new) then v_new := v
      done;
      let lower = hit.(!v_new) in
      Obs.add c_oracle_calls 2;
      (match on_iteration with
      | Some f ->
          f
            {
              iteration = !iterations;
              value = v_star;
              lower;
              upper;
              rows = nr;
              cols = nc;
            }
      | None -> ());
      let defender_improves = Q.( > ) upper v_star in
      let attacker_improves = Q.( < ) lower v_star in
      if defender_improves || attacker_improves then begin
        if defender_improves then begin
          assert (not (SSet.mem d_new !col_set));
          add_strategy d_new
        end;
        if attacker_improves then begin
          assert (not row_mem.(!v_new));
          add_vertex !v_new
        end;
        loop ()
      end
      else begin
        let positive pairs =
          List.filter (fun (_, p) -> not (Q.is_zero p)) pairs
        in
        let sigma =
          Finite.make
            (positive
               (Array.to_list
                  (Array.mapi
                     (fun i v -> (v, sol.Lp.Matrix_game.row_strategy.(i)))
                     rows)))
        in
        let tp =
          positive
            (Array.to_list
               (Array.mapi
                  (fun j s -> (s, sol.Lp.Matrix_game.col_strategy.(j)))
                  cols))
        in
        Obs.add c_support_size (Finite.support_size sigma + List.length tp);
        {
          value = v_star;
          sigma;
          tp;
          stats =
            {
              iterations = !iterations;
              oracle_calls = 2 * !iterations;
              warm_solves = !warm_solves;
              final_rows = nr;
              final_cols = nc;
            };
        }
      end
    in
    loop ()

  let profile inst (r : result) =
    Engine.Profile.make_mixed inst
      ~vp:(List.init (G.nu inst) (fun _ -> r.sigma))
      ~tp:r.tp
end
