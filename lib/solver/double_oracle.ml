(* The double-oracle loop.  See double_oracle.mli for the reduction and
   the termination argument; the invariants the code below maintains:

   - The restricted matrix is the ESCAPE game: rows = every attacker
     vertex, in vertex order, maximizing 1 − [covered]; columns = the
     restricted defender strategies minimizing it.  Solving from the
     attacker side puts the defender's strategies in the LP columns,
     and an appended column leaves the previous optimal tableau valid,
     so Matrix_game prices the newcomer into it instead of re-solving.
   - With every vertex a row, the column mix's least hit probability
     over ALL vertices is v* by LP optimality, so the attacker side
     certifies the lower bound v* without an oracle.  Every restricted
     strategy intercepts ≤ v* against the row mix, so a strictly
     improving defender answer is provably NOT in the restricted set —
     the assert below is the termination invariant, and would only fire
     on an inexact oracle (a contract violation).
   - Columns grow by appending in oracle order; with the deterministic
     simplex and oracle this makes the whole run a pure function of
     (instance, seeds), which the do.* counter determinism gates rely
     on. *)

open Netgraph
module Q = Exact.Q
module Finite = Dist.Finite

let c_iterations = Obs.counter "do.iterations"
let c_support_size = Obs.counter "do.support_size"

(* A safety valve only: termination is guaranteed. *)
let max_iterations = 10_000

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

  type stats = { iterations : int; warm_solves : int; final_cols : int }

  type result = {
    value : Q.t;
    sigma : Finite.t;
    tp : (G.Strategy.t * Q.t) list;
    stats : stats;
  }

  let solve ?(init_strategies = []) ?on_iteration inst =
    let n = Graph.n (G.graph inst) in
    let col_set = ref SSet.empty in
    let cols_rev = ref [] in
    let add_strategy s =
      G.validate inst s;
      if not (SSet.mem s !col_set) then begin
        col_set := SSet.add s !col_set;
        cols_rev := s :: !cols_rev
      end
    in
    (match init_strategies with
    | [] -> add_strategy (G.round_robin inst ~round:0)
    | ss -> List.iter add_strategy ss);
    let rec loop iteration warm =
      if iteration > max_iterations then
        failwith
          (Printf.sprintf
             "Double_oracle.solve: no convergence within %d iterations"
             max_iterations);
      Obs.incr c_iterations;
      let cols = Array.of_list (List.rev !cols_rev) in
      let nc = Array.length cols in
      let matrix =
        Array.init n (fun v ->
            Array.init nc (fun j ->
                if G.covers inst cols.(j) v then Q.zero else Q.one))
      in
      let sol = Lp.Matrix_game.solve ?warm matrix in
      let v_star = Q.sub Q.one sol.Lp.Matrix_game.value in
      (* Defender oracle: best pure interception against σ. *)
      let weight = sol.Lp.Matrix_game.row_strategy in
      let d_new = G.best_response_weighted inst ~weight in
      let upper =
        List.fold_left
          (fun acc v -> Q.add acc weight.(v))
          Q.zero (G.covered inst d_new)
      in
      Option.iter
        (fun f ->
          f
            {
              iteration;
              value = v_star;
              lower = v_star;
              upper;
              rows = n;
              cols = nc;
            })
        on_iteration;
      if Q.( > ) upper v_star then begin
        assert (not (SSet.mem d_new !col_set));
        add_strategy d_new;
        loop (iteration + 1) (Some sol.Lp.Matrix_game.warm)
      end
      else begin
        let positive pairs =
          List.filter (fun (_, p) -> not (Q.is_zero p)) pairs
        in
        let sigma =
          Finite.make (positive (List.init n (fun v -> (v, weight.(v)))))
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
              iterations = iteration;
              warm_solves = iteration - 1;
              final_cols = nc;
            };
        }
      end
    in
    loop 1 None

  let profile inst (r : result) =
    Engine.Profile.make_mixed inst
      ~vp:(List.init (G.nu inst) (fun _ -> r.sigma))
      ~tp:r.tp
end
