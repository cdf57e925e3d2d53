open Netgraph
module Q = Exact.Q

type defense = {
  value : Q.t;
  rho_star : Q.t;
  marginals : Q.t array;
  cover : Q.t array;
  packing : Q.t array;
}

let solve g =
  if Graph.has_isolated_vertex g then
    invalid_arg "Minimax.solve: graph has an isolated vertex";
  let n = Graph.n g and m = Graph.m g in
  (* Fractional vertex packing: max Σ y_v s.t. y_u + y_v <= 1 per edge.
     Its optimum is ρ*(G); the dual multipliers are the optimal
     fractional edge cover. *)
  let a =
    Array.init m (fun id ->
        let e = Graph.edge g id in
        Array.init n (fun v ->
            if v = e.Graph.u || v = e.Graph.v then Q.one else Q.zero))
  in
  let b = Array.make m Q.one in
  let c = Array.make n Q.one in
  match Lp.Simplex.maximize ~a ~b ~c with
  | Lp.Simplex.Unbounded -> assert false (* y <= 1 componentwise *)
  | Lp.Simplex.Optimal { objective; x = packing; dual = cover; _ } ->
      let rho_star = objective in
      let marginals = Array.map (fun xe -> Q.div xe rho_star) cover in
      {
        value = Q.inv rho_star;
        rho_star;
        marginals;
        cover;
        packing;
      }

(* The "Payoff_kernel." error prefix is kept verbatim: tests pin it. *)
let vertex_incidence_sums g weights =
  if Array.length weights <> Graph.m g then
    invalid_arg "Payoff_kernel.vertex_incidence_sums: need one weight per edge";
  Array.init (Graph.n g) (fun v ->
      Graph.fold_incident g v ~init:Q.zero ~f:(fun acc _ id ->
          Q.add acc weights.(id)))

let hit_floor g marginals =
  (* The hit probability of a fractional edge schedule is the per-vertex
     incidence sum of the marginals. *)
  Q.min_list (Array.to_list (vertex_incidence_sums g marginals))

let certified g d =
  let m = Graph.m g in
  (* cover feasibility: every vertex fractionally covered *)
  let cover_ok =
    Array.for_all
      (fun total -> Q.( >= ) total Q.one)
      (vertex_incidence_sums g d.cover)
    && Array.for_all (fun xe -> Q.( >= ) xe Q.zero) d.cover
  in
  (* packing feasibility *)
  let packing_ok =
    Array.for_all (fun yv -> Q.( >= ) yv Q.zero) d.packing
    && List.for_all
         (fun id ->
           let e = Graph.edge g id in
           Q.( <= ) (Q.add d.packing.(e.Graph.u) d.packing.(e.Graph.v)) Q.one)
         (List.init m Fun.id)
  in
  (* zero duality gap and attained floor *)
  let cover_total = Array.fold_left Q.add Q.zero d.cover in
  let packing_total = Array.fold_left Q.add Q.zero d.packing in
  cover_ok && packing_ok
  && Q.equal cover_total d.rho_star
  && Q.equal packing_total d.rho_star
  && Q.equal (hit_floor g d.marginals) d.value
  && Q.equal d.value (Q.inv d.rho_star)
