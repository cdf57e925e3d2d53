(** The max-min ("paranoid") defense of the Edge model, for ARBITRARY
    graphs — an extension beyond the paper's matching equilibria.

    The defender choosing a distribution p over single edges to maximize
    the worst-case interception probability min_v Hit(v) solves a linear
    program whose value is 1/ρ*(G), with ρ* the *fractional* minimum
    edge-cover number: scale an optimal fractional edge cover x to a
    distribution p = x/ρ*, so Hit(v) = Σ_{e∋v} x_e / ρ* ≥ 1/ρ*, and no
    distribution beats 1/ρ* (certified by the dual fractional vertex
    packing y: Σ_v y_v·Hit(v) ≤ Σ_e p_e (y_u + y_v) ≤ 1).

    Relation to the paper: on graphs admitting matching NEs the
    equilibrium hit floor is 1/|IS| and (bipartite case) ρ* = ρ = |IS|,
    so the NE defense is exactly max-min optimal.  On graphs with NO
    matching NE (odd cycles, cliques, Petersen) the LP still yields the
    optimal conservative defense — e.g. min-hit 2/5 on C₅, strictly
    better than any integral-cover schedule's 1/3.  Experiment T8.

    Everything is computed by exact-rational simplex ({!Lp.Simplex}), so
    values are certificates. *)

open Netgraph
module Q = Exact.Q

type defense = {
  value : Q.t;  (** max-min interception probability = 1/ρ*(G) *)
  rho_star : Q.t;  (** fractional edge-cover number *)
  marginals : Q.t array;  (** edge distribution, indexed by edge id, sums to 1 *)
  cover : Q.t array;  (** the optimal fractional edge cover x (= ρ*·marginals) *)
  packing : Q.t array;  (** dual certificate y, indexed by vertex *)
}

(** @raise Invalid_argument on a graph with an isolated vertex. *)
val solve : Graph.t -> defense

(** [vertex_incidence_sums g w]: per-vertex sums Σ_{e ∋ v} w(e) of
    arbitrary per-edge weights — the hit probabilities of a fractional
    edge schedule.
    @raise Invalid_argument unless [w] has one weight per edge. *)
val vertex_incidence_sums : Graph.t -> Q.t array -> Q.t array

(** min_v Σ_{e∋v} marginals(e): the achieved hit floor (= [value]). *)
val hit_floor : Graph.t -> Q.t array -> Q.t

(** Sanity of a [defense]: cover feasibility, packing feasibility, zero
    duality gap, floor attained.  Used by tests; true for {!solve}. *)
val certified : Graph.t -> defense -> bool
