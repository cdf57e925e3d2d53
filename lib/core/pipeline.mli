(** Theorem 5.1: the bipartite application, end to end.

    For bipartite G: compute a minimum vertex cover VC by König, set
    IS = V \ VC, and run [A_tuple].  Total time
    max{O(k·n), O(m√n)} — dominated by Hopcroft–Karp. *)

open Tuple_instance

type outcome = {
  profile : Engine.Profile.mixed;
  partition : Matching_nash.partition;
  edge_profile : Engine.Profile.mixed;  (** the intermediate Π₁ matching NE *)
}

(** @raise Invalid_argument if the model's graph is not bipartite.
    [Error] when [k > |IS|] (feasibility refinement). *)
val solve : Model.t -> (outcome, string) result

(** Largest power admitting a k-matching NE on bipartite G: |IS| of the
    König partition. @raise Invalid_argument if not bipartite. *)
val max_feasible_k : Netgraph.Graph.t -> int
