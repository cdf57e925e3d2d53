(** The polynomial-time reduction of Theorem 4.5 between k-matching NEs of
    Π_k(G) and matching NEs of Π₁(G) (Lemmas 4.6 and 4.8), plus the gain
    relation IP_tp(s) = k · IP_tp(s') (Corollaries 4.7 and 4.10). *)

open Tuple_instance

(** Lemma 4.6: from a k-matching NE of Π_k(G), the matching NE of Π₁(G)
    with the same attacker support and D'(tp) = E(D(tp)), uniform.
    @raise Invalid_argument if the input is not a k-matching NE support. *)
val tuple_to_edge : Engine.Profile.mixed -> Engine.Profile.mixed

(** Lemma 4.8: from a matching NE of Π₁(G), the k-matching NE of Π_k(G)
    via the cyclic construction.  [Error] if [k > |D'(tp)|] (see the
    feasibility refinement in DESIGN.md).
    @raise Invalid_argument if the input is not a matching NE support. *)
val edge_to_tuple : k:int -> Engine.Profile.mixed -> (Engine.Profile.mixed, string) result

(** Support-level round-trip check:
    [tuple_to_edge ∘ edge_to_tuple] preserves the attacker support and the
    defender's support edge set. *)
val round_trip_preserves : k:int -> Engine.Profile.mixed -> bool
