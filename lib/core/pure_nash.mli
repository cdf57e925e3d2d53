(** Pure Nash equilibria of Π_k(G): Theorem 3.1 and Corollaries 3.2–3.3.

    Π_k(G) has a pure NE iff G has an edge cover of size k (iff
    ρ(G) ≤ k ≤ m); in particular no instance with n ≥ 2k + 1 has one.
    The definitional checks ([is_pure_ne], [exists_brute_force]) are
    game-generic and live in [Tuple_instance.Engine.Pure]. *)

(** Theorem 3.1 decision, in polynomial time (Corollary 3.2). *)
val exists : Model.t -> bool

(** A pure NE when one exists: the defender plays an edge cover of size k
    (catching everyone wherever they stand); attackers' choices are
    irrelevant and default to vertex 0. *)
val construct : Model.t -> Tuple_instance.Engine.Profile.pure option

(** Corollary 3.3: [n ≥ 2k+1] forces non-existence. *)
val cor33_applies : Model.t -> bool
