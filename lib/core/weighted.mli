(** Weighted attackers: a generalization beyond the paper in which vertex
    player i carries a positive damage weight w_i (a high-value worm vs a
    nuisance scanner).  The defender's profit becomes the expected
    arrested *damage* Σ_i w_i·[caught i]; each attacker still maximizes
    its own escape probability (scaling by its own weight changes
    nothing for it).

    The paper's k-matching construction survives verbatim: hit
    probabilities do not depend on weights (attacker side unchanged), and
    with every attacker uniform on IS the weighted load is W/|IS| per IS
    vertex (W = Σw), so support tuples still tie at the maximum
    k·W/|IS|.  Hence the gain law generalizes to IP_tp = k·W/|IS| — the
    defender's power multiplies expected damage interdicted, not just
    the body count.  Verified by tests and experiment T10. *)

open Tuple_instance
module Q = Exact.Q

type t = private { model : Model.t; weights : Q.t array }

(** @raise Invalid_argument unless exactly ν strictly positive weights. *)
val make : Model.t -> weights:Q.t list -> t

val total_weight : t -> Q.t

(** Weighted load mw_s(v) = Σ_i w_i·P(vp_i = v). *)
val expected_load : t -> Engine.Profile.mixed -> Netgraph.Graph.vertex -> Q.t

(** Weighted load of a tuple: Σ_{v ∈ V(t)} mw_s(v). *)
val expected_load_tuple : t -> Engine.Profile.mixed -> Tuple.t -> Q.t

(** Defender's expected arrested damage. *)
val expected_tp : t -> Engine.Profile.mixed -> Q.t

(** Attacker i's expected escaped damage: w_i·(1 − caught prob). *)
val expected_vp : t -> Engine.Profile.mixed -> int -> Q.t

(** Definitional weighted-NE check; the defender's best response
    maximizes weighted coverage over C(m,k) tuples (enumerated, guarded
    by [limit], default 2_000_000). *)
val verify_ne : ?limit:int -> t -> Engine.Profile.mixed -> Engine.Verify.verdict

(** The k-matching construction on a valid partition; an NE for every
    weight vector (see above). *)
val a_tuple : t -> Matching_nash.partition -> (Engine.Profile.mixed, string) result

(** Predicted equilibrium gain k·W/|IS|. *)
val predicted_gain : t -> is_size:int -> Q.t
