(** The paper's headline quantity: the defender's gain and how it scales
    with the power k ("the power of the defender").

    In any k-matching NE with attacker support IS:
    IP_tp = k·ν / |IS| (Corollaries 4.7/4.10) — linear in k — and each
    attacker escapes with probability 1 − k/|IS|. *)

open Tuple_instance
module Q = Exact.Q

(** Expected number of arrested attackers, from the profile (exact). *)
val defender_gain : Engine.Profile.mixed -> Q.t

(** Predicted k-matching-NE gain k·ν/|IS| for the profile's model and an
    attacker support of the given size. *)
val predicted_gain : Model.t -> is_size:int -> Q.t

(** Expected escape probability of attacker [i] from the profile. *)
val escape_probability : Engine.Profile.mixed -> int -> Q.t

(** [gain_ratio high low] = IP_tp(high) / IP_tp(low); equals k_high/k_low
    across the reduction (Theorem 4.5). *)
val gain_ratio : Engine.Profile.mixed -> Engine.Profile.mixed -> Q.t

(** Fraction of attackers arrested: gain/ν. *)
val protection_quality : Engine.Profile.mixed -> Q.t

(** Price of Defense (Mavronicolas et al., MFCS 2006 follow-up line):
    ν / IP_tp — how many attackers operate per arrested one.  For a
    k-matching NE this is |IS|/k, so the defender's power k divides the
    price down linearly. @raise Division_by_zero on a zero-gain profile. *)
val price_of_defense : Engine.Profile.mixed -> Q.t

(** Predicted Price of Defense |IS|/k of a k-matching NE. *)
val predicted_price_of_defense : Model.t -> is_size:int -> Q.t
