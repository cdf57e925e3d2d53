(** Equilibrium sensitivity: how fast does a Nash equilibrium degrade
    under strategy perturbation?

    Operationally relevant: a deployed scan schedule drifts (clock skew,
    operator overrides).  The regret of a profile is the largest gain any
    single player could realize by a unilateral best response; it is 0
    exactly at an NE, and a profile with regret ≤ ε is an ε-NE.
    Experiment F5 shows regret grows linearly in the tilt ε around the
    constructed equilibria. *)

open Tuple_instance
module Q = Exact.Q

type regret = {
  attacker : Q.t;  (** max over vertex players of best-response gain *)
  defender : Q.t;  (** defender's best-response gain *)
}

(** Exact regrets; the defender side enumerates the tuple space
    ({!Tuple_instance.Engine.Best_response.tp_best_value_exhaustive}).
    @raise Invalid_argument when the tuple space exceeds
    {!Game_engine.enumeration_limit}. *)
val regret : Engine.Profile.mixed -> regret

val max_regret : regret -> Q.t

(** [tilt_tp profile ~epsilon ~towards] replaces the defender's strategy
    by [(1-epsilon)·current + epsilon·point towards].
    @raise Invalid_argument unless [0 <= epsilon <= 1] and [towards] has
    the right size. *)
val tilt_tp : Engine.Profile.mixed -> epsilon:Q.t -> towards:Tuple.t -> Engine.Profile.mixed
