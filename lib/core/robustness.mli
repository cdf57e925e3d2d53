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

(** Exact regrets; the defender side uses the given
    {!Tuple_instance.Engine.Verify.mode}-style enumeration limit.
    @raise Invalid_argument when the tuple space exceeds [limit]
    (default 2_000_000). *)
val regret : ?limit:int -> Engine.Profile.mixed -> regret

val max_regret : regret -> Q.t

(** [is_epsilon_ne ?limit profile ~epsilon]: every unilateral deviation
    improves by at most [epsilon]. *)
val is_epsilon_ne : ?limit:int -> Engine.Profile.mixed -> epsilon:Q.t -> bool

(** [tilt_vp profile i ~epsilon ~towards] replaces player [i]'s strategy
    by [(1-epsilon)·current + epsilon·point towards].
    @raise Invalid_argument unless [0 <= epsilon <= 1]. *)
val tilt_vp :
  Engine.Profile.mixed ->
  int ->
  epsilon:Q.t ->
  towards:Netgraph.Graph.vertex ->
  Engine.Profile.mixed

(** Same for the defender, tilting toward one tuple of its support.
    @raise Invalid_argument unless [0 <= epsilon <= 1] and [towards] has
    the right size. *)
val tilt_tp : Engine.Profile.mixed -> epsilon:Q.t -> towards:Tuple.t -> Engine.Profile.mixed
