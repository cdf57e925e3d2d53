(** Computing equilibrium probabilities from supports alone.

    The paper's equilibria carry uniform distributions by construction;
    this module answers the more general question: *given* a candidate
    attacker support S (shared by all ν symmetric attackers) and defender
    support T, do probability weights exist making the pair a Nash
    equilibrium?  The indifference conditions of Theorem 3.4 are linear
    and decouple —

    - defender weights p must equalize Hit(v) across S (|S|−1 equations
      plus normalization, unknowns indexed by T);
    - the attackers' common strategy σ must equalize m_s(t) across T
      (|T|−1 equations plus normalization, unknowns indexed by S)

    — so each side is an exact linear solve ({!Lp.Gauss}).  If both
    systems have a unique solution with positive weights, the resulting
    profile is checked against the full best-response conditions
    ([Tuple_instance.Engine.Verify]).  Underdetermined systems are
    reported as [`Ambiguous] rather than guessed at.

    With support enumeration on top ({!search}) this is a complete solver
    for symmetric equilibria of small instances — it finds non-uniform
    equilibria the paper's constructions cannot produce. *)

open Netgraph
open Tuple_instance

type failure =
  [ `Ambiguous  (** indifference system underdetermined *)
  | `Inconsistent  (** no weights equalize the payoffs *)
  | `Nonpositive  (** unique weights exist but are not all > 0 *)
  | `Not_equilibrium of string  (** weights found but a deviation beats them *) ]

val failure_to_string : failure -> string

(** [solve model ~vp_support ~tp_support] attempts the construction.
    The defender side of the best-response check enumerates C(m,k)
    tuples ([Verify.Exhaustive], guarded by
    {!Game_engine.enumeration_limit}).
    @raise Invalid_argument on empty supports or out-of-range members,
    or when C(m,k) exceeds the guard. *)
val solve :
  Model.t ->
  vp_support:Graph.vertex list ->
  tp_support:Tuple.t list ->
  (Engine.Profile.mixed, failure) result

(** Exhaustive search over supports for symmetric equilibria: every
    non-empty vertex subset S paired with every equal-cardinality
    defender support drawn from [candidate_tuples] (equal cardinality is
    what makes both indifference systems square, hence decidable by
    {!solve}).  Returns the verified equilibria found, one per support
    pair.  Exponential; guarded to [n ≤ 8] and
    [|candidate_tuples| ≤ 10]. @raise Invalid_argument beyond the
    guards. *)
val search :
  Model.t ->
  candidate_tuples:Tuple.t list ->
  Engine.Profile.mixed list
