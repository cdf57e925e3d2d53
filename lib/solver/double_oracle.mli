(** Double-oracle (column-generation) computation of exact symmetric
    Nash equilibria, for strategy spaces too large to enumerate.

    The (ν+1)-player game reduces to a two-player zero-sum game: a
    symmetric profile (σ,…,σ,p) is an NE iff (σ,p) is an equilibrium of
    the matrix game in which the attacker picks a vertex, the defender a
    pure strategy, and the payoff is the interception indicator — the
    attacker's payoff [1 − P(Hit)] depends only on the defender's mix,
    and the defender's best response only on the aggregate attacker
    load (DESIGN.md §13 and SOLVERS.md give the full argument).

    The loop (McMahan et al. 2003; applied to network attack/defense by
    Kaźmierowski–Dziubiński, arXiv:2309.04288) never materializes the
    full matrix.  The attacker has only n pure strategies, so the
    RESTRICTED game keeps all n attacker vertices as rows, in vertex
    order, and only the defender's strategies grow: one-sided column
    generation.  Each iteration solves the restricted game exactly
    ({!Lp.Matrix_game}; after the first, by extending the previous
    solve's optimal tableau with the new column), then asks the
    defender's exact best-response oracle
    ({!Defender.Game.S.best_response_weighted}) for a strategy that
    intercepts more than the restricted value against the attacker mix.
    Such a strategy joins the columns; when there is none, the restricted
    equilibrium is an equilibrium of the full game, with a zero oracle
    gap in exact rationals — a certificate, not an ε-approximation.  The
    attacker side needs no oracle: with every vertex a row, LP
    optimality makes the least hit probability over all vertices equal
    the restricted value.  Termination is guaranteed: an improving
    strategy is never already a column, so every iteration but the last
    adds a new column of a finite space.  The LP's n constraint rows
    bound the defender support by n.

    Everything is deterministic in the instance and the initial
    strategies: columns grow in insertion order, the simplex and the
    oracle break ties by fixed rules, so repeated solves (and solves
    across worker processes) agree to the bit, as the [do.*] Obs
    counters require. *)

module Q = Exact.Q

module Make (G : Defender.Game.S) : sig
  (** One loop iteration, as reported to [?on_iteration]: [value] is the
      restricted-game interception value, [lower]/[upper] the exact
      bounds certified for the FULL game at this point ([lower] is
      always [value]: every vertex is a row; convergence is
      [lower = upper]), and [rows]/[cols] the restricted matrix shape
      that was solved ([rows] is always n). *)
  type iteration = {
    iteration : int;  (** 1-based *)
    value : Q.t;
    lower : Q.t;
    upper : Q.t;
    rows : int;
    cols : int;
  }

  type stats = {
    iterations : int;
    warm_solves : int;
        (** restricted solves offered the previous solve's tableau:
            every one after the first, [iterations − 1];
            {!Lp.Matrix_game} still solves one cold when the payoff
            shift moved *)
    final_cols : int;  (** defender strategies in the final restricted game *)
  }

  (** An exact symmetric NE: every attacker plays [sigma], the defender
      plays [tp] (positive probabilities only), and [value] is the
      per-attacker interception probability — the defender's gain is
      [ν·value].  The defender support never exceeds n strategies
      regardless of the space size. *)
  type result = {
    value : Q.t;
    sigma : Dist.Finite.t;
    tp : (G.Strategy.t * Q.t) list;
    stats : stats;
  }

  (** [solve inst] runs the loop to convergence.

      [?init_strategies] seeds the restricted defender strategies
      (default: the round-0 rotation strategy); seeding with the support
      of a conjectured equilibrium makes the loop a one-iteration checker
      of that conjecture.  [?on_iteration] sees every iteration in order
      — convergence instrumentation ([Sim.Convergence]) hooks in here.
      A cap of 10 000 iterations is a safety valve only, termination
      being guaranteed.
      @raise Invalid_argument on an unplayable seed strategy.
      @raise Failure when the iteration cap is exhausted. *)
  val solve :
    ?init_strategies:G.Strategy.t list ->
    ?on_iteration:(iteration -> unit) ->
    G.instance ->
    result

  (** Package a result as a full (ν+1)-player mixed profile — every
      attacker on [sigma] — ready for the engine's [Verify.mixed_ne], gain/escape
      accounting, and profile I/O. *)
  val profile :
    G.instance -> result -> Defender.Game_engine.Make(G).Profile.mixed
end
