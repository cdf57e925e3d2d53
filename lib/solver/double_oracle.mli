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
    full matrix: it keeps RESTRICTED sets of attacker vertices and
    defender strategies, solves the restricted game exactly
    ({!Lp.Matrix_game}, warm-restarted across column growth), then asks
    each side's exact best-response oracle for a profitable deviation
    against the opponent's current mix — the attacker side by a linear
    scan of per-vertex hit probabilities, the defender side through
    {!Defender.Game.S.best_response_weighted}.  Strict improvements
    join the restricted sets; when neither oracle improves, the
    restricted equilibrium is an equilibrium of the full game, with a
    zero oracle gap in exact rationals — a certificate, not an
    ε-approximation.  Termination is guaranteed: an improving deviation
    is never already in the restricted set, so each iteration strictly
    grows one of two finite sets.

    Everything is deterministic in the instance and the initial sets:
    restricted sets grow in insertion order, the simplex and both
    oracles break ties by fixed rules, so repeated solves (and solves
    across worker processes) agree to the bit, as the [do.*] Obs
    counters require. *)

module Q = Exact.Q

module Make (G : Defender.Game.S) : sig
  (** One loop iteration, as reported to [?on_iteration]: [value] is the
      restricted-game interception value, [lower]/[upper] the exact
      bounds the two oracles certify for the FULL game at this point
      ([lower ≤ value ≤ upper] always; convergence is [lower = upper]),
      and [rows]/[cols] the restricted matrix shape that was solved. *)
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
    oracle_calls : int;  (** 2 per iteration: one per side *)
    warm_solves : int;
        (** restricted solves entered with a reusable simplex basis
            (row set unchanged since the previous solve) *)
    final_rows : int;  (** attacker vertices in the final restricted game *)
    final_cols : int;  (** defender strategies in the final restricted game *)
  }

  (** An exact symmetric NE: every attacker plays [sigma], the defender
      plays [tp] (positive probabilities only), and [value] is the
      per-attacker interception probability — the defender's gain is
      [ν·value].  The defender support never exceeds [final_rows]+1
      strategies regardless of the space size. *)
  type result = {
    value : Q.t;
    sigma : Dist.Finite.t;
    tp : (G.Strategy.t * Q.t) list;
    stats : stats;
  }

  (** [solve inst] runs the loop to convergence.

      [?init_vertices]/[?init_strategies] seed the restricted sets
      (defaults: vertex 0 and the round-0 rotation strategy); seeding
      with the supports of a conjectured equilibrium makes the loop a
      one-iteration checker of that conjecture.  [?on_iteration] sees
      every iteration in order — convergence instrumentation
      ([Sim.Convergence]) hooks in here.  [?max_iterations] (default
      10_000) is a safety valve only, termination being guaranteed.
      @raise Invalid_argument on out-of-range seed vertices or an
      unplayable seed strategy.
      @raise Failure when [max_iterations] is exhausted. *)
  val solve :
    ?max_iterations:int ->
    ?init_vertices:Netgraph.Graph.vertex list ->
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
