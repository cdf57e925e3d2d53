(** Exact Nash solutions of finite two-player zero-sum matrix games.

    [solve m] takes the m×n payoff matrix of the ROW player (the
    maximizer; the column player minimizes the same quantity) and
    returns the game value together with optimal mixed strategies for
    both sides, all as exact rationals — by the minimax theorem the pair
    is a Nash equilibrium and the value is unique.  The computation is
    one primal-simplex run ({!Simplex}): the matrix is shifted so every
    entry is ≥ 1, the column player's strategy is read off the packing
    optimum [max Σ w subject to M'w ≤ 1], and the row player's off the
    dual; exact arithmetic makes strong duality an equality, not an
    approximation.  The simplex keeps a fraction-free integer tableau
    over one common denominator (see {!Simplex}); its Bland pivots are
    those of the plain rational tableau, so the value and both
    strategies are the same rationals either way.

    This is the restricted-game kernel of the double-oracle solver
    ({!Solver.Double_oracle}), which re-solves a slowly growing matrix
    every iteration.  Each solution carries its optimal simplex tableau
    as a {!warm} token; a later solve of the same rows with columns
    appended prices only the newcomers into that tableau
    ({!Simplex.extend}) instead of starting the simplex over. *)

module Q = Exact.Q

type warm
(** A warm-restart token: the optimal simplex tableau of a {!solve},
    with the matrix shape and payoff shift it was computed for. *)

type solution = {
  value : Q.t;  (** the game value, payoff to the row maximizer *)
  row_strategy : Q.t array;  (** maximizer mix over rows; sums to 1 *)
  col_strategy : Q.t array;  (** minimizer mix over columns; sums to 1 *)
  warm : warm;  (** this solve's tableau, for a later [solve ~warm] *)
}

(** [solve ?warm m] computes value and optimal mixed strategies of the
    zero-sum game with row-maximizer payoff matrix [m] (m×n, m,n ≥ 1).

    When [?warm] is given, the new matrix has the token's row count and
    at least its column count, and the payoff shift is unchanged, [m] is
    taken to extend the token's matrix by appended columns only (earlier
    columns unchanged in meaning — the caller's promise): the old
    tableau is extended with the new columns, which enter at weight 0,
    so the old optimum stays feasible and the simplex merely prices the
    newcomers.  Otherwise — a different row count, fewer columns, or a
    shift that moved because the minimum entry fell — the solve is cold.
    Either way the result is an exact equilibrium at the unique game
    value; in degenerate games with several optimal bases the warm and
    cold paths may return different (equally optimal) strategies.  The
    token is not consumed: it can warm any number of solves.
    @raise Invalid_argument on an empty or ragged matrix. *)
val solve : ?warm:warm -> Q.t array array -> solution

(** [is_equilibrium m sol] checks the certificate exactly: both
    strategies are distributions, no pure row deviation exceeds
    [sol.value] against [sol.col_strategy], and no pure column deviation
    drops below it against [sol.row_strategy]. *)
val is_equilibrium : Q.t array array -> solution -> bool
