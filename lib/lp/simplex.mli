(** Exact linear programming over rationals: primal simplex with Bland's
    anti-cycling rule on problems in packing form

      maximize    c . x
      subject to  A x <= b,   x >= 0,   with b >= 0.

    The non-negativity of [b] makes the all-slack basis feasible, so no
    phase-1 is needed; this covers the fractional covering/packing duals
    the defender analysis requires (see {!Defender.Minimax}) and the
    restricted matrix games of {!Matrix_game}.  All arithmetic is exact,
    so returned optima are certificates, not approximations.

    The tableau is fraction-free (Bareiss): every row is first scaled by
    the least positive integer that clears its denominators (and [c] and
    each appended column likewise), and every entry is then an integer
    N standing for N/d, where d is the last pivot element — |det B| of
    the scaled problem.  A pivot on p is the exact integer update
    (p·N − N_j·N_r)/d ({!Exact.Q.bareiss}) with no gcd; only the
    read-off of [x], [dual] and [objective] divides out d and the
    scaling.  Positive scaling changes no sign and no ratio order, so
    Bland's rule picks, index for index, the pivots it picks on the
    plain rational tableau, and every answer is the same rational.
    Each pivot counts one [lp.pivots] (a deterministic {!Obs} counter).

    An optimum keeps its tableau, and {!extend} re-solves the same rows
    with columns appended by pricing the newcomers into that tableau —
    the column-generation step of the double-oracle solver — instead of
    starting over from the all-slack basis.  One pivot routine and one
    Bland loop serve both entry points. *)

module Q = Exact.Q

type tableau
(** The optimal simplex tableau of a solved problem.  Immutable from the
    outside: {!extend} copies it, so one solution can be extended any
    number of times. *)

type solution = {
  objective : Q.t;
  x : Q.t array;  (** primal optimum, length = #columns *)
  dual : Q.t array;
      (** dual optimum (one multiplier per row), read off the slack
          reduced costs; certifies optimality by strong duality *)
  tableau : tableau;  (** the optimal tableau, for {!extend} *)
}

type outcome =
  | Optimal of solution
  | Unbounded

(** [maximize ~a ~b ~c] solves the LP above from the all-slack basis.
    [a] is the m×n constraint matrix (rows of length n), [b] the m
    right-hand sides (all ≥ 0), [c] the n objective coefficients.
    @raise Invalid_argument on ragged input or a negative entry in [b]. *)
val maximize : a:Q.t array array -> b:Q.t array -> c:Q.t array -> outcome

(** [extend sol ~a ~c] solves the problem [sol] is the optimum of with k
    columns appended: [a] is the m×k block of new constraint columns
    (one row of length k per constraint row) and [c] their k objective
    coefficients; the rows and [b] are unchanged.  The old optimum stays
    feasible with the new columns at 0, so Bland's rule starts from its
    basis: each new column's tableau entries are d·B⁻¹a_j and its
    reduced cost d·c_j − (d·y)·a_j, read off the slack block (d·B⁻¹)
    and the slack reduced costs (−d·y), in the scaled problem.
    The result is the solution {!maximize} would reach from that basis
    on the grown problem; its objective equals the cold optimum, while
    [x] and [dual] may be another optimal vertex when the optimum is
    degenerate.  [sol] itself is left untouched.
    @raise Invalid_argument if [a] does not have one row of length
    [Array.length c] per constraint row. *)
val extend : solution -> a:Q.t array array -> c:Q.t array -> outcome

(** [feasible ~a ~b ~x]: does [x ≥ 0] satisfy [A x ≤ b]? *)
val feasible : a:Q.t array array -> b:Q.t array -> x:Q.t array -> bool

(** Objective value [c . x]. *)
val value : c:Q.t array -> x:Q.t array -> Q.t
