(** Convergence traces for iterative equilibrium computations.

    A recorder accumulates one {!point} per iteration — the solver's
    current value estimate bracketed by exact lower/upper bounds — and
    answers the questions the convergence experiments (bench family D)
    ask: the per-iteration gap series, the running best-so-far envelope
    (monotone by construction, since bounds once certified never expire),
    and whether/when the trace converged (gap exactly zero, in rationals
    — no epsilon).  Feed it from [Solver.Double_oracle]'s
    [?on_iteration] hook; the recorder itself is solver-agnostic. *)

module Q = Exact.Q

type point = {
  iteration : int;  (** 1-based *)
  value : Q.t;  (** the solver's current estimate *)
  lower : Q.t;  (** certified lower bound at this iteration *)
  upper : Q.t;  (** certified upper bound at this iteration *)
}

type t

val create : unit -> t

(** Append a point.  @raise Invalid_argument if its [iteration] is not
    exactly one past the previous point's (traces are gapless). *)
val record : t -> point -> unit

val length : t -> int

(** The recorded points, in iteration order. *)
val points : t -> point list

val final : t -> point option

(** Running best (smallest) certified gap after each iteration: the
    pointwise minimum of [max lower so far] subtracted from [min upper
    so far].  Non-increasing for any bound sequence. *)
val envelope : t -> Q.t list

(** First iteration whose envelope gap is exactly zero, if any. *)
val converged_at : t -> int option
