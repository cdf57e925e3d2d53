(** Finite probability distributions over integer-keyed outcomes with exact
    rational probabilities.

    Mixed strategies of both vertex players (over vertices) and the tuple
    player (over tuple indices) are values of this type; keys are dense in
    neither case, so the distribution stores only its support. *)

type t

(** [make pairs] builds a distribution from [(outcome, probability)] pairs.
    Zero-probability pairs are dropped; duplicate outcomes are summed.
    @raise Invalid_argument if a probability is negative or the total is
    not exactly 1. *)
val make : (int * Exact.Q.t) list -> t

(** Uniform distribution over the given outcomes (deduplicated).
    @raise Invalid_argument on the empty list. *)
val uniform : int list -> t

(** Point mass. *)
val point : int -> t

(** Probability of an outcome (zero off support). *)
val prob : t -> int -> Exact.Q.t

(** Support, sorted ascending; probabilities are strictly positive. *)
val support : t -> int list

val support_size : t -> int

(** [true] iff the distribution is a point mass. *)
val is_pure : t -> bool

(** Expectation of a rational-valued function over the support. *)
val expect : t -> f:(int -> Exact.Q.t) -> Exact.Q.t

(** Left fold over the [(outcome, probability)] pairs, in outcome order. *)
val fold : t -> init:'a -> f:('a -> int -> Exact.Q.t -> 'a) -> 'a

(** Iterate over the [(outcome, probability)] pairs, in outcome order. *)
val iter : t -> f:(int -> Exact.Q.t -> unit) -> unit

(** Map outcomes (merging collisions). *)
val map : t -> f:(int -> int) -> t

val equal : t -> t -> bool

(** Sample an outcome (CDF inversion on exact probabilities converted to
    floats; exactness is irrelevant for sampling). *)
val sample : Prng.Rng.t -> t -> int

val pp : Format.formatter -> t -> unit
