(** Deterministic pseudo-random number generation.

    A dependency-free xoshiro256** generator seeded through SplitMix64, as
    recommended by Blackman & Vigna.  Every simulator and random-graph
    generator in this project threads an explicit [Rng.t] so runs are
    reproducible from a single integer seed. *)

type t

(** [create seed] builds a generator whose full 256-bit state is derived
    from [seed] with SplitMix64 (so nearby seeds give unrelated streams). *)
val create : int -> t

(** [int t bound] is uniform on [0, bound); rejection-sampled, unbiased.
    @raise Invalid_argument if [bound <= 0]. *)
val int : t -> int -> int

(** [int_in_range t ~lo ~hi] is uniform on the inclusive range.
    @raise Invalid_argument if [lo > hi]. *)
val int_in_range : t -> lo:int -> hi:int -> int

(** Uniform float in [0, 1). *)
val float : t -> float

(** Bernoulli draw. @raise Invalid_argument unless [0 <= p <= 1]. *)
val bool_with_prob : t -> float -> bool

(** Fair coin. *)
val bool : t -> bool

(** In-place Fisher–Yates shuffle. *)
val shuffle_in_place : t -> 'a array -> unit

(** Fresh shuffled copy of an array. *)
val shuffle : t -> 'a array -> 'a array

(** Uniformly random element. @raise Invalid_argument on empty array. *)
val choose : t -> 'a array -> 'a

(** [sample_without_replacement t ~count arr] is [count] distinct positions'
    elements in random order. @raise Invalid_argument if [count] exceeds the
    array length or is negative. *)
val sample_without_replacement : t -> count:int -> 'a array -> 'a array

(** [weighted_index t weights] draws an index with probability proportional
    to its (non-negative) weight. @raise Invalid_argument if weights are
    empty, negative, or all zero. *)
val weighted_index : t -> float array -> int
