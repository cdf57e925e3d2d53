(** Exact rational arithmetic: a two-representation numeric tower.

    Values are kept normalized (denominator strictly positive, numerator
    and denominator coprime) in one of two representations: a fraction of
    native 63-bit ints — the fast path every hot loop stays on — or, when
    any component outgrows the native range, an arbitrary-precision
    fraction over {!Bigint}/{!Bignat}.  Promotion is transparent: an
    operation whose native intermediate would overflow is replayed over
    the big representation instead of failing, and results are demoted
    back to the native representation whenever they fit, so the
    representation of a value is canonical.  Arithmetic therefore never
    raises {!Overflow} — results are always exact — and the seed
    limitation (63-bit fractions crashing on long fictitious-play
    averages, uniform mixes over huge tuple spaces, or LP pivot growth)
    is gone. *)

type t

(** Raised only by the native-int {e accessors} ({!num}, {!den},
    {!to_int_exn}) when the value does not fit the native range.
    Arithmetic never raises this: overflowing operations promote to the
    arbitrary-precision representation instead. *)
exception Overflow

(** Raised by {!make}, {!of_big}, {!div} and {!inv} on a zero
    denominator. *)
exception Division_by_zero

val zero : t
val one : t
val minus_one : t

(** [make num den] is the normalized rational [num/den].
    @raise Division_by_zero if [den = 0]. *)
val make : int -> int -> t

(** [of_int n] is the rational [n/1]. *)
val of_int : int -> t

(** [of_big ~num ~den] is the normalized arbitrary-precision rational
    [num/den] (demoted to the native representation when it fits).
    @raise Division_by_zero if [den] is zero. *)
val of_big : num:Bigint.t -> den:Bigint.t -> t

(** The normalized numerator/denominator pair, in arbitrary precision
    ([den] as a natural — it is always positive).  Total. *)
val to_big : t -> Bigint.t * Bignat.t

(** Numerator of the normalized representation.
    @raise Overflow when it exceeds the native range. *)
val num : t -> int

(** Denominator of the normalized representation; always [> 0].
    @raise Overflow when it exceeds the native range. *)
val den : t -> int

(** [true] iff the value is held in the native fast-path representation
    (numerator and denominator both native ints).  Diagnostic — used by
    the promotion tests and the B13 microbenchmark. *)
val is_small : t -> bool

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

(** @raise Division_by_zero if the divisor is zero. *)
val div : t -> t -> t

val neg : t -> t

(** Multiplicative inverse. @raise Division_by_zero on zero. *)
val inv : t -> t

(** [mul_int q n] is [q * n]. *)
val mul_int : t -> int -> t

(** [div_int q n] is [q / n]. @raise Division_by_zero if [n = 0]. *)
val div_int : t -> int -> t

(** [bareiss p a f b d] is the integer [(p·a − f·b) / d] — the update of
    one entry in a fraction-free (Bareiss) elimination step, where the
    division is exact.  It runs natively, with no gcd, when both
    products and their difference fit the native range (checked
    exactly); a step where one of them overflows is replayed over
    {!Bigint}, counted like the other operations' promotions, and its
    result demoted when it fits.
    @raise Invalid_argument if an operand is not an integer or [d] does
    not divide [p·a − f·b].
    @raise Division_by_zero if [d] is zero. *)
val bareiss : t -> t -> t -> t -> t -> t

(** [binomial n k] is the exact binomial coefficient C(n, k) as an
    integer rational, at any magnitude (the strategy-space counters use
    it instead of wrap-detecting native products).  [0] when [k > n].
    @raise Invalid_argument on negative arguments. *)
val binomial : int -> int -> t

val abs : t -> t

(** [-1], [0] or [1]. *)
val sign : t -> int

val compare : t -> t -> int
val equal : t -> t -> bool
val ( = ) : t -> t -> bool
val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool
val min : t -> t -> t
val max : t -> t -> t

val is_zero : t -> bool

(** [true] iff the denominator is 1. *)
val is_integer : t -> bool

(** Exact integer value. @raise Invalid_argument if not an integer.
    @raise Overflow if integral but outside the native range. *)
val to_int_exn : t -> int

(** Nearest double (scaled division — correct even when both components
    exceed the float range). *)
val to_float : t -> float

(** Sum of a list; [zero] for the empty list. *)
val sum : t list -> t

(** Minimum of a non-empty list. @raise Invalid_argument on []. *)
val min_list : t list -> t

(** Maximum of a non-empty list. @raise Invalid_argument on []. *)
val max_list : t list -> t

(** ["num/den"], or just ["num"] when the value is an integer.  Exact at
    any magnitude — the inverse of {!of_string}. *)
val to_string : t -> string

(** Parse [to_string]'s format — an optionally-signed decimal integer
    with an optional [/den] part — at any magnitude.
    @raise Invalid_argument on malformed input or a zero denominator. *)
val of_string : string -> t

(** [of_string] returning [None] instead of raising. *)
val of_string_opt : string -> t option

val pp : Format.formatter -> t -> unit
