(** Summary statistics and ordinary least squares, used to check the
    paper's asymptotic and linearity claims quantitatively (F1–F3). *)

(** Arithmetic mean.
    @raise Invalid_argument on the empty list or any NaN/infinite sample
    (a single bad sample would otherwise poison every derived moment
    silently). *)
val mean : float list -> float

type fit = {
  slope : float;
  intercept : float;
  r_squared : float;  (** 1.0 = perfect linear relationship *)
}

(** Least-squares line through the points.
    @raise Invalid_argument with fewer than two distinct x values, or on
    any NaN/infinite coordinate. *)
val linear_fit : (float * float) list -> fit

(** [is_linear ?tolerance points]: R² of the linear fit at least
    [1 - tolerance] (default 1e-6).  Positive-slope linearity is the
    "power of the defender" claim. *)
val is_linear : ?tolerance:float -> (float * float) list -> bool

(** Fit y = c·x^e by log–log regression (positive data only); returns the
    exponent [e].  Used to check O(k·n) scaling empirically.
    @raise Invalid_argument on non-positive coordinates. *)
val power_law_exponent : (float * float) list -> float
