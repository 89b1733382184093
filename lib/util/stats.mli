(** Descriptive statistics (numerically careful: Welford updates,
    sorted-copy quantiles). *)

val mean : float array -> float
(** Welford running mean; [nan] on empty input. *)

val variance : float array -> float
(** Sample variance (n-1 denominator); 0 below two samples. *)

val stddev : float array -> float

val quantile : float array -> float -> float
(** Linear-interpolation quantile, [q] in [0, 1]. Non-empty input. *)

val median : float array -> float

val median_fn : (int -> float) -> len:int -> float
(** [median_fn f ~len] is the median of [f 0 .. f (len-1)] without an
    intermediate caller-side array. *)

val linear_regression : float array -> float array -> float * float
(** Least-squares [(slope, intercept)]. Equal non-zero lengths. *)

val linear_regression_fn :
  (int -> float) -> (int -> float) -> lo:int -> len:int -> float * float
(** [linear_regression_fn fx fy ~lo ~len] — {!linear_regression} over the
    points [(fx i, fy i)], [i] in [lo .. lo+len-1], without materializing
    sub-arrays; bit-identical to regressing over copies. [len > 0]. *)

val pearson : float array -> float array -> float
(** Correlation coefficient; 0 when either series is constant. *)
