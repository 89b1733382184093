(** Closed float intervals with an explicit NaN possibility flag — the
    abstract domain backing [Abg_analysis]. A value is described by the
    set [[lo, hi]] (endpoints may be infinite) plus a flag saying whether
    NaN is also a possible outcome.

    Soundness contract: if [contains a x] and [contains b y], then the
    concrete result of the mirrored float operation on [x] and [y] is
    contained in the result interval. The transfer functions mirror the
    DSL evaluator exactly: division is {!Floatx.safe_div} (near-zero
    denominator yields 0), cube root is {!Floatx.cbrt}, and [mod_eq] is
    the evaluator's tolerant divisibility predicate. *)

type t = private { lo : float; hi : float; nan : bool }

val v : ?nan:bool -> float -> float -> t
(** [v lo hi] is the interval [[lo, hi]]. Raises [Invalid_argument] if
    [lo > hi] or either endpoint is NaN. [nan] defaults to [false]. *)

val const : float -> t
(** Singleton interval; a NaN constant maps to all floats and NaN. *)

val contains : t -> float -> bool
(** Membership; [contains i nan] is the NaN flag. *)

val has_inf : t -> bool
(** Whether either endpoint is infinite. *)

val join : t -> t -> t
(** Least upper bound (interval hull, NaN flags or-ed). *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t

val safe_div : t -> t -> t
(** Abstract counterpart of {!Floatx.safe_div}: the near-zero part of the
    denominator contributes exactly {0}, the sign-definite parts divide
    normally. *)

val cube : t -> t

val cbrt : t -> t
(** Abstract {!Floatx.cbrt}; endpoints widened by two ulps because libm's
    [pow] is not guaranteed correctly rounded. *)

(** Three-valued truth for abstract comparisons. *)
type verdict = True | False | Unknown

val lt : t -> t -> verdict
(** [lt a b] is [True] only when every concrete pair satisfies [x < y]
    and neither side can be NaN; [False] when no pair can (which holds
    even under possible NaN, since NaN comparisons are false). *)

val gt : t -> t -> verdict

val mod_eq : t -> t -> verdict
(** Abstract counterpart of the evaluator's tolerant [a % b = 0]. *)

val pp : Format.formatter -> t -> unit
