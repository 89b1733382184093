(** Dimensional analysis for DSL expressions (§4.1): integer exponent
    vectors over the two base dimensions of congestion control, bytes and
    seconds. Integer exponents keep the enumeration formula in a
    quantifier-free finite domain — with the documented consequence that
    cube roots of non-cube units are unrepresentable (§5.5). *)

type t = { bytes : int; seconds : int }

val dimensionless : t
val bytes : t
val seconds : t
val rate : t
(** Bytes per second. *)

val equal : t -> t -> bool
val mul : t -> t -> t
val div : t -> t -> t
val pow : t -> int -> t

val cbrt : t -> t option
(** [Some] when every exponent is divisible by 3. *)

val to_string : t -> string

val domain : limit:int -> t list
(** All units with absolute exponents up to [limit] — the finite domain of
    the SAT encoding. *)
