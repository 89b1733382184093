(** Unit (dimensional-analysis) checking of expressions (§4.1) over a
    finite integer-exponent unit domain — the quantifier-free
    finite-domain restriction the paper adopts, with its documented
    consequence that cube roots of non-cube units are untypable (the
    Cubic limitation, §5.5). *)

val constant_units : Abg_util.Units.t list
(** Units a bare (non-zero) constant may carry: scalar, seconds, or
    per-second. Zero is fully unit-polymorphic. *)

val check : ?limit:int -> Expr.num -> expected:Abg_util.Units.t -> bool
(** Can the expression denote a quantity in [expected]? Units are
    computed bottom-up with constants ranging over {!constant_units};
    order comparisons need a shared unit on both sides, the modular
    predicate is exempt (the paper's own BBR result compares
    [CWND % 2.7]). [limit] bounds the absolute exponent (default 3).
    The pipeline uses [expected = Units.bytes] for cwnd-ack handlers. *)
