(** Semantic equivalence of handler pairs, proved bit-exactly — the
    prover behind lint's [branch-equivalent] rule and the first step of
    [simplify --validate]'s translation validation.

    A proof holds over the zone of the given {!Relint.t}: either the
    relational normal forms coincide canonically, or the SAT-enumerated
    guard skeleton specializes both sides to the same canonical form on
    every reachable guard-truth combination. No rounding tolerance is
    involved; [2 * x] vs [x + x] is deliberately not provable. Holes are
    interchangeable placeholders ({!Canonical}'s convention).

    Obs counters: [analysis.equiv_checks/_equal]. *)

open Abg_dsl

val rnorm : Relint.t -> Expr.num -> Expr.num
(** Relational normal form: guards the zone decides (including under the
    refining assumptions of enclosing guards) are folded, branches with
    equal normal forms collapsed. Bit-exact: evaluates identically to
    the input on every environment of the zone. *)

val proves_equal : Relint.t -> Expr.num -> Expr.num -> bool
(** [proves_equal rel a b] — [a] and [b] evaluate bit-identically on
    every environment of the zone, by one of the two proofs above.
    [false] means no proof was found, not that the two differ. *)

val hole_fill : Relint.t -> int -> float
(** The sampling clients' hole filling: every hole gets the midpoint of
    the zone's hole interval, clamped to [[-1e6, 1e6]]. *)

type validation = [ `Proved | `Sampled of int ]

val validate_rewrite :
  ?draws:int ->
  Relint.t ->
  original:Expr.num ->
  rewritten:Expr.num ->
  (validation, Env.t) result
(** Translation validation for the simplifier. [`Proved] is a
    {!proves_equal} proof; [`Sampled n] means [n] non-degenerate
    zone-consistent draws agreed within a rounding tolerance scaled by
    the largest intermediate magnitude (the cancellation rules are
    algebraic identities, exact only up to rounding of the cancelled
    intermediates). [Error env] is a replayed environment disagreeing
    beyond tolerance — a simplifier bug. *)
