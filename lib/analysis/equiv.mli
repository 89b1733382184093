(** Semantic equivalence of handler pairs — the refutation engine behind
    lint's [branch-equivalent] rule and [simplify --validate]
    translation validation.

    Verdict semantics, over the zone of the given {!Relint.t} (and every
    hole filling for the structural provers):

    - [Equal] — a *bit-exact* proof: relational normal forms coincide
      canonically, or the SAT-enumerated guard skeleton specializes both
      sides to the same canonical form on every reachable guard-truth
      combination. No rounding tolerance is involved; [2 * x] vs
      [x + x] is deliberately not provable.
    - [Distinct env] — [env] is a concrete zone-consistent environment on
      which the two sides were *replayed through [Eval]* and produced
      different raw values. Interval evidence alone never yields
      [Distinct].
    - [Unknown reason] — budget exhausted (sampling draws and the ICP
      branch-and-prune node budget).

    Holes are treated as interchangeable placeholders by the structural
    provers (exactly {!Canonical}'s convention) and filled with the hole
    interval's midpoint by the numeric engines; real clients pass
    hole-free handlers.

    Obs counters: [analysis.equiv_checks/_equal/_distinct/_unknown]. *)

open Abg_dsl

type verdict = Equal | Distinct of Env.t | Unknown of string

val rnorm : Relint.t -> Expr.num -> Expr.num
(** Relational normal form: guards the zone decides (including under the
    refining assumptions of enclosing guards) are folded, branches with
    equal normal forms collapsed. Bit-exact: evaluates identically to
    the input on every environment of the zone. *)

val decide :
  ?draws:int -> ?icp_budget:int -> Relint.t -> Expr.num -> Expr.num -> verdict
(** [decide rel a b] — see the verdict semantics above. [draws] bounds
    the sampling stage (default 256), [icp_budget] the branch-and-prune
    sub-zone evaluations (default 512). *)

val hole_fill : Relint.t -> int -> float
(** The numeric engines' hole filling: every hole gets the midpoint of
    the zone's hole interval, clamped to [[-1e6, 1e6]]. *)

type validation = [ `Proved | `Sampled of int ]

val validate_rewrite :
  ?draws:int ->
  Relint.t ->
  original:Expr.num ->
  rewritten:Expr.num ->
  (validation, Env.t) result
(** Translation validation for the simplifier. [`Proved] is a bit-exact
    structural or SAT-path proof; [`Sampled n] means [n] non-degenerate
    zone-consistent draws agreed within a rounding tolerance scaled by
    the largest intermediate magnitude (the cancellation rules are
    algebraic identities, exact only up to rounding of the cancelled
    intermediates). [Error env] is a replayed environment disagreeing
    beyond tolerance — a simplifier bug. *)
