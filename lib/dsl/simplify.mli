(** Algebraic simplification — the sympy substitute (§4.1). Local
    rewriting (constant folding through the evaluator's own semantics,
    identities, cancellation through nested products/quotients, trivial
    conditionals — including guards whose two sides are equal modulo
    commutativity), plus oracle hooks for interval reasoning: a [facts]
    guard oracle for conditionals that are constant over the whole input
    box, and a full {!oracle} that also bounds subterms (gating the
    cancellation rules' side conditions) and threads guard assumptions
    into conditional branches. The *relational* part of the §5.6 gap —
    facts that hold only between signals (min-rtt <= rtt), under which
    Student-5-style conditionals are vacuous — is what
    [Abg_analysis.Relint.oracle] plugs in here. *)

type facts = Expr.boolean -> [ `True | `False | `Unknown ]
(** A guard oracle: [`True]/[`False] assert the guard is constant over
    every environment of interest (see [Abg_analysis.Absint.simplify]). *)

val no_facts : facts
(** The trivial oracle: every guard is [`Unknown]. *)

type oracle = {
  facts : facts;  (** guard resolution, as above *)
  bound : Expr.num -> Abg_util.Interval.t;
      (** sound interval bound of a subterm over the oracle's box; gates
          the cancellation rules' side conditions (divisor clear of the
          safe-division guard, intermediates finite) *)
  assuming : Expr.boolean -> bool -> oracle;
      (** the same oracle refined by a guard assumption — applied to
          conditional branches, so a branch-local rewrite may rely on the
          guard that dominates it *)
}

val permissive : oracle
(** The historical unconditional behavior: every bound is the singleton
    {1}, so every cancellation side condition passes and [assuming] is
    the identity. [simplify] with no oracle uses exactly this. *)

val equal_mod_comm : Expr.num -> Expr.num -> bool
(** Structural equality modulo commutativity of [Add]/[Mul]. IEEE [+] and
    [*] are exactly commutative, so related terms evaluate
    bit-identically. *)

val equal_bool_mod_comm : Expr.boolean -> Expr.boolean -> bool
(** {!equal_mod_comm} on the operands of same-constructor comparisons. *)

val simplify : ?facts:facts -> ?oracle:oracle -> Expr.num -> Expr.num
(** Rewrite to a fixpoint ([oracle] supersedes [facts] when both are
    given). Never grows the tree. Under the default {!permissive} oracle
    it preserves the evaluated value on finite, non-degenerate inputs
    (the x/x = 1 and x*0 = 0 rules assume the evaluator's safe-division
    guard and infinities do not fire, as §4.1's sympy filtering does);
    under a sound oracle each such rule fires only when the oracle's
    bound proves its side condition on that oracle's box, and comparison
    operands are additionally restricted to bit-exact rules — a
    comparison discretizes the ulp-level perturbation of an
    up-to-rounding cancellation (or of the libm-backed cbrt/cube inverse
    pair) into a flipped guard and an arbitrarily different branch. *)

val is_simplifiable : ?facts:facts -> ?oracle:oracle -> Expr.num -> bool
(** The §4.1 enumeration filter: true when rewriting strictly reduces the
    node count (the sketch carries redundant structure). *)
