(** Relational abstract interpretation: a zone (difference-bound) domain
    over {cwnd} ∪ signals, seeded from the {!Abg_dsl.Signal.range}
    physical contracts plus cross-signal invariants (min-rtt <= rtt <=
    max-rtt) and refined by guard assumptions.

    Closes the relational half of the paper's §5.6 simplification gap:
    guards that are vacuous only because of a relation *between* signals
    (Student 5's conditional) are decided here, where {!Absint} must
    answer Unknown. The conditional walk ({!conditionals}) carries every
    conditional's interval, base-zone and context-zone verdicts, and
    {!reason} decides the two relational dead-guard rules from them, once
    for the enumerator's relational prune stage ({!prune}) and for
    [abagnale lint].

    Compatibility contract: on expressions whose atoms carry no
    relational edge — every reno-DSL sketch — {!num} and {!boolean} are
    bit-for-bit identical to {!Absint}'s (the zone bound through the
    virtual zero variable equals [Interval.sub]'s endpoint exactly, and
    IEEE subtraction is sign-exact), so relational pruning cannot perturb
    the fingerprint-pinned reno enumeration stream.

    Soundness mirrors {!Absint}'s qcheck contract: for every environment
    satisfying the zone (interval bounds plus the rtt ordering), the
    concrete [Eval] result lies in the derived interval, and a non-Unknown
    {!boolean} verdict matches [Eval.boolean]. *)

open Abg_util
open Abg_dsl

type t

val of_box : Absint.box -> t
(** Seed the zone from an interval box (signal ranges, cwnd clamp, hole
    interval) plus the built-in cross-signal invariants. The zone keeps
    the box, and every zone refined from it shares it. *)

val default : unit -> t
(** [of_box (Absint.default_box ())]. *)

val for_dsl : Catalog.t -> t
(** [of_box (Absint.box_for dsl)] — hole interval from the constant
    pool. *)

val cwnd_iv : t -> Interval.t
val signal_iv : t -> Signal.t -> Interval.t
val hole : t -> Interval.t

val num : t -> Expr.num -> Interval.t
(** Derived interval (holes allowed); differences of environment
    variables are intersected with the zone bounds. *)

val boolean : t -> Expr.boolean -> Interval.verdict
(** Three-valued truth over the zone; strictly more precise than
    {!Absint.boolean} on relational guards, identical elsewhere. *)

val guard_witness : t -> Expr.boolean -> Interval.t
(** Evidence for a decided guard: the refined difference interval whose
    sign proves the verdict (the modulus interval for [Mod_eq]). *)

val assume : t -> Expr.boolean -> bool -> t option
(** [assume t g truth] — the zone refined by guard [g] held at [truth]
    (strict bounds relaxed to non-strict, so the result always contains
    every environment of [t] satisfying the assumption). [None] when the
    refined zone is empty: no environment gives [g] that truth value. *)

val sample_env : t -> Rng.t -> Env.t
(** A deterministic environment sample inside the zone: the variables
    are drawn in layout order (cwnd, then {!Abg_dsl.Signal.all}), each
    inside its interval and inside every zone edge to the variables
    already drawn, so the sample satisfies every edge — the rtt ordering
    and every order an {!assume} added (log-uniform across wide positive
    ranges). *)

val oracle : t -> Simplify.oracle
(** The sound rewrite oracle: subterm bounds from the zone, branch
    rewrites under the dominating guard's assumption. With this oracle,
    [Simplify]'s cancellation rules fire only when their side conditions
    (divisor clear of the safe-division guard, finite intermediates) are
    proven — on the branch's own refined zone. *)

val simplify : t -> Expr.num -> Expr.num
(** [Simplify.simplify] under {!oracle} — sound simplification. *)

(** {2 The conditional walk} *)

(** Why the relational stage prunes a sketch: the box leaves a guard
    Unknown, and the zone decides it outright or only under the
    assumptions of the enclosing guards. *)
type reason = Vacuous_guard | Guard_implied

val all_reasons : reason list
val reason_name : reason -> string

type conditional = {
  expr : Expr.num;  (** the conditional itself *)
  guard : Expr.boolean;
  interval : Interval.verdict;  (** {!Absint.boolean} over the box *)
  base : Interval.verdict;  (** {!boolean} over the unrefined zone *)
  context : Interval.verdict;  (** {!boolean} over [zone] *)
  zone : t;  (** the unrefined zone under the enclosing guards' {!assume} *)
}

val conditionals : t -> Expr.num -> conditional Seq.t
(** [conditionals base e] — every conditional of [e], lazily, in
    pre-order: a conditional, then those in its guard's operands (in its
    own zone), then those in its branches (under the guard assumed true,
    then false; an empty refinement keeps the zone). *)

val reason : conditional -> reason option

val prune : t -> Expr.num -> reason option
(** The first {!reason} of {!conditionals}. Sound: such a sketch
    evaluates identically to a strictly smaller one on the zone. *)
