(** Lint diagnostics for DSL handlers: each finding of the two walks the
    enumerator's prune stages read ({!Absint.findings},
    {!Relint.conditionals}) as a diagnostic, plus what only lint reports
    (the replay confirmation below, [branch-equivalent], redundancy).

    Errors are handlers the search itself prunes as dead on arrival;
    warnings flag legal-but-suspicious behavior (silent overflow or NaN
    to the one-MSS floor, a denominator crossing zero, a guard no
    physically-consistent environment can flip); infos flag redundant
    structure.

    Relational rules (each vacuous/implied verdict is replay-confirmed
    through [Eval] on sampled zone-consistent environments before being
    reported):
    - [vacuous-guard] (warning): the zone domain decides a guard the
      interval domain cannot — a cross-signal relation such as Student
      5's [vegas-diff / min-rtt < 0].
    - [guard-implied] (warning): a nested guard is decided by the
      assumptions of its enclosing guards.
    - [branch-equivalent] (info): both branches of an open conditional
      are provably the same function ({!Equiv.proves_equal}). *)

open Abg_util
open Abg_dsl

type severity = Error | Warning | Info

val severity_name : severity -> string

type diag = {
  rule : string;
  severity : severity;
  expr : Expr.num;  (** the offending (sub)expression *)
  message : string;
  witness : Interval.t option;
}

val check : Expr.num -> diag list
(** Every diagnostic the analysis can prove about a handler over
    {!Absint.default_box}: the interval walk's findings, then the
    conditional walk's (each in the walk's order), then redundancy. *)

val showcase : (string * Expr.num) list
(** Named degenerate handlers demonstrating every rule — living
    documentation for [abagnale lint] and fixtures for tests/CI. *)

val pp_diag : Format.formatter -> diag -> unit
(** ["severity[rule]: expr: message (witness [lo, hi])"]. *)
