(** Commutative normal form for DSL expressions.

    IEEE [+]/[*] are exactly commutative, so [a + b] and [b + a] denote
    the same function; {!normalize} maps them to one representative.
    The SAT enumerator's lex-leader circuit encodes the same operand
    order, so (with symmetry breaking on) every sketch it decodes is
    already in normal form. *)

open Abg_dsl

val compare_num : Expr.num -> Expr.num -> int
(** Total preorder used for operand ordering: leaves before compounds,
    [Cwnd] first, holes interchangeable (they compare equal regardless of
    index). *)

val normalize : Expr.num -> Expr.num
(** Commutative normal form: operands of [Add]/[Mul] sorted under
    {!compare_num}, holes renumbered left-to-right. Semantically
    identical to the input, idempotent, and equal for any two expressions
    differing only in commutative operand order or hole numbering. *)

val equal : Expr.num -> Expr.num -> bool
(** Equality of normal forms. *)
