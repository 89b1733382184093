(** CNF encoding helpers over {!Solver}: the standard gadgets the sketch
    encoding needs. All functions add clauses to the given solver; [lits]
    are external literals. *)

val at_most_one : Solver.t -> int list -> unit
(** Pairwise encoding for short lists; above a small threshold a
    commander encoding (groups of three with commander variables,
    recursing over the commanders) keeps the clause count linear.
    Equisatisfiable with the pairwise encoding when projected onto
    [lits]. *)

val pairwise_at_most_one : Solver.t -> int list -> unit
(** The plain O(n^2) pairwise encoding, regardless of list length —
    the differential baseline for {!at_most_one}. *)

val exactly_one : Solver.t -> int list -> unit

val implies : Solver.t -> int -> int -> unit
(** [implies s a b] — a -> b. *)

val implies_clause : Solver.t -> int -> int list -> unit
(** [implies_clause s a bs] — a -> (b1 \/ ... \/ bn). *)

val at_most_k : Solver.t -> int list -> int -> unit
(** Sequential-counter cardinality constraint (Sinz 2005), O(n*k)
    clauses; used for the sketch node budget. *)

val lex_gt_implies :
  Solver.t -> under:int list -> target:int -> (int * int) list -> unit
(** [lex_gt_implies s ~under ~target digits] — [digits] are [(gt, eq)]
    literal pairs, most significant first. Whenever all of [under] hold
    and the digit sequence is lexicographically greater (some [gt_i]
    true with all earlier [eq_j] true), [target] is forced. One clause
    per digit. *)

val lex_le : Solver.t -> under:int list -> (int * int) list -> unit
(** [lex_le s ~under digits] — whenever all of [under] hold, forbid any
    lexicographically greater digit sequence: the sorted-operand
    constraint of the enumerator's symmetry-breaking circuit. The final
    digit's [eq] literal is unused. *)
