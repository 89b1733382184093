(** Propositional encoding of the sketch space (§4.1) — the Z3-formula
    substitute. One SAT instance describes all well-sorted,
    unit-consistent sketches of a sub-DSL up to its depth and node
    budgets; models are decoded into {!Abg_dsl.Expr} sketches with
    constant holes and excluded with blocking clauses, so repeated calls
    enumerate the space.

    The commutative canonical form of {!Abg_analysis.Canonical} is
    encoded directly as propositional constraints (a lex-leader circuit
    over the operand subtrees of commutative operators; constant holes
    and unused-slot assignments are pinned too), so the solver never
    produces a model the canonicalizer would fold.

    One persistent solver serves the whole enumeration: buckets are
    selected purely via assumptions, and each bucket's blocking clauses
    live in a retractable {!Abg_sat.Solver} clause group
    (see {!retire_bucket}). A retired bucket is closed: it yields
    nothing more.

    Three pruning stages run post-decode, each blocking-and-skipping the
    model: the §4.1 simplifiability filter, then the first pruning
    finding of each walk lint reports from ({!Abg_analysis.Absint.prune},
    {!Abg_analysis.Relint.prune}). The lex-leader circuit is the only
    dedup; no table of returned sketches is kept. The conditional walk
    finds nothing in an Ite-free sketch, so an Ite-free
    DSL (reno) enumerates bit-identically with it on. *)

open Abg_dsl

type t

val create : ?symmetry:bool -> Catalog.t -> t
(** [create ?symmetry dsl] builds the encoding. [symmetry] (default
    [true]) controls the in-encoding lex-leader symmetry breaking and
    unused-slot pinning. With it on, the returned sketch stream is
    duplicate-free and canonical. Turning it off exists for differential
    testing and ablation: every returned sketch is still in canonical
    form, but each commutative model is returned, so one normal form
    comes back once per operand order. *)

val next : ?bucket:Buckets.bucket -> t -> Expr.num option
(** The next not-yet-enumerated sketch in canonical form (optionally
    restricted to an operator bucket), or [None] when the (sub)space is
    exhausted or the bucket is retired. Bucket switches cost only a
    different assumption list — the solver instance, its learnt clauses
    and its heuristic state persist across calls and buckets. *)

val next_raw : ?bucket:Buckets.bucket -> t -> Expr.num option
(** {!next} without any post-decode filtering — exposed for diagnosing
    the encoding's pruning quality (with symmetry breaking on, the raw
    stream already contains no commutative duplicates). [None] on a
    retired bucket. *)

val retire_bucket : t -> Buckets.bucket -> unit
(** Retract the bucket's blocking clauses (called when the refinement
    loop drops a bucket from the keep set, reclaiming solver memory) and
    close the bucket: later {!next} and {!next_raw} calls on it return
    [None], and {!check_bucket} [false], without a solve. *)

val check_bucket : t -> Buckets.bucket -> bool
(** One solve under the bucket's assumptions — does the bucket still
    contain an unenumerated model? No decoding, no blocking. [false] on
    a retired bucket. *)

val stats : t -> int * int
(** [(returned, rejected-as-simplifiable)]. *)

val prune_stats : t -> (string * int) list
(** Per-reason prune counters, in reporting order: ["simplifiable"],
    each {!Abg_analysis.Absint.reason_name}, then each
    {!Abg_analysis.Relint.reason_name}. *)

val skipped : t -> int
(** Total decoded-but-pruned sketches (the sum of {!prune_stats}). *)

val prune_rate : t -> float
(** Fraction of decoded sketches pruned before simulation. *)

val num_vars : t -> int
(** Total SAT variables in the encoding (§6.1-style output). *)

val solver_stats : t -> Abg_sat.Solver.stats
(** Search-effort statistics of the enumerator's persistent solver
    (conflicts, propagations, learnt-DB state). *)
