(** Abstract interpretation of DSL expressions over the interval domain
    of {!Abg_util.Interval}.

    Leaves are bounded by their physical contracts ({!Abg_dsl.Signal.range},
    the replay clamp on cwnd, the concretization pool for holes); transfer
    functions mirror the evaluator exactly. Soundness: for every
    environment inside the box (and every hole filling from the hole
    interval), the concrete [Eval.num] result is contained in the derived
    interval. *)

open Abg_util
open Abg_dsl

type box = {
  cwnd : Interval.t;
  hole : Interval.t;  (** range of every constant hole *)
  signal : Signal.t -> Interval.t;
}

val default_box : ?hole:Interval.t -> unit -> box
(** Physical signal ranges and the cwnd clamp; [hole] defaults to all
    finite floats (sound for any pool). *)

val box_for : Catalog.t -> box
(** {!default_box} with the hole interval tightened to the sub-DSL's
    constant pool. *)

val num : box -> Expr.num -> Interval.t
(** Derived interval of an expression (holes allowed). *)

val boolean : box -> Expr.boolean -> Interval.verdict
(** Three-valued abstract truth of a guard over the whole box. *)

val simplify : box -> Expr.num -> Expr.num
(** [Simplify.simplify] with this box's guard oracle plugged in. *)

val is_simplifiable : box -> Expr.num -> bool

(** Why a sketch was proven dead on arrival. *)
type reason =
  | Collapses_to_floor
      (** window provably <= 0 everywhere: replays as the constant
          one-MSS floor ([Eval.handler] clamps from below) *)
  | Always_nonfinite
      (** provably +inf everywhere: replays as the floor too
          ([Eval.handler] maps non-finite to one MSS) *)
  | Zero_denominator
      (** some division's denominator provably sits inside the
          [Floatx.safe_div] guard: the quotient is identically 0 and a
          strictly smaller equivalent sketch exists *)
  | Dead_guard
      (** some conditional's guard is constant over the whole box: one
          branch is unreachable *)

val all_reasons : reason list
val reason_name : reason -> string

val prune : box -> Expr.num -> (reason * Interval.t) option
(** [prune box e] is [Some (reason, witness)] when [e] is provably dead
    on arrival; the witness interval is the fact that proves it (the
    expression's own interval, a denominator's, or a dead guard's
    left-hand side's). Sound: a pruned sketch replays identically to a
    handler the search retains anyway. *)
