(** Abstract interpretation of DSL expressions over the interval domain
    of {!Abg_util.Interval}, and the interval walk ({!findings}) that
    decides every interval rule once for both of its clients: the
    enumerator's dead-on-arrival stage ({!prune}) and [abagnale lint].

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

(** Why a sketch was proven dead on arrival: the {!rule}s that prune. *)
type reason =
  | Collapses_to_floor
  | Always_nonfinite
  | Zero_denominator
  | Dead_guard

val all_reasons : reason list
val reason_name : reason -> string

(** A finding of the interval walk. *)
type rule =
  | Collapses_to_floor
      (** window provably <= 0 everywhere: replays as the constant
          one-MSS floor ([Eval.handler] clamps from below) *)
  | Always_nonfinite
      (** provably +inf everywhere: the floor too (non-finite clamp) *)
  | Unbounded_window  (** the window can overflow to non-finite *)
  | Possible_nan  (** some input makes the window NaN *)
  | Zero_denominator
      (** a denominator provably inside the [Floatx.safe_div] guard: the
          quotient is identically 0 *)
  | Possible_zero_denominator  (** a denominator can enter that guard *)
  | Dead_guard of bool
      (** a guard constant (at this value) over the whole box: one branch
          is unreachable *)

(** [expr] is the handler for a window rule, else the division or the
    conditional; [witness] is its interval, the denominator's, or the
    guard's left-hand side's. *)
type finding = { rule : rule; expr : Expr.num; witness : Interval.t }

val findings : box -> Expr.num -> finding Seq.t
(** The interval walk, lazily: the window rules ([Collapses_to_floor],
    [Always_nonfinite] or [Unbounded_window], then [Possible_nan]), then
    the subterm rules in pre-order, left operand first. *)

val prune : box -> Expr.num -> (reason * finding) option
(** The first finding that proves [e] dead on arrival, with its reason.
    Sound: a pruned sketch replays identically to a handler the search
    retains anyway. *)
