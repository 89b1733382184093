(* Lint diagnostics for DSL handlers. The rules the search prunes on are
   decided by two walks in this library, [Absint.findings] (the interval
   rules) and [Relint.conditionals] (the relational ones), which the
   enumerator's prune stages read too; lint only words their findings.

   Each rule reports (rule id, offending subexpression, reason, interval
   witness). Errors are handlers the search itself would prune as dead on
   arrival; warnings flag behavior that is legal but almost certainly not
   what the handler's author intended (a window that can silently
   overflow to the one-MSS floor, a denominator that can cross zero, a
   conditional that can never change anything); infos flag redundant
   structure.

   The relational rules close the paper's §5.6 gap: [vacuous-guard] fires
   when the zone domain decides a guard the interval domain cannot
   (Student 5's conditional relating two signals), [guard-implied] when a
   nested guard is decided by the assumptions of its enclosing guards,
   and [branch-equivalent] when the two branches are provably the same
   function. Every vacuous/implied verdict is cross-checked by replaying
   sampled zone-consistent environments through [Eval] before the
   diagnostic is emitted — interval evidence alone is never reported. *)

open Abg_util
open Abg_dsl

type severity = Error | Warning | Info

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

type diag = {
  rule : string;
  severity : severity;
  expr : Expr.num;  (** the offending (sub)expression *)
  message : string;
  witness : Interval.t option;
}

let diag ?witness rule severity expr message =
  { rule; severity; expr; message; witness }

(* A decided guard's message: true makes the else-branch unreachable,
   false the then-branch. *)
let guard_message fmt truth =
  if truth then Printf.sprintf fmt "true" "else"
  else Printf.sprintf fmt "false" "then"

(* Severity and message of each interval finding. A decided guard's
   witness interval (its left-hand side's) is not reported. *)
let interval_diag (f : Absint.finding) =
  let d = diag ~witness:f.Absint.witness in
  let e = f.Absint.expr in
  match f.Absint.rule with
  | Absint.Collapses_to_floor ->
      d "collapses-to-floor" Error e
        "window is provably <= 0 everywhere; the handler replays as the \
         constant one-MSS floor"
  | Absint.Always_nonfinite ->
      d "always-nonfinite" Error e
        "window is provably non-finite everywhere; the handler replays as \
         the constant one-MSS floor"
  | Absint.Unbounded_window ->
      d "unbounded-window" Warning e
        "window can overflow to non-finite, which the evaluator maps to the \
         one-MSS floor"
  | Absint.Possible_nan ->
      d "possible-nan" Warning e
        "some input produces NaN, which the evaluator maps to the one-MSS \
         floor"
  | Absint.Zero_denominator ->
      d "zero-denominator" Error e
        "denominator is provably inside the safe-division guard; the \
         quotient is identically 0"
  | Absint.Possible_zero_denominator ->
      d "possible-zero-denominator" Warning e
        "denominator can enter the safe-division guard, silently zeroing \
         the quotient"
  | Absint.Dead_guard truth ->
      diag "dead-guard" Warning e
        (guard_message
           "guard is %s over the whole input box; the %s-branch is \
            unreachable"
           truth)

(* Replay cross-check for a relationally-decided guard: [Eval.boolean]
   gives the guard its verdict on 64 environments sampled from the
   deciding zone. The analysis is sound and the samples satisfy every
   edge of the zone, so this can only fail on an analysis bug — in which
   case the diagnostic is suppressed rather than reported as a false
   positive. Holes are filled as [Equiv.validate_rewrite] fills them. *)
let replay_confirms zone g expected =
  let g = Expr.fill_bool g (Equiv.hole_fill zone) in
  let rng = Rng.create 0x11A7 in
  let rec go k =
    k = 0
    ||
    let env = Relint.sample_env zone rng in
    Eval.boolean env g = expected && go (k - 1)
  in
  go 64

(* The relational diagnostics of one conditional: its relational prune
   reason, once the replay confirms it on the zone that decides it (the
   unrefined zone [base] for a vacuous guard, the context zone for an
   implied one), then [branch-equivalent] when the guard is open. *)
let relational_diags base (c : Relint.conditional) =
  let decided =
    let report zone verdict rule fmt =
      let truth = verdict = Interval.True in
      if replay_confirms zone c.Relint.guard truth then
        [ diag ~witness:(Relint.guard_witness zone c.Relint.guard) rule Warning
            c.Relint.expr (guard_message fmt truth) ]
      else []
    in
    match Relint.reason c with
    | Some Relint.Vacuous_guard ->
        report base c.Relint.base "vacuous-guard"
          "guard is %s for every physically-consistent environment (a \
           cross-signal relation the interval domain cannot see); the \
           %s-branch is unreachable"
    | Some Relint.Guard_implied ->
        report c.Relint.zone c.Relint.context "guard-implied"
          "guard is %s whenever this branch is reached (implied by the \
           enclosing guards); the %s-branch is unreachable here"
    | None -> []
  in
  let equivalent =
    (* Equal branches make the conditional redundant regardless of the
       guard. Only worth deciding when the guard is open. *)
    match (c.Relint.context, c.Relint.expr) with
    | Interval.Unknown, Expr.Ite (_, t, el)
      when Equiv.proves_equal c.Relint.zone t el ->
        [ diag "branch-equivalent" Info c.Relint.expr
            "both branches are provably the same function; the \
             conditional is redundant" ]
    | _ -> []
  in
  decided @ equivalent

(** [check e] is every diagnostic the analysis can prove about handler
    [e] over {!Absint.default_box}: the interval walk's findings, then
    the conditional walk's, then the redundancy infos. *)
let check (e : Expr.num) : diag list =
  let box = Absint.default_box () in
  let base = Relint.of_box box in
  let interval = List.of_seq (Seq.map interval_diag (Absint.findings box e)) in
  let relational =
    List.concat_map (relational_diags base)
      (List.of_seq (Relint.conditionals base e))
  in
  let simplifiable =
    if Absint.is_simplifiable box e then
      [ diag "simplifiable" Info e
          "rewriting strictly reduces the node count; an equivalent \
           smaller handler exists" ]
    else []
  in
  let non_canonical =
    if Expr.equal_num e (Canonical.normalize e) then []
    else
      [ diag "non-canonical" Info e
          "operands of a commutative operator are not in canonical order" ]
  in
  interval @ relational @ simplifiable @ non_canonical

(** Named degenerate handlers demonstrating every rule — living
    documentation for [abagnale lint], and fixtures for the tests and the
    CI smoke run. *)
let showcase : (string * Expr.num) list =
  let open Expr in
  [ ("collapse", Sub (Const 0.0, Cwnd));
    ("overflow", Cube (Cube (Cube Cwnd)));
    ( "nonfinite",
      Cube (Cube (Cube (Cube (Mul (Const 1e10, Cwnd))))) );
    ( "nan-window",
      Sub (Cube (Cube (Cube Cwnd)), Cube (Cube (Cube (Mul (Cwnd, Cwnd))))) );
    ( "dead-guard",
      Ite (Gt (Signal Signal.Rtt, Const 200.0), Mul (Const 2.0, Cwnd), Cwnd)
    );
    ("zero-div", Div (Macro Macro.Reno_inc, Const 0.0));
    ("gradient-div", Div (Cwnd, Signal Signal.Delay_gradient));
    ("unsorted", Add (Signal Signal.Mss, Cwnd));
    ( "vacuous-guard",
      (* Student 5's shape: rtt < min-rtt relates two signals, so the
         interval domain cannot decide it, but the zone's rtt ordering
         invariant proves it false. *)
      Ite
        ( Lt (Signal Signal.Rtt, Signal Signal.Min_rtt),
          Mul (Const 2.0, Cwnd),
          Cwnd ) );
    ( "guard-implied",
      Ite
        ( Gt (Signal Signal.Rtt, Const 1.0),
          Ite
            ( Gt (Signal Signal.Rtt, Const 0.5),
              Mul (Const 2.0, Cwnd),
              Cwnd ),
          Cwnd ) );
    ( "branch-equivalent",
      Ite
        ( Gt (Signal Signal.Rtt, Const 0.05),
          Add (Cwnd, Signal Signal.Mss),
          Add (Signal Signal.Mss, Cwnd) ) ) ]

let pp_diag ppf d =
  let witness =
    match d.witness with
    | None -> ""
    | Some w -> Format.asprintf " (witness %a)" Interval.pp w
  in
  Format.fprintf ppf "%s[%s]: %s: %s%s" (severity_name d.severity) d.rule
    (Pretty.num d.expr) d.message witness
