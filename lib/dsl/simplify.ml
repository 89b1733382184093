(** Algebraic simplification — the sympy substitute (§4.1).

    The enumerator rejects sketches that are "arithmetically simplifiable":
    a sketch whose rewritten form has fewer nodes carries redundant
    structure, and some smaller sketch in the space denotes the same
    function. The rewriter below implements the local rules that matter
    for this DSL, plus two oracle hooks through which a caller (in
    practice [Abg_analysis]) can inject interval reasoning: a [facts]
    guard oracle resolving conditionals that are constant over the whole
    input box, and a full [oracle] that additionally bounds subterms and
    threads guard assumptions into conditional branches (see
    [Abg_analysis.Relint.oracle]).

    The relational part of the §5.6 gap — facts that hold only *between*
    signals, like min-rtt <= rtt, under which a guard such as Student 5's
    [{vegas-diff / min-rtt < 0}] is vacuous — is not representable in the
    non-relational [facts] oracle; it is exactly what the [oracle]'s
    [assuming]/[bound] hooks exist for.

    Cancellation-rule soundness: [x / x -> 1], [x % x = 0 -> true],
    [(a * b) / a -> b] and friends are algebraic identities, exact except
    when the cancelled divisor lands inside [Floatx.safe_div]'s near-zero
    guard (where the quotient is 0, not the identity), the modulus inside
    the divisibility epsilon, or an intermediate overflows. Under the
    default {!permissive} oracle these rules fire unconditionally — the
    paper's sympy filter has the same blind spot, the enumeration accepts
    the (measure-zero-ish) over-pruning, and the property test states the
    hypothesis exactly: preservation holds whenever no intermediate is
    non-finite and no divisor or modulus is guard-adjacent. Under a sound
    oracle each such rule fires only when the oracle's interval bound
    proves its side condition (divisor clear of the guard, intermediates
    finite) — on *that oracle's box*, including any guard assumptions in
    force at the rewrite site. *)

open Expr

let is_const = function Const _ -> true | _ -> false

(* Structural equality modulo commutativity of [Add] and [Mul]. IEEE
   addition and multiplication are exactly commutative, so terms equal
   under this relation evaluate bit-identically and every rewrite guarded
   by it is as sound as one guarded by [equal_num]. This is what catches
   the "guard compares an expression to itself" conditionals the seed
   rewriter missed when the two copies order their operands differently. *)
let rec equal_mod_comm a b =
  match (a, b) with
  | Add (x, y), Add (x', y') | Mul (x, y), Mul (x', y') ->
      (equal_mod_comm x x' && equal_mod_comm y y')
      || (equal_mod_comm x y' && equal_mod_comm y x')
  | Sub (x, y), Sub (x', y') | Div (x, y), Div (x', y') ->
      equal_mod_comm x x' && equal_mod_comm y y'
  | Ite (c, t, e), Ite (c', t', e') ->
      equal_bool_mod_comm c c' && equal_mod_comm t t' && equal_mod_comm e e'
  | Cube x, Cube x' | Cbrt x, Cbrt x' -> equal_mod_comm x x'
  | a, b -> equal_num a b

and equal_bool_mod_comm a b =
  match (a, b) with
  | Lt (x, y), Lt (x', y') | Gt (x, y), Gt (x', y') | Mod_eq (x, y), Mod_eq (x', y') ->
      equal_mod_comm x x' && equal_mod_comm y y'
  | _ -> false

(* Near-zero divisor threshold of [Floatx.safe_div]; the rewriter must
   mirror the evaluator exactly or rewriting would change semantics. *)
let div_eps = Abg_util.Floatx.div_eps

(* The evaluator's tolerant divisibility threshold for [Mod_eq]. *)
let mod_eps = 1e-9

(* The evaluator's tolerant divisibility predicate, mirrored for constant
   folding (the seed folded [Mod_eq] with a strict epsilon and disagreed
   with [Eval.boolean] on e.g. 2.05 % 2). *)
let mod_eq_const x y =
  if Float.abs y < mod_eps then false
  else begin
    let r = Abg_util.Floatx.fmod x y in
    let tol = 0.05 *. Float.abs y in
    r <= tol || Float.abs y -. r <= tol
  end

type facts = Expr.boolean -> [ `True | `False | `Unknown ]

let no_facts : facts = fun _ -> `Unknown

type oracle = {
  facts : facts;
  bound : Expr.num -> Abg_util.Interval.t;
  assuming : Expr.boolean -> bool -> oracle;
}

(* The permissive oracle reports every subterm as the singleton {1} —
   finite, NaN-free and clear of both the safe-division guard and the
   divisibility epsilon — so every side-condition gate below passes and
   the rewriter behaves exactly as the historical unconditional one. *)
let rec permissive =
  {
    facts = no_facts;
    bound = (fun _ -> Abg_util.Interval.const 1.0);
    assuming = (fun _ _ -> permissive);
  }

let oracle_of_facts facts = { permissive with facts }

(* Side-condition gates, all phrased over the oracle's interval bound.
   [finite o e]: no environment of the oracle's box makes [e] non-finite
   or NaN. [clear o ~eps e]: additionally, |e| >= eps everywhere — the
   cancelled divisor cannot land inside the evaluator's guard. *)
let finite o e =
  let i = o.bound e in
  (not i.Abg_util.Interval.nan) && not (Abg_util.Interval.has_inf i)

let clear o ~eps e =
  let i = o.bound e in
  (not i.Abg_util.Interval.nan)
  && (not (Abg_util.Interval.has_inf i))
  && (i.Abg_util.Interval.lo >= eps || i.Abg_util.Interval.hi <= -.eps)

let no_nan o e = not (o.bound e).Abg_util.Interval.nan

(* One bottom-up rewriting pass under oracle [o].

   [sm] ("strict mode") and [strict] protect comparison operands from
   the rules that preserve the value only up to rounding (the composite
   cancellations like a + (b - a) = b and the cbrt/cube inverse pair,
   which routes through libm [pow]). In a numeric context an ulp-level
   perturbation is harmless, but a comparison discretizes it: the
   tolerant divisibility predicate computes fmod of a possibly huge
   numerator by the rewritten term, and an Lt/Gt whose sides became
   structurally equal folds to a constant the real evaluation is one
   ulp away from contradicting. Either way a guard flips and the
   conditional's value is off by an unbounded amount. Under a sound
   oracle ([sm] = true, set when the caller passed [?oracle]) the
   operands of every comparison are therefore rewritten in [strict]
   mode, where only bit-exact rules fire (constant folding through the
   evaluator's own semantics, identities, annihilators, x - x, x / x).
   The permissive/facts path keeps the historical behavior: it feeds the
   §4.1 simplifiability *filter*, which matches sympy and must keep
   accepting/rejecting the same sketch set. *)
let rec pass ~sm ~strict o e =
  let pass_n = pass ~sm ~strict in
  match e with
  | Cwnd | Signal _ | Macro _ | Const _ | Hole _ -> e
  | Add (a, b) -> begin
      match (pass_n o a, pass_n o b) with
      | Const x, Const y -> Const (x +. y)
      | Const 0.0, b' -> b'
      | a', Const 0.0 -> a'
      (* a + (b - a) = b, in either operand order (exact up to rounding;
         gated on finite intermediates). *)
      | a', (Sub (x, y) as s) when
          (not strict) && equal_mod_comm a' y && finite o (Add (a', s))
        -> x
      | (Sub (x, y) as s), b' when
          (not strict) && equal_mod_comm b' y && finite o (Add (s, b'))
        -> x
      | a', b' -> Add (a', b')
    end
  | Sub (a, b) -> begin
      match (pass_n o a, pass_n o b) with
      | Const x, Const y -> Const (x -. y)
      | a', Const 0.0 -> a'
      (* x - x = 0 is exact for finite x (and only then: inf - inf is
         NaN, which the evaluator maps to the floor, not 0). *)
      | a', b' when equal_mod_comm a' b' && finite o a' -> Const 0.0
      (* (a + b) - a = b; a - (a - c) = c; a - (a + c) = -... (left out:
         negative results are rarely sketches' intent and -1 * c is not
         smaller). *)
      | (Add (x, y) as s), b' when
          (not strict) && equal_mod_comm x b' && finite o (Sub (s, b'))
        -> y
      | (Add (x, y) as s), b' when
          (not strict) && equal_mod_comm y b' && finite o (Sub (s, b'))
        -> x
      | a', (Sub (x, c) as s) when
          (not strict) && equal_mod_comm a' x && finite o (Sub (a', s))
        -> c
      | a', b' -> Sub (a', b')
    end
  | Mul (a, b) -> begin
      match (pass_n o a, pass_n o b) with
      | Const x, Const y -> Const (x *. y)
      (* 0 * x = 0 needs x finite (0 * inf is NaN) and non-NaN. *)
      | Const 0.0, b' when finite o b' -> Const 0.0
      | a', Const 0.0 when finite o a' -> Const 0.0
      | Const 1.0, b' -> b'
      | a', Const 1.0 -> a'
      (* a * (b / a) = b, in either operand order; the cancelled divisor
         must sit clear of the safe-division guard or the quotient is
         identically 0 and the product 0, not b. *)
      | a', (Div (x, y) as q) when
          (not strict) && equal_mod_comm a' y && clear o ~eps:div_eps a'
          && finite o (Mul (a', q)) -> x
      | (Div (x, y) as q), b' when
          (not strict) && equal_mod_comm b' y && clear o ~eps:div_eps b'
          && finite o (Mul (q, b')) -> x
      | a', b' -> Mul (a', b')
    end
  | Div (a, b) -> begin
      match (pass_n o a, pass_n o b) with
      (* Constant folding mirrors [Floatx.safe_div]: a near-zero divisor
         yields 0, never an infinity (the seed folded to [x /. y]). *)
      | Const x, Const y -> Const (Abg_util.Floatx.safe_div x y)
      (* 0 / x = 0 unless x is NaN (safe_div passes NaN through). *)
      | Const 0.0, b' when no_nan o b' -> Const 0.0
      | _, Const y when Float.abs y < div_eps -> Const 0.0
      | a', Const 1.0 -> a'
      | a', b' when
          equal_mod_comm a' b' && not (is_const a')
          && clear o ~eps:div_eps a' -> Const 1.0
      (* Cancellation through a nested quotient/product: a / (a / c) = c,
         (a * b) / a = b. These are the identity composites the enumerator
         would otherwise emit to smuggle CWND through a bigger tree. *)
      | a', (Div (x, c) as q) when
          (not strict) && equal_mod_comm a' x && clear o ~eps:div_eps q
          && finite o (Div (a', q)) -> c
      | (Mul (x, y) as p), b' when
          (not strict) && equal_mod_comm x b' && clear o ~eps:div_eps b'
          && finite o (Div (p, b')) -> y
      | (Mul (x, y) as p), b' when
          (not strict) && equal_mod_comm y b' && clear o ~eps:div_eps b'
          && finite o (Div (p, b')) -> x
      | a', b' -> Div (a', b')
    end
  | Ite (c, t, el) -> begin
      match pass_bool ~sm ~strict o c with
      | `Known true -> pass_n o t
      | `Known false -> pass_n o el
      | `Open c' ->
          (* Branches are rewritten under the guard assumption in force
             on their side — a branch-local cancellation is sound exactly
             when the guard cannot steer evaluation into the region that
             violates its side condition. *)
          let t' = pass ~sm ~strict (o.assuming c' true) t in
          let el' = pass ~sm ~strict (o.assuming c' false) el in
          if equal_mod_comm t' el' then t' else Ite (c', t', el')
    end
  | Cube a -> begin
      match pass_n o a with
      | Const x -> Const (x *. x *. x)
      (* cube/cbrt inverse cancellation goes through libm [pow], which is
         not correctly rounded — exact only in real arithmetic. *)
      | Cbrt inner when not strict -> inner
      | a' -> Cube a'
    end
  | Cbrt a -> begin
      match pass_n o a with
      | Const x -> Const (Abg_util.Floatx.cbrt x)
      | Cube inner when not strict -> inner
      | a' -> Cbrt a'
    end

and pass_bool ~sm ~strict o b =
  (* Structural/constant resolution first, then the caller's interval
     facts on whatever guard is left open.

     Under a sound oracle every comparison operand is rewritten in
     strict mode, not just [Mod_eq]'s: an up-to-rounding cancellation
     can manufacture structural equality between the two sides (e.g.
     cbrt(x)^3 < x becomes x < x), which the fold below then resolves
     to a constant — turning an ulp-sized perturbation into a flipped
     guard and an arbitrarily wrong branch. *)
  let strict = strict || sm in
  let resolve b' =
    match o.facts b' with
    | `True -> `Known true
    | `False -> `Known false
    | `Unknown -> `Open b'
  in
  let fold cmp a b =
    match (pass ~sm ~strict o a, pass ~sm ~strict o b) with
    | Const x, Const y -> `Known (cmp x y)
    (* x < x and x > x are false for every float, NaN included. *)
    | a', b' when equal_mod_comm a' b' -> `Known false
    | a', b' -> `Open (a', b')
  in
  match b with
  | Lt (a, b) -> begin
      match fold ( < ) a b with
      | `Known k -> `Known k
      | `Open (a', b') -> resolve (Lt (a', b'))
    end
  | Gt (a, b) -> begin
      match fold ( > ) a b with
      | `Known k -> `Known k
      | `Open (a', b') -> resolve (Gt (a', b'))
    end
  | Mod_eq (a, b) -> begin
      (* x % x = 0 is always true for |x| >= the evaluator's epsilon
         (below it the predicate is defined false, and a non-finite x
         makes fmod NaN); constants fold through the evaluator's own
         tolerant predicate. *)
      match (pass ~sm ~strict o a, pass ~sm ~strict o b) with
      | Const x, Const y -> `Known (mod_eq_const x y)
      | a', b' when equal_mod_comm a' b' && clear o ~eps:mod_eps a' ->
          `Known true
      | a', b' -> resolve (Mod_eq (a', b'))
    end

(** [simplify ?facts ?oracle e] rewrites to a fixpoint (bounded; each
    pass shrinks or preserves size, so the bound is generous). [oracle]
    supersedes [facts] when both are given. *)
let simplify ?facts ?oracle e =
  let o =
    match (oracle, facts) with
    | Some o, _ -> o
    | None, Some f -> oracle_of_facts f
    | None, None -> permissive
  in
  (* A caller-supplied full oracle asks for semantic preservation (the
     translation-validated path); the permissive/facts path is the §4.1
     sympy-parity filter, which keeps its historical behavior inside
     [Mod_eq] operands too. *)
  let sm = Option.is_some oracle in
  let rec go e fuel =
    if fuel = 0 then e
    else begin
      let e' = pass ~sm ~strict:false o e in
      if equal_num e' e then e else go e' (fuel - 1)
    end
  in
  go e 32

(** [is_simplifiable ?facts ?oracle e] — the §4.1 enumeration filter: [e]
    is redundant if rewriting strictly reduces its node count. *)
let is_simplifiable ?facts ?oracle e = size (simplify ?facts ?oracle e) < size e
