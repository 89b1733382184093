(* Abstract interpretation of DSL expressions over an interval domain.

   Every leaf of an expression is bounded by its physical contract — the
   signal ranges published by [Abg_dsl.Signal.range], the replay clamp on
   cwnd, and the concretization pool for constant holes — and the
   transfer functions of [Abg_util.Interval] mirror the evaluator's float
   semantics exactly (safe division, sign-aware cube root, NaN
   propagation). The derived interval therefore contains every value
   [Eval.num] can produce on any in-range environment; that containment
   is the soundness property qcheck exercises in test_analysis.ml.

   On top of the interpreter sits the interval walk ([findings]), which
   decides each prune rule once for the enumerator and for lint: a
   handler is dead on arrival when its interval proves the replayed
   window can never differ from the floor the evaluator would impose
   anyway (provably <= 0 or provably non-finite, both of which
   [Eval.handler] maps to one MSS), or when a subterm makes the whole
   sketch semantically equal to a sketch the enumerator emits elsewhere
   at smaller size (a division whose denominator is provably inside the
   safe-div guard, a conditional whose guard is constant over the whole
   box). Pruning one of these never loses behavior: the surviving space
   still contains an equivalent handler. *)

open Abg_util
open Abg_dsl

type box = {
  cwnd : Interval.t;
  hole : Interval.t;
  signal : Signal.t -> Interval.t;
}

let signal_interval s =
  let lo, hi = Signal.range s in
  Interval.v lo hi

(* The replay loop clamps the window to [1e12] and the handler floors it
   at one MSS, but the *input* cwnd of the very first record is the
   observed one, so the lower bound is kept at a conservative 1. *)
let cwnd_interval = Interval.v 1.0 1e12

let pool_interval pool =
  if Array.length pool = 0 then Interval.v Float.neg_infinity Float.infinity
  else begin
    let lo = Array.fold_left Float.min pool.(0) pool
    and hi = Array.fold_left Float.max pool.(0) pool in
    Interval.v lo hi
  end

let default_box ?hole () =
  let hole =
    match hole with
    | Some h -> h
    | None -> Interval.v Float.neg_infinity Float.infinity
  in
  { cwnd = cwnd_interval; hole; signal = signal_interval }

let box_for (dsl : Catalog.t) =
  default_box ~hole:(pool_interval dsl.Catalog.constant_pool) ()

let macro box m =
  let s x = box.signal x in
  let open Interval in
  match m with
  | Macro.Reno_inc ->
      safe_div (mul (s Signal.Acked_bytes) (s Signal.Mss)) box.cwnd
  | Macro.Vegas_diff ->
      safe_div
        (mul (sub (s Signal.Rtt) (s Signal.Min_rtt)) (s Signal.Ack_rate))
        (s Signal.Mss)
  | Macro.Htcp_diff ->
      safe_div (sub (s Signal.Rtt) (s Signal.Min_rtt)) (s Signal.Max_rtt)
  | Macro.Rtts_since_loss ->
      safe_div (s Signal.Time_since_loss) (s Signal.Rtt)

let rec num box (e : Expr.num) : Interval.t =
  match e with
  | Expr.Cwnd -> box.cwnd
  | Expr.Signal s -> box.signal s
  | Expr.Macro m -> macro box m
  | Expr.Const c -> Interval.const c
  | Expr.Hole _ -> box.hole
  | Expr.Add (a, b) -> Interval.add (num box a) (num box b)
  | Expr.Sub (a, b) -> Interval.sub (num box a) (num box b)
  | Expr.Mul (a, b) -> Interval.mul (num box a) (num box b)
  | Expr.Div (a, b) -> Interval.safe_div (num box a) (num box b)
  | Expr.Ite (c, t, e) -> begin
      match boolean box c with
      | Interval.True -> num box t
      | Interval.False -> num box e
      | Interval.Unknown -> Interval.join (num box t) (num box e)
    end
  | Expr.Cube a -> Interval.cube (num box a)
  | Expr.Cbrt a -> Interval.cbrt (num box a)

and boolean box (b : Expr.boolean) : Interval.verdict =
  match b with
  | Expr.Lt (a, b) -> Interval.lt (num box a) (num box b)
  | Expr.Gt (a, b) -> Interval.gt (num box a) (num box b)
  | Expr.Mod_eq (a, b) -> Interval.mod_eq (num box a) (num box b)

(* Guard oracle for [Simplify.simplify ~facts]. *)
let facts box : Simplify.facts =
 fun b ->
  match boolean box b with
  | Interval.True -> `True
  | Interval.False -> `False
  | Interval.Unknown -> `Unknown

let simplify box e = Simplify.simplify ~facts:(facts box) e
let is_simplifiable box e = Simplify.is_simplifiable ~facts:(facts box) e

type reason =
  | Collapses_to_floor
  | Always_nonfinite
  | Zero_denominator
  | Dead_guard

let all_reasons =
  [ Collapses_to_floor; Always_nonfinite; Zero_denominator; Dead_guard ]

let reason_name = function
  | Collapses_to_floor -> "collapses-to-floor"
  | Always_nonfinite -> "always-nonfinite"
  | Zero_denominator -> "zero-denominator"
  | Dead_guard -> "dead-guard"

type rule =
  | Collapses_to_floor | Always_nonfinite | Unbounded_window | Possible_nan
  | Zero_denominator | Possible_zero_denominator | Dead_guard of bool

type finding = { rule : rule; expr : Expr.num; witness : Interval.t }

let prunes : rule -> reason option = function
  | Collapses_to_floor -> Some Collapses_to_floor
  | Always_nonfinite -> Some Always_nonfinite
  | Zero_denominator -> Some Zero_denominator
  | Dead_guard _ -> Some Dead_guard
  | Unbounded_window | Possible_nan | Possible_zero_denominator -> None

(* Lazy, so a client that stops at the first finding it acts on
   computes nothing past it. *)
let findings box (e : Expr.num) : finding Seq.t =
  let eps = Floatx.div_eps in
  let rec sub (e : Expr.num) () =
    match e with
    | Expr.Cwnd | Expr.Signal _ | Expr.Macro _ | Expr.Const _ | Expr.Hole _ ->
        Seq.Nil
    | Expr.Add (a, b) | Expr.Sub (a, b) | Expr.Mul (a, b) ->
        Seq.append (sub a) (sub b) ()
    | Expr.Div (a, b) ->
        let rest = Seq.append (sub a) (sub b) in
        let di = num box b in
        let found rule = Seq.Cons ({ rule; expr = e; witness = di }, rest) in
        if (not di.Interval.nan) && di.Interval.hi < eps
           && di.Interval.lo > -.eps
        then found Zero_denominator
        else if di.Interval.lo < eps && di.Interval.hi > -.eps then
          found Possible_zero_denominator
        else rest ()
    | Expr.Ite (c, t, el) -> (
        let x, y =
          match c with
          | Expr.Lt (x, y) | Expr.Gt (x, y) | Expr.Mod_eq (x, y) -> (x, y)
        in
        let rest =
          Seq.append (sub x) (Seq.append (sub y) (Seq.append (sub t) (sub el)))
        in
        (* A decided guard's witness is its left-hand side's interval,
           which together with the right-hand side's proves the verdict. *)
        let dead truth =
          let witness = num box x in
          Seq.Cons ({ rule = Dead_guard truth; expr = e; witness }, rest)
        in
        match boolean box c with
        | Interval.True -> dead true
        | Interval.False -> dead false
        | Interval.Unknown -> rest ())
    | Expr.Cube a | Expr.Cbrt a -> sub a ()
  in
  fun () ->
    let i = num box e in
    let bound =
      if i.Interval.hi <= 0.0 then [ Collapses_to_floor ]
      else if i.Interval.lo = Float.infinity then [ Always_nonfinite ]
      else if i.Interval.hi = Float.infinity then [ Unbounded_window ]
      else []
    in
    let nan =
      i.Interval.nan && i.Interval.lo <> Float.infinity && i.Interval.hi > 0.0
    in
    let window = if nan then bound @ [ Possible_nan ] else bound in
    let found rule = { rule; expr = e; witness = i } in
    Seq.append (List.to_seq (List.map found window)) (sub e) ()

(* The walk's first finding that proves [e] dead on arrival: the
   constant floor for [Collapses_to_floor] and [Always_nonfinite] (cf.
   [Eval.handler]'s non-finite/minimum guard), a strictly smaller
   equivalent sketch for [Zero_denominator] and [Dead_guard]. *)
let prune box (e : Expr.num) : (reason * finding) option =
  Seq.find_map
    (fun f -> Option.map (fun r -> (r, f)) (prunes f.rule))
    (findings box e)
