(* Relational abstract interpretation: a zone (difference-bound) domain
   over the DSL's environment variables, layered on the interval domain
   of [Absint].

   [Absint] is non-relational: it bounds every leaf independently, so a
   fact that holds only *between* signals — min-rtt <= rtt <= max-rtt —
   is invisible, and a guard like Student 5's [{vegas-diff / min-rtt <
   0}] (vacuous because vegas-diff's numerator rtt - min-rtt is
   physically nonnegative) stays Unknown. This is exactly the paper's
   §5.6 limitation. The zone domain closes it for difference-shaped
   facts: a closed matrix [d] of bounds [x_i - x_j <= d.(i).(j)] over
   {cwnd} ∪ signals ∪ {a virtual zero variable}, seeded from the
   interval contracts (via the zero row/column) plus the cross-signal
   invariants, and refined by guard assumptions ([assume]).

   Precision/compatibility contract: on expressions whose atoms carry no
   relational edge (e.g. every reno-DSL sketch — its leaves are cwnd,
   mss, acked-bytes, time-since-loss and holes), every [num] interval
   and [boolean] verdict below is *identical* to [Absint]'s. The
   difference-path bound through the zero variable is [hi_i -. lo_j],
   which is bit-for-bit [Interval.sub]'s upper endpoint, and the
   difference-based comparison verdict coincides with [Interval.lt]
   because the sign of an IEEE subtraction is exact ([a -. b < 0 <=> a <
   b] for non-NaN operands). The enumerator therefore gains relational
   pruning on the delay/vegas DSLs without perturbing the reno stream
   the CI fingerprint pins.

   The deliberate omission: [acked_bytes <= cwnd] is NOT seeded. The
   [Env.cwnd] a handler reads is the *candidate's own* simulated window,
   not the window the trace's sender used when the ACK was recorded, so
   the inequality can be violated mid-replay (a candidate that shrinks
   its window below the acked burst). Seeding it would make pruning
   unsound; see DESIGN.md §6. *)

open Abg_util
open Abg_dsl

(* Variable layout: 0 = cwnd, 1 + k = List.nth Signal.all k, and a last
   virtual variable fixed at 0 that encodes interval bounds as
   difference bounds. *)
let signals = Array.of_list Signal.all
let nvars = 2 + Array.length signals
let zero = nvars - 1
let var_cwnd = 0

let var_of_signal s =
  let rec go i =
    if i = Array.length signals then invalid_arg "Relint.var_of_signal"
    else if Signal.equal signals.(i) s then i + 1
    else go (i + 1)
  in
  go 0

type t = {
  d : float array array;
      (** closed difference-bound matrix: [x_i - x_j <= d.(i).(j)] *)
  box : Absint.box;  (** the interval box the zone was seeded from *)
}

(* Floyd–Warshall closure. Entries are finite or +infinity; the seeds
   below never produce -infinity, so [a +. b] needs no special-casing. *)
let close d =
  let n = Array.length d in
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      let dik = d.(i).(k) in
      if dik < Float.infinity then
        for j = 0 to n - 1 do
          let via = dik +. d.(k).(j) in
          if via < d.(i).(j) then d.(i).(j) <- via
        done
    done
  done

let feasible d =
  let n = Array.length d in
  let ok = ref true in
  for i = 0 to n - 1 do
    if d.(i).(i) < 0.0 then ok := false
  done;
  !ok

let interval_of t i = Interval.v (-.t.d.(zero).(i)) t.d.(i).(zero)
let cwnd_iv t = interval_of t var_cwnd
let signal_iv t s = interval_of t (var_of_signal s)
let hole t = t.box.Absint.hole

let of_box (box : Absint.box) =
  let d = Array.make_matrix nvars nvars Float.infinity in
  for i = 0 to nvars - 1 do
    d.(i).(i) <- 0.0
  done;
  let seed_iv i (iv : Interval.t) =
    d.(i).(zero) <- iv.Interval.hi;
    d.(zero).(i) <- -.iv.Interval.lo
  in
  seed_iv var_cwnd box.Absint.cwnd;
  Array.iteri (fun k s -> seed_iv (k + 1) (box.Absint.signal s)) signals;
  (* Cross-signal physical invariants: the trace substrate maintains
     min-rtt <= rtt <= max-rtt by construction. *)
  let vr = var_of_signal Signal.Rtt
  and vmin = var_of_signal Signal.Min_rtt
  and vmax = var_of_signal Signal.Max_rtt in
  d.(vmin).(vr) <- 0.0;
  d.(vr).(vmax) <- 0.0;
  d.(vmin).(vmax) <- 0.0;
  close d;
  { d; box }

let default () = of_box (Absint.default_box ())
let for_dsl dsl = of_box (Absint.box_for dsl)

(* The DBM variable denoted by an expression, when it is one. *)
let var_of = function
  | Expr.Cwnd -> Some var_cwnd
  | Expr.Signal s -> Some (var_of_signal s)
  | _ -> None

(* Refined interval of [a - b]: the interval-domain difference
   intersected with the zone bounds when both operands are environment
   variables. With no relational edge between the two, the closed zone
   bound through the zero variable equals [Interval.sub]'s endpoint
   exactly, so the intersection is the interval difference — [Absint]
   compatibility falls out by construction. *)
let rec diff t a b =
  let base = Interval.sub (num t a) (num t b) in
  match (var_of a, var_of b) with
  | Some i, Some j ->
      let hi = Float.min base.Interval.hi t.d.(i).(j)
      and lo = Float.max base.Interval.lo (-.t.d.(j).(i)) in
      if lo > hi then base else Interval.v ~nan:base.Interval.nan lo hi
  | _ -> base

and rdiff t s1 s2 = diff t (Expr.Signal s1) (Expr.Signal s2)

(* Macro transfer, mirroring [Absint.macro] operand-for-operand (which
   itself mirrors [Macro.eval]) — except that rtt - min-rtt difference
   goes through the zone, giving vegas-diff and htcp-diff their
   physically-correct nonnegative lower bound. *)
and macro t m =
  let s x = signal_iv t x in
  let open Interval in
  match m with
  | Macro.Reno_inc ->
      safe_div (mul (s Signal.Acked_bytes) (s Signal.Mss)) (cwnd_iv t)
  | Macro.Vegas_diff ->
      safe_div
        (mul (rdiff t Signal.Rtt Signal.Min_rtt) (s Signal.Ack_rate))
        (s Signal.Mss)
  | Macro.Htcp_diff ->
      safe_div (rdiff t Signal.Rtt Signal.Min_rtt) (s Signal.Max_rtt)
  | Macro.Rtts_since_loss ->
      safe_div (s Signal.Time_since_loss) (s Signal.Rtt)

and num t (e : Expr.num) : Interval.t =
  match e with
  | Expr.Cwnd -> cwnd_iv t
  | Expr.Signal s -> signal_iv t s
  | Expr.Macro m -> macro t m
  | Expr.Const c -> Interval.const c
  | Expr.Hole _ -> hole t
  | Expr.Add (a, b) -> Interval.add (num t a) (num t b)
  | Expr.Sub (a, b) -> diff t a b
  | Expr.Mul (a, b) -> Interval.mul (num t a) (num t b)
  | Expr.Div (a, b) -> Interval.safe_div (num t a) (num t b)
  | Expr.Ite (c, th, el) -> begin
      match boolean t c with
      | Interval.True -> num t th
      | Interval.False -> num t el
      | Interval.Unknown -> Interval.join (num t th) (num t el)
    end
  | Expr.Cube a -> Interval.cube (num t a)
  | Expr.Cbrt a -> Interval.cbrt (num t a)

(* Comparison through the difference: the sign of an IEEE subtraction is
   exact, so [a -. b < 0 <=> a < b] whenever neither operand is NaN (the
   interval's nan flag covers operand NaN; the inf - inf NaN cases all
   have a = b = ±inf, where a < b is false anyway, so the False arm is
   sound even under a set nan flag). *)
and verdict_of_diff (d : Interval.t) : Interval.verdict =
  if (not d.Interval.nan) && d.Interval.hi < 0.0 then Interval.True
  else if d.Interval.lo >= 0.0 then Interval.False
  else Interval.Unknown

and boolean t (b : Expr.boolean) : Interval.verdict =
  match b with
  | Expr.Lt (x, y) -> begin
      match Interval.lt (num t x) (num t y) with
      | Interval.Unknown -> verdict_of_diff (diff t x y)
      | v -> v
    end
  | Expr.Gt (x, y) -> begin
      match Interval.gt (num t x) (num t y) with
      | Interval.Unknown -> verdict_of_diff (diff t y x)
      | v -> v
    end
  | Expr.Mod_eq (x, y) -> Interval.mod_eq (num t x) (num t y)

(* Evidence interval for a decided guard: the refined difference whose
   sign proves the verdict (for Mod_eq, the modulus interval). *)
let guard_witness t = function
  | Expr.Lt (a, b) -> diff t a b
  | Expr.Gt (a, b) -> diff t b a
  | Expr.Mod_eq (_, b) -> num t b

(* -- Assumptions -- *)

let copy t = { t with d = Array.map Array.copy t.d }

let tighten d i j bound = if bound < d.(i).(j) then d.(i).(j) <- bound

(* [assume t g truth] refines the zone with guard [g] held at [truth]
   (strict bounds relaxed to non-strict — sound). Only comparisons whose
   operands are environment variables or constants tighten anything;
   everything else is a no-op. [None] means the zone became empty: no
   environment of [t] gives [g] that truth value. *)
let assume t (g : Expr.boolean) truth =
  (* a <= b, as a difference edge or a zero-edge. *)
  let le d a b =
    match (var_of a, var_of b, a, b) with
    | Some i, Some j, _, _ -> tighten d i j 0.0
    | Some i, None, _, Expr.Const c ->
        if Float.is_nan c then () else tighten d i zero c
    | None, Some j, Expr.Const c, _ ->
        if Float.is_nan c then () else tighten d zero j (-.c)
    | _ -> ()
  in
  let lt_pair a b truth = if truth then `Le (a, b) else `Le (b, a) in
  let edge =
    match g with
    | Expr.Lt (a, b) -> Some (lt_pair a b truth)
    | Expr.Gt (a, b) -> Some (lt_pair b a truth)
    | Expr.Mod_eq _ -> None
  in
  match edge with
  | None -> Some t
  | Some (`Le (a, b)) ->
      if var_of a = None && var_of b = None then Some t
      else begin
        let t' = copy t in
        le t'.d a b;
        close t'.d;
        if feasible t'.d then Some t' else None
      end

(* -- Deterministic sampling -- *)

(* A draw inside [lo, hi], log-uniform across wide positive ranges so
   huge physical ranges (cwnd up to 1e12) still produce small values,
   and clamped so that rounding never leaves the range. *)
let draw rng lo hi =
  let lo = Float.max lo (-1e12) and hi = Float.min hi 1e12 in
  if lo >= hi then lo
  else begin
    let x =
      if lo > 0.0 && hi /. lo > 1e4 then
        Float.exp (Rng.uniform rng (Float.log lo) (Float.log hi))
      else Rng.uniform rng lo hi
    in
    Float.min hi (Float.max lo x)
  end

(* Variables are drawn in layout order, each inside its interval and
   inside every edge to the variables already drawn. A closed zone
   extends every partial assignment that satisfies it, so each draw's
   range is non-empty and the environment satisfies every edge: the
   interval bounds, the rtt ordering and whatever [assume] added. *)
let sample_env t rng : Env.t =
  let x = Array.make zero 0.0 in
  for i = 0 to zero - 1 do
    let lo = ref (-.t.d.(zero).(i)) and hi = ref t.d.(i).(zero) in
    for j = 0 to i - 1 do
      lo := Float.max !lo (x.(j) -. t.d.(j).(i));
      hi := Float.min !hi (x.(j) +. t.d.(i).(j))
    done;
    x.(i) <- draw rng !lo !hi
  done;
  let s sg = x.(var_of_signal sg) in
  {
    Env.cwnd = x.(var_cwnd);
    mss = s Signal.Mss;
    acked_bytes = s Signal.Acked_bytes;
    time_since_loss = s Signal.Time_since_loss;
    rtt = s Signal.Rtt;
    min_rtt = s Signal.Min_rtt;
    max_rtt = s Signal.Max_rtt;
    ack_rate = s Signal.Ack_rate;
    rtt_gradient = s Signal.Rtt_gradient;
    delay_gradient = s Signal.Delay_gradient;
    wmax = s Signal.Wmax;
  }

(* -- The conditional walk -- *)

type reason = Vacuous_guard | Guard_implied

let all_reasons = [ Vacuous_guard; Guard_implied ]

let reason_name = function
  | Vacuous_guard -> "vacuous-guard"
  | Guard_implied -> "guard-implied"

type conditional = {
  expr : Expr.num;
  guard : Expr.boolean;
  interval : Interval.verdict;
  base : Interval.verdict;
  context : Interval.verdict;
  zone : t;
}

(* The conditional walk, where the enumerator and lint read the
   relational dead-guard rules. *)
let conditionals base (e : Expr.num) : conditional Seq.t =
  let rec walk zone (e : Expr.num) () =
    match e with
    | Expr.Cwnd | Expr.Signal _ | Expr.Macro _ | Expr.Const _ | Expr.Hole _ ->
        Seq.Nil
    | Expr.Add (a, b) | Expr.Sub (a, b) | Expr.Mul (a, b) | Expr.Div (a, b) ->
        Seq.append (walk zone a) (walk zone b) ()
    | Expr.Cube a | Expr.Cbrt a -> walk zone a ()
    | Expr.Ite (guard, t, el) ->
        let x, y =
          match guard with
          | Expr.Lt (x, y) | Expr.Gt (x, y) | Expr.Mod_eq (x, y) -> (x, y)
        in
        let under truth branch () =
          let zone' = Option.value (assume zone guard truth) ~default:zone in
          walk zone' branch ()
        in
        let interval = Absint.boolean zone.box guard in
        let c =
          { expr = e; guard; interval; base = boolean base guard;
            context = boolean zone guard; zone }
        in
        let rest = Seq.append (under true t) (under false el) in
        Seq.Cons (c, Seq.append (walk zone x) (Seq.append (walk zone y) rest))
  in
  walk base e

(* A guard the box decides is [Absint]'s dead guard, not ours. *)
let reason c =
  match (c.interval, c.base, c.context) with
  | Interval.Unknown, (Interval.True | Interval.False), _ -> Some Vacuous_guard
  | Interval.Unknown, Interval.Unknown, (Interval.True | Interval.False) ->
      Some Guard_implied
  | _ -> None

let prune base e = Seq.find_map reason (conditionals base e)

(* -- Simplify integration -- *)

let facts t : Simplify.facts =
 fun b ->
  match boolean t b with
  | Interval.True -> `True
  | Interval.False -> `False
  | Interval.Unknown -> `Unknown

(* The sound oracle: bounds come from the zone, and branch rewrites run
   under the refining assumption of the dominating guard. ([assume]
   returning [None] means the branch is unreachable; [pass_bool] resolves
   such guards via [facts] before [assuming] is ever consulted, so the
   fallback arm is academic.) *)
let rec oracle t : Simplify.oracle =
  {
    Simplify.facts = facts t;
    bound = (fun e -> num t e);
    assuming =
      (fun g truth ->
        match assume t g truth with Some t' -> oracle t' | None -> oracle t);
  }

let simplify t e = Simplify.simplify ~oracle:(oracle t) e
