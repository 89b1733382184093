(* Closed float intervals with an explicit NaN possibility flag.

   This is the abstract domain backing the analysis layer: a value is
   described by the set [lo, hi] (endpoints may be infinite) plus a flag
   saying whether NaN is also a possible outcome. NaN cannot live inside
   an ordered interval, so it is tracked out of band; every transfer
   function propagates it and adds it whenever an IEEE operation on
   in-range operands could produce it (inf - inf, 0 * inf, inf / inf).

   Soundness contract: if [x ∈ a] and [y ∈ b] (in the [contains] sense,
   which includes the NaN flag), then the concrete result of the mirrored
   float operation is contained in the derived interval. The transfer
   functions mirror the evaluator's semantics exactly — in particular
   division is [Floatx.safe_div] (near-zero denominators yield 0, never
   inf) and cube root is [Floatx.cbrt] (odd extension to negatives).

   Endpoint arithmetic is exact for add/sub/mul/div/cube because IEEE
   round-to-nearest is monotone in each argument, so the extreme concrete
   results are attained exactly at endpoint combinations. [cbrt] goes
   through [Float.pow], which libm does not guarantee to be correctly
   rounded, so its endpoints are widened by a couple of ulps. *)

type t = { lo : float; hi : float; nan : bool }

let v ?(nan = false) lo hi =
  if Float.is_nan lo || Float.is_nan hi || lo > hi then
    invalid_arg "Interval.v: requires lo <= hi and non-NaN endpoints";
  { lo; hi; nan }

let const c =
  if Float.is_nan c then { lo = Float.neg_infinity; hi = Float.infinity; nan = true }
  else { lo = c; hi = c; nan = false }

let contains i x = if Float.is_nan x then i.nan else i.lo <= x && x <= i.hi
let contains_zero i = i.lo <= 0.0 && 0.0 <= i.hi
let has_inf i = i.lo = Float.neg_infinity || i.hi = Float.infinity

let join a b =
  { lo = Float.min a.lo b.lo; hi = Float.max a.hi b.hi; nan = a.nan || b.nan }

let with_nan i = if i.nan then i else { i with nan = true }

let neg i = { lo = -.i.hi; hi = -.i.lo; nan = i.nan }

(* inf + (-inf) is the only NaN-producing addition; it needs one operand
   interval reaching +inf and the other -inf. The endpoint sums below are
   guarded so a NaN endpoint never leaks into the bounds: when the guard
   fires the replaced bound is a sound over-approximation (the concrete
   non-NaN sums, if any, lie inside the other bound's side). *)
let add a b =
  let lo =
    if a.lo = Float.neg_infinity || b.lo = Float.neg_infinity then
      Float.neg_infinity
    else a.lo +. b.lo
  and hi =
    if a.hi = Float.infinity || b.hi = Float.infinity then Float.infinity
    else a.hi +. b.hi
  in
  let nan =
    a.nan || b.nan
    || (a.hi = Float.infinity && b.lo = Float.neg_infinity)
    || (a.lo = Float.neg_infinity && b.hi = Float.infinity)
  in
  { lo; hi; nan }

let sub a b = add a (neg b)

(* Endpoint products, with 0 * inf endpoints (IEEE NaN) replaced by 0:
   whenever that guard fires, 0 is either an attainable product (the zero
   endpoint against any finite cofactor) or a sound widening. The NaN
   possibility itself is recorded in the flag. *)
let mul a b =
  let p x y =
    let v = x *. y in
    if Float.is_nan v then 0.0 else v
  in
  let c1 = p a.lo b.lo and c2 = p a.lo b.hi and c3 = p a.hi b.lo and c4 = p a.hi b.hi in
  let lo = Float.min (Float.min c1 c2) (Float.min c3 c4)
  and hi = Float.max (Float.max c1 c2) (Float.max c3 c4) in
  let nan =
    a.nan || b.nan
    || (contains_zero a && has_inf b)
    || (contains_zero b && has_inf a)
  in
  { lo; hi; nan }

(* [Floatx.safe_div]: denominators with |y| < eps yield exactly 0; the
   rest divide normally (and can overflow to inf, or make NaN from
   inf/inf). NaN denominators fall through safe_div's guard and produce
   NaN — covered by propagating [b.nan]. The denominator interval is
   split into its near-zero, positive and negative parts and the quotient
   sets are joined. *)
let safe_div a b =
  let div_eps = Floatx.div_eps in
  let acc = ref None in
  let push lo hi nan =
    let piece = { lo; hi; nan } in
    acc := Some (match !acc with None -> piece | Some i -> join i piece)
  in
  let quot_region d_lo d_hi =
    (* d is a denominator region of one sign, |d| >= eps. True division:
       endpoint candidates, dropping inf/inf NaN candidates (the real
       quotients they stand in for are covered by the other endpoints). *)
    let q x y =
      let v = x /. y in
      if Float.is_nan v then None else Some v
    in
    let cands =
      List.filter_map Fun.id
        [ q a.lo d_lo; q a.lo d_hi; q a.hi d_lo; q a.hi d_hi ]
    in
    let nan = a.nan || (has_inf a && (d_lo = Float.neg_infinity || d_hi = Float.infinity)) in
    match cands with
    | [] -> if nan then push 0.0 0.0 true (* only NaN results; keep flag *)
    | c :: rest ->
        let lo = List.fold_left Float.min c rest
        and hi = List.fold_left Float.max c rest in
        push lo hi nan
  in
  (* Near-zero part of the denominator: safe_div returns exactly 0. *)
  if b.lo < div_eps && b.hi > -.div_eps then push 0.0 0.0 false;
  if b.hi >= div_eps then quot_region (Float.max b.lo div_eps) b.hi;
  if b.lo <= -.div_eps then quot_region b.lo (Float.min b.hi (-.div_eps));
  let base =
    match !acc with
    | Some i -> i
    | None -> { lo = 0.0; hi = 0.0; nan = false } (* b empty? unreachable *)
  in
  if a.nan || b.nan then with_nan base else base

(* x^3 is odd and exactly monotone under round-to-nearest (each partial
   product is monotone for x >= 0, and (-x)*(-x)*(-x) = -(x*x*x) exactly
   by sign symmetry), so endpoints map to endpoints. *)
let cube i =
  let c x = x *. x *. x in
  { lo = c i.lo; hi = c i.hi; nan = i.nan }

(* Floatx.cbrt goes through Float.pow: faithful but not guaranteed
   correctly rounded, so widen each endpoint by two ulps to absorb any
   monotonicity wobble. *)
let cbrt i =
  let widen_down x =
    if Float.is_finite x then Float.pred (Float.pred x) else x
  and widen_up x = if Float.is_finite x then Float.succ (Float.succ x) else x in
  let c x =
    if x >= 0.0 then Float.pow x (1.0 /. 3.0)
    else -.Float.pow (-.x) (1.0 /. 3.0)
  in
  { lo = widen_down (c i.lo); hi = widen_up (c i.hi); nan = i.nan }

type verdict = True | False | Unknown

(* a < b definitely true needs every pair strictly ordered AND no NaN on
   either side (NaN comparisons are false). Definitely false only needs
   the ranges disjoint the other way: NaN also compares false, so a
   possible NaN cannot flip a False verdict. *)
let lt a b =
  if (not a.nan) && (not b.nan) && a.hi < b.lo then True
  else if a.lo >= b.hi then False
  else Unknown

let gt a b = lt b a

(* The evaluator's [a % b = 0] predicate: tolerance 0.05 * |b|, and
   |b| < 1e-9 is defined as false. NaN on either side also evaluates
   false (every comparison in its implementation fails). *)
let mod_eq a b =
  if b.hi < 1e-9 && b.lo > -1e-9 then False
  else if
    (not a.nan) && (not b.nan) && a.lo = 0.0 && a.hi = 0.0
    && (b.lo >= 1e-9 || b.hi <= -1e-9)
  then True
  else Unknown

let pp ppf i =
  Format.fprintf ppf "[%g, %g]%s" i.lo i.hi (if i.nan then " or NaN" else "")
