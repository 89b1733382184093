(* Tests for the analysis layer: the interval domain, the abstract
   interpreter's soundness contract (concrete Eval is contained in the
   derived interval for every environment inside the box), the dead-sketch
   prune reasons, commutative canonicalization, and the lint rules. *)

open Abg_dsl
open Expr
module I = Abg_util.Interval
module A = Abg_analysis.Absint
module C = Abg_analysis.Canonical
module L = Abg_analysis.Lint

let c v = Const v
let ri = Macro Macro.Reno_inc
let box = A.default_box ()

(* -- Interval domain -- *)

let test_interval_basics () =
  let i = I.v 1.0 3.0 in
  Alcotest.(check bool) "contains" true (I.contains i 2.0);
  Alcotest.(check bool) "below" false (I.contains i 0.5);
  Alcotest.(check bool) "nan off" false (I.contains i Float.nan);
  Alcotest.(check bool) "nan on" true
    (I.contains (I.v ~nan:true 1.0 3.0) Float.nan);
  Alcotest.(check bool) "flipped rejected" true
    (try
       ignore (I.v 2.0 1.0);
       false
     with Invalid_argument _ -> true);
  let j = I.join i (I.v 10.0 20.0) in
  Alcotest.(check bool) "join hull" true
    (I.contains j 1.0 && I.contains j 20.0 && I.contains j 5.0)

let test_interval_safe_div () =
  (* A denominator straddling zero contributes the guard's 0 plus both
     sign-definite quotient ranges. *)
  let q = I.safe_div (I.const 1.0) (I.v (-1.0) 1.0) in
  Alcotest.(check bool) "guard zero" true (I.contains q 0.0);
  Alcotest.(check bool) "positive side" true
    (I.contains q (Abg_util.Floatx.safe_div 1.0 0.5));
  Alcotest.(check bool) "negative side" true
    (I.contains q (Abg_util.Floatx.safe_div 1.0 (-0.5)));
  (* Denominator provably inside the guard: exactly {0}. *)
  let z = I.safe_div (I.v 1.0 2.0) (I.v (-1e-13) 1e-13) in
  Alcotest.(check (float 0.0)) "guarded lo" 0.0 (z : I.t).I.lo;
  Alcotest.(check (float 0.0)) "guarded hi" 0.0 z.I.hi

let test_interval_verdicts () =
  Alcotest.(check bool) "lt true" true (I.lt (I.v 0.0 1.0) (I.v 2.0 3.0) = I.True);
  Alcotest.(check bool) "lt false" true (I.lt (I.v 2.0 3.0) (I.v 0.0 1.0) = I.False);
  Alcotest.(check bool) "lt overlap" true
    (I.lt (I.v 0.0 2.0) (I.v 1.0 3.0) = I.Unknown);
  (* NaN comparisons are false, so possible NaN blocks True but not False. *)
  Alcotest.(check bool) "nan blocks true" true
    (I.lt (I.v ~nan:true 0.0 1.0) (I.v 2.0 3.0) = I.Unknown);
  Alcotest.(check bool) "nan keeps false" true
    (I.lt (I.v ~nan:true 2.0 3.0) (I.v 0.0 1.0) = I.False);
  Alcotest.(check bool) "mod_eq zero numerator" true
    (I.mod_eq (I.const 0.0) (I.const 2.0) = I.True);
  Alcotest.(check bool) "mod_eq tiny divisor" true
    (I.mod_eq (I.v 1.0 2.0) (I.v (-1e-10) 1e-10) = I.False)

(* -- Generators -- *)

(* Expressions without holes: every operator the evaluator has, plus
   zero and negative constants to hit the safe-division guard. Cube
   towers routinely overflow to inf/NaN, which is exactly what the
   domain's NaN flag and the handler floor rules must absorb. *)
let gen_expr =
  let open QCheck.Gen in
  let leaf =
    oneof
      [ return Cwnd; return ri; return (Macro Macro.Vegas_diff);
        return (Macro Macro.Htcp_diff); return (Macro Macro.Rtts_since_loss);
        return (Signal Signal.Mss); return (Signal Signal.Rtt);
        return (Signal Signal.Min_rtt); return (Signal Signal.Ack_rate);
        return (Signal Signal.Delay_gradient); return (Signal Signal.Wmax);
        return (Const 0.0);
        map (fun v -> Const v) (float_range (-4.0) 8.0) ]
  in
  sized (fun n ->
      fix
        (fun self n ->
          if n <= 1 then leaf
          else
            frequency
              [ (2, leaf);
                (2, map2 (fun a b -> Add (a, b)) (self (n / 2)) (self (n / 2)));
                (2, map2 (fun a b -> Sub (a, b)) (self (n / 2)) (self (n / 2)));
                (2, map2 (fun a b -> Mul (a, b)) (self (n / 2)) (self (n / 2)));
                (2, map2 (fun a b -> Div (a, b)) (self (n / 2)) (self (n / 2)));
                (1, map (fun a -> Cube a) (self (n - 1)));
                (1, map (fun a -> Cbrt a) (self (n - 1)));
                ( 1,
                  map3
                    (fun a b t -> Ite (Lt (a, b), t, Cwnd))
                    (self (n / 3)) (self (n / 3)) (self (n / 3)) );
                ( 1,
                  map3
                    (fun a b t -> Ite (Gt (a, b), t, b))
                    (self (n / 3)) (self (n / 3)) (self (n / 3)) );
                ( 1,
                  map3
                    (fun a b t -> Ite (Mod_eq (a, b), t, a))
                    (self (n / 3)) (self (n / 3)) (self (n / 3)) ) ])
        (min n 10))

(* A value inside [lo, hi], with the endpoints and the low decades
   over-weighted (a uniform draw over [0, 1e12] almost never lands in
   the physically common range). *)
let gen_in_range lo hi =
  let open QCheck.Gen in
  let near = Float.min hi (lo +. 10.0) in
  frequency
    [ (3, float_range lo hi); (3, float_range lo near); (1, return lo);
      (1, return hi) ]

(* Environments drawn inside the physical box the analysis assumes:
   every field within Signal.range, cwnd within the replay clamp. *)
let gen_box_env =
  let open QCheck.Gen in
  let r s =
    let lo, hi = Signal.range s in
    gen_in_range lo hi
  in
  gen_in_range 1.0 1e12 >>= fun cwnd ->
  r Signal.Mss >>= fun mss ->
  r Signal.Acked_bytes >>= fun acked_bytes ->
  r Signal.Time_since_loss >>= fun time_since_loss ->
  r Signal.Rtt >>= fun rtt ->
  r Signal.Min_rtt >>= fun min_rtt ->
  r Signal.Max_rtt >>= fun max_rtt ->
  r Signal.Ack_rate >>= fun ack_rate ->
  r Signal.Rtt_gradient >>= fun rtt_gradient ->
  r Signal.Delay_gradient >>= fun delay_gradient ->
  r Signal.Wmax >>= fun wmax ->
  return
    { Env.cwnd; mss; acked_bytes; time_since_loss; rtt; min_rtt; max_rtt;
      ack_rate; rtt_gradient; delay_gradient; wmax }

let arbitrary_expr_box_env =
  QCheck.make
    ~print:(fun (e, env) ->
      Printf.sprintf "%s in cwnd=%g mss=%g rtt=%g" (Pretty.num e) env.Env.cwnd
        env.Env.mss env.Env.rtt)
    QCheck.Gen.(pair gen_expr gen_box_env)

(* -- Soundness: concrete evaluation is inside the derived interval -- *)

let prop_absint_sound =
  QCheck.Test.make ~name:"Eval.num is contained in Absint.num" ~count:2000
    arbitrary_expr_box_env (fun (e, env) ->
      I.contains (A.num box e) (Eval.num env e))

let prop_absint_boolean_sound =
  QCheck.Test.make ~name:"definite guard verdicts agree with Eval.boolean"
    ~count:1000
    (QCheck.make QCheck.Gen.(pair (pair gen_expr gen_expr) gen_box_env))
    (fun ((a, b), env) ->
      List.for_all
        (fun g ->
          match A.boolean box g with
          | I.True -> Eval.boolean env g
          | I.False -> not (Eval.boolean env g)
          | I.Unknown -> true)
        [ Lt (a, b); Gt (a, b); Mod_eq (a, b) ])

(* -- Soundness: pruned sketches replay as their claimed equivalent -- *)

let dead_floor = Sub (c 0.0, Cwnd)
let dead_nonfinite = Cube (Cube (Cube (Cube (Mul (c 1e10, Cwnd)))))
let dead_denominator = Add (Cwnd, Div (Signal Signal.Mss, c 0.0))
let dead_guard = Add (Cwnd, Ite (Gt (Signal Signal.Rtt, c 200.0), c 1.0, c 2.0))

let prop_pruned_replay_as_floor =
  (* Collapses_to_floor / Always_nonfinite: the handler is the constant
     one-MSS floor on every in-box environment. *)
  QCheck.Test.make ~name:"pruned sketches replay as the one-MSS floor"
    ~count:500
    (QCheck.make gen_box_env)
    (fun env ->
      List.for_all
        (fun sk -> Float.equal (Eval.handler sk env) env.Env.mss)
        [ dead_floor; dead_nonfinite ])

let prop_pruned_equivalents =
  (* Zero_denominator / Dead_guard: the sketch evaluates exactly like the
     strictly smaller handler the search retains anyway. *)
  QCheck.Test.make ~name:"pruned sketches match their smaller equivalent"
    ~count:500
    (QCheck.make gen_box_env)
    (fun env ->
      Float.equal
        (Eval.num env dead_denominator)
        (Eval.num env (Add (Cwnd, c 0.0)))
      && Float.equal
           (Eval.num env dead_guard)
           (Eval.num env (Add (Cwnd, c 2.0))))

let test_prune_reasons () =
  let reason e =
    Option.map (fun (r, _) -> A.reason_name r) (A.prune box e)
  in
  Alcotest.(check (option string)) "collapse" (Some "collapses-to-floor")
    (reason dead_floor);
  Alcotest.(check (option string)) "nonfinite" (Some "always-nonfinite")
    (reason dead_nonfinite);
  Alcotest.(check (option string)) "zero denominator"
    (Some "zero-denominator") (reason dead_denominator);
  Alcotest.(check (option string)) "dead guard" (Some "dead-guard")
    (reason dead_guard);
  Alcotest.(check (option string)) "live reno" None
    (reason (Add (Cwnd, Mul (c 0.7, ri))));
  Alcotest.(check (option string)) "live vegas" None
    (reason
       (Add (Cwnd, Ite (Lt (Macro Macro.Vegas_diff, c 1.0), Mul (c 0.7, ri), c 0.0))))

(* -- Simplify preserves evaluation -- *)

(* Cancellation rules like [(a + b) - a -> b] or [x / x -> 1] are
   algebraic, not floating-point identities. They are exact up to
   rounding that scales with the largest intermediate — and not even
   that when a cancelled divisor lands inside the evaluator's
   safe-division guard, a modulus inside the divisibility epsilon, or an
   intermediate overflows (inf - inf rewritten to 0). The audit below
   computes the property's exact hypothesis: [None] when the evaluation
   leaves the regime where the rewrites are identities, otherwise
   [Some max_magnitude] for the rounding tolerance. *)
let eval_audit env e =
  let m = ref 0.0 in
  let clean = ref true in
  let note v =
    if Float.is_finite v then begin
      let a = Float.abs v in
      if a > !m then m := a
    end
    else clean := false
  in
  let rec go e =
    note (Eval.num env e);
    match e with
    | Add (a, b) | Sub (a, b) ->
        go a;
        go b;
        (* Catastrophic cancellation: when the sum is many orders of
           magnitude below its operands, its value is dominated by the
           operands' roundoff (ulp of the large magnitude), and a
           cancelling rewrite like rtt - wmax + wmax = rtt may legally
           differ from it by far more than any result-scaled
           tolerance. *)
        let va = Eval.num env a and vb = Eval.num env b in
        let r = Eval.num env e in
        if Float.abs r < 1e-3 *. Float.max (Float.abs va) (Float.abs vb)
        then clean := false
    | Mul (a, b) -> go a; go b
    | Div (a, b) ->
        go a;
        go b;
        if Float.abs (Eval.num env b) < 1e-9 then clean := false
    | Cube a | Cbrt a -> go a
    | Ite (g, t, el) -> go_bool g; go t; go el
    | Cwnd | Signal _ | Macro _ | Const _ | Hole _ -> ()
  and go_bool = function
    | Lt (a, b) | Gt (a, b) ->
        go a;
        go b;
        (* A comparison decided by less than the rounding slack is not a
           robust hypothesis: the permissive simplifier's up-to-rounding
           cancellations (a + (b - a) = b, cbrt(x)^3 = x) may legally
           land on the other side of it and flip the branch. *)
        let va = Eval.num env a and vb = Eval.num env b in
        let slack =
          1e-9 *. (1.0 +. Float.max (Float.abs va) (Float.abs vb))
        in
        if Float.abs (va -. vb) <= slack then clean := false
    | Mod_eq (a, b) ->
        go a;
        go b;
        let x = Eval.num env a and y = Eval.num env b in
        if Float.abs y < 1e-9 then clean := false
        else begin
          (* The tolerant divisibility predicate folds fmod of the
             numerator: an ulp-level rewrite of either operand shifts
             the remainder by up to ~1e-9 * |x|, so the verdict is only
             robust when the remainder sits clear of both tolerance
             boundaries by that much (and the shift itself stays well
             under the modulus — a huge |x| / |y| ratio makes fmod
             chaotic under perturbation). *)
          let slack = 1e-9 *. (1.0 +. Float.abs x) in
          let r = Abg_util.Floatx.fmod x y in
          let tol = 0.05 *. Float.abs y in
          if
            slack >= 0.5 *. Float.abs y
            || Float.abs (r -. tol) <= slack
            || Float.abs (Float.abs y -. r -. tol) <= slack
          then clean := false
        end
  in
  go e;
  if !clean then Some !m else None

let close_up_to_magnitude env e before after =
  match eval_audit env e with
  | None -> true
  | Some maxmag ->
      let eps = 1e-9 *. (1.0 +. maxmag) in
      Float.abs (before -. after) <= eps

let prop_simplify_preserves_eval =
  QCheck.Test.make ~name:"simplify preserves Eval up to rounding"
    ~count:1000 arbitrary_expr_box_env (fun (e, env) ->
      let before = Eval.num env e in
      let after = Eval.num env (Simplify.simplify e) in
      close_up_to_magnitude env e before after)

let prop_facts_simplify_preserves_eval =
  (* The interval-fact oracle may additionally resolve guards that are
     constant over the box; for environments inside the box that is
     exact, so the same tolerance applies. *)
  QCheck.Test.make ~name:"interval-fact simplify preserves Eval in the box"
    ~count:1000 arbitrary_expr_box_env (fun (e, env) ->
      let before = Eval.num env e in
      let after = Eval.num env (A.simplify box e) in
      close_up_to_magnitude env e before after)

let test_facts_resolve_dead_guard () =
  (* The plain simplifier cannot decide {rtt > 200}; the box can. *)
  let e = Ite (Gt (Signal Signal.Rtt, c 200.0), Mul (c 2.0, Cwnd), Cwnd) in
  Alcotest.(check bool) "plain keeps the ite" true
    (Expr.equal_num (Simplify.simplify e) e);
  Alcotest.(check bool) "facts collapse it" true
    (Expr.equal_num (A.simplify box e) Cwnd)

let test_simplify_self_comparison () =
  (* Commutative-equality reasoning: a guard comparing an expression to a
     commuted copy of itself is decidable without intervals. *)
  let a = Add (Cwnd, Signal Signal.Mss) and b = Add (Signal Signal.Mss, Cwnd) in
  Alcotest.(check bool) "x < x is false" true
    (Expr.equal_num (Simplify.simplify (Ite (Lt (a, b), c 1.0, c 2.0))) (c 2.0));
  Alcotest.(check bool) "x % x = 0 is true" true
    (Expr.equal_num
       (Simplify.simplify (Ite (Mod_eq (a, b), c 1.0, c 2.0)))
       (c 1.0))

(* -- Canonicalization -- *)

let arbitrary_expr_any_env =
  (* Any finite-field environment, in or out of the box: normalization
     must be exactly semantics-preserving everywhere. *)
  QCheck.make
    ~print:(fun (e, _) -> Pretty.num e)
    QCheck.Gen.(
      pair gen_expr
        (map
           (fun l ->
             match l with
             | [ cwnd; mss; acked_bytes; time_since_loss; rtt; min_rtt;
                 max_rtt; ack_rate; rtt_gradient; delay_gradient; wmax ] ->
                 { Env.cwnd; mss; acked_bytes; time_since_loss; rtt; min_rtt;
                   max_rtt; ack_rate; rtt_gradient; delay_gradient; wmax }
             | _ -> assert false)
           (list_repeat 11
              (oneof
                 [ float_range 0.0 50000.0; return 0.0;
                   float_range (-10.0) 10.0 ]))))

let prop_normalize_idempotent =
  QCheck.Test.make ~name:"normalize is idempotent" ~count:1000
    (QCheck.make ~print:Pretty.num gen_expr)
    (fun e -> Expr.equal_num (C.normalize (C.normalize e)) (C.normalize e))

let prop_normalize_merges_commuted =
  QCheck.Test.make ~name:"commuted operands share a normal form" ~count:1000
    (QCheck.make QCheck.Gen.(pair gen_expr gen_expr))
    (fun (a, b) -> C.equal (Add (a, b)) (Add (b, a)) && C.equal (Mul (a, b)) (Mul (b, a)))

let prop_normalize_preserves_eval =
  (* IEEE + and * are exactly commutative, so this is bit-exact (NaN
     compares equal to NaN under Float.equal). *)
  QCheck.Test.make ~name:"normalize preserves Eval bit-exactly" ~count:1000
    arbitrary_expr_any_env (fun (e, env) ->
      Float.equal (Eval.num env e) (Eval.num env (C.normalize e)))

let test_normalize_holes () =
  (* Holes are interchangeable for ordering and renumbered left-to-right
     after sorting, so hole labelling never splits a normal form. *)
  Alcotest.(check bool) "renumbered" true
    (Expr.equal_num
       (C.normalize (Mul (Hole 5, Add (Hole 2, Hole 5))))
       (Mul (Hole 0, Add (Hole 1, Hole 2))));
  Alcotest.(check bool) "labels do not split" true
    (C.equal (Add (Hole 3, Mul (Hole 1, Cwnd))) (Add (Hole 0, Mul (Hole 7, Cwnd))))

(* -- Lint -- *)

let test_lint_showcase_coverage () =
  let ids =
    List.sort_uniq String.compare
      (List.concat_map
         (fun (_, e) -> List.map (fun d -> d.L.rule) (L.check e))
         L.showcase)
  in
  List.iter
    (fun id ->
      Alcotest.(check bool) (id ^ " demonstrated") true (List.mem id ids))
    [ "collapses-to-floor"; "always-nonfinite"; "zero-denominator";
      "dead-guard"; "possible-zero-denominator"; "possible-nan";
      "unbounded-window"; "simplifiable"; "non-canonical";
      "vacuous-guard"; "guard-implied"; "branch-equivalent" ];
  Alcotest.(check bool) "at least four rules" true (List.length ids >= 4)

let test_lint_errors_are_pruned () =
  (* Error severity is reserved for what the search prunes. (Not "iff":
     a dead guard also prunes — a smaller equivalent sketch exists — but
     lints as a warning, because the handler itself is legal.) *)
  List.iter
    (fun (name, e) ->
      if List.exists (fun d -> d.L.severity = L.Error) (L.check e) then
        Alcotest.(check bool) (name ^ ": error implies pruned") true
          (A.prune box e <> None))
    L.showcase

let test_lint_clean_handler () =
  (* A canonical, live handler produces no diagnostics at all. *)
  Alcotest.(check int) "no diags" 0
    (List.length (L.check (Add (Cwnd, Mul (ri, c 0.7)))))

(* -- Relational layer: Relint soundness, Equiv verdicts -- *)

module R = Abg_analysis.Relint
module Q = Abg_analysis.Equiv

let rel = R.default ()

(* Environments satisfying the zone: inside the box AND relationally
   ordered (min-rtt <= rtt <= max-rtt). [gen_box_env] draws the three
   rtt-family signals independently and routinely violates the ordering
   invariant the zone is seeded with, so it cannot exercise Relint's
   soundness contract. *)
let gen_zone_env =
  let open QCheck.Gen in
  gen_box_env >>= fun env ->
  let lo, hi = Signal.range Signal.Rtt in
  gen_in_range lo hi >>= fun r1 ->
  gen_in_range lo hi >>= fun r2 ->
  gen_in_range lo hi >>= fun r3 ->
  match List.sort Float.compare [ r1; r2; r3 ] with
  | [ a; b; c ] -> return { env with Env.min_rtt = a; rtt = b; max_rtt = c }
  | _ -> assert false

let arbitrary_expr_zone_env =
  QCheck.make
    ~print:(fun (e, env) ->
      Printf.sprintf "%s in cwnd=%g rtt=%g min-rtt=%g max-rtt=%g"
        (Pretty.num e) env.Env.cwnd env.Env.rtt env.Env.min_rtt
        env.Env.max_rtt)
    QCheck.Gen.(pair gen_expr gen_zone_env)

let prop_relint_sound =
  QCheck.Test.make ~name:"Eval.num is contained in Relint.num" ~count:2000
    arbitrary_expr_zone_env (fun (e, env) ->
      I.contains (R.num rel e) (Eval.num env e))

let prop_relint_boolean_sound =
  QCheck.Test.make
    ~name:"definite Relint verdicts agree with Eval.boolean on the zone"
    ~count:1000
    (QCheck.make QCheck.Gen.(pair (pair gen_expr gen_expr) gen_zone_env))
    (fun ((a, b), env) ->
      List.for_all
        (fun g ->
          match R.boolean rel g with
          | I.True -> Eval.boolean env g
          | I.False -> not (Eval.boolean env g)
          | I.Unknown -> true)
        [ Lt (a, b); Gt (a, b); Mod_eq (a, b) ])

let prop_relint_assume_sound =
  (* [assume rel g truth] must keep every zone environment on which [g]
     evaluates to [truth]: the refined intervals still contain the
     concrete result, and [None] is only sound if no such environment
     exists. *)
  QCheck.Test.make ~name:"Relint.assume keeps the satisfying environments"
    ~count:1000
    (QCheck.make
       QCheck.Gen.(pair (pair gen_expr (pair gen_expr gen_expr)) gen_zone_env))
    (fun ((e, (a, b)), env) ->
      List.for_all
        (fun g ->
          let truth = Eval.boolean env g in
          match R.assume rel g truth with
          | None -> false (* the witness env satisfies g at truth *)
          | Some r -> I.contains (R.num r e) (Eval.num env e))
        [ Lt (a, b); Gt (a, b) ])

(* [env] is inside every interval of [zone] and keeps the rtt ordering. *)
let in_zone zone env =
  I.contains (R.cwnd_iv zone) env.Env.cwnd
  && List.for_all
       (fun s -> I.contains (R.signal_iv zone s) (Env.signal env s))
       Signal.all
  && env.Env.min_rtt <= env.Env.rtt
  && env.Env.rtt <= env.Env.max_rtt

let prop_relint_sample_env_in_zone =
  (* The replay cross-checks trust sample_env to stay inside the zone. *)
  QCheck.Test.make ~name:"Relint.sample_env satisfies the zone" ~count:500
    (QCheck.make QCheck.Gen.(int_bound 1_000_000))
    (fun seed -> in_zone rel (R.sample_env rel (Abg_util.Rng.create seed)))

let gen_var = QCheck.Gen.oneofl (Cwnd :: List.map (fun s -> Signal s) Signal.all)

let prop_relint_sample_env_keeps_assumed_order =
  (* An assumed order between two variables is a zone edge no interval
     shows; lint's replay of a [guard-implied] verdict that rests on one
     samples inside the zone only if every draw keeps it. *)
  QCheck.Test.make ~name:"Relint.sample_env keeps an assumed order"
    ~count:1000
    (QCheck.make
       ~print:(fun (x, y, seed) ->
         Printf.sprintf "%s <= %s, seed %d" (Pretty.num x) (Pretty.num y) seed)
       QCheck.Gen.(triple gen_var gen_var (int_bound 1_000_000)))
    (fun (x, y, seed) ->
      match R.assume rel (Lt (x, y)) true with
      | None -> true
      | Some zone ->
          let rng = Abg_util.Rng.create seed in
          List.for_all
            (fun _ ->
              let env = R.sample_env zone rng in
              in_zone zone env && Eval.num env x <= Eval.num env y)
            (List.init 16 Fun.id))

let prop_equiv_rnorm_bit_exact =
  (* The relational normal form promises bit-exact evaluation on every
     zone environment — [Equiv.proves_equal]'s first proof rests on it. *)
  QCheck.Test.make ~name:"Equiv.rnorm preserves Eval bit-exactly on the zone"
    ~count:1000 arbitrary_expr_zone_env (fun (e, env) ->
      Float.equal (Eval.num env e) (Eval.num env (Q.rnorm rel e)))

(* Every commutative node's operands swapped: the same function, bit for
   bit, in another form. *)
let rec commute = function
  | Add (a, b) -> Add (commute b, commute a)
  | Mul (a, b) -> Mul (commute b, commute a)
  | Sub (a, b) -> Sub (commute a, commute b)
  | Div (a, b) -> Div (commute a, commute b)
  | Cube a -> Cube (commute a)
  | Cbrt a -> Cbrt (commute a)
  | Ite (g, t, e) -> Ite (g, commute t, commute e)
  | (Cwnd | Signal _ | Macro _ | Const _ | Hole _) as e -> e

(* Pairs built to be mostly provable: a commuted copy, a conditional whose
   branches are commuted copies (the guard skeleton proves it where the
   normal form cannot), a guard the zone decides (rtt < min-rtt is false
   on it), and [Ite (Lt (x, y), a, x)] against [a], which differs
   wherever x >= y unless [a] is [x]: a prover that accepts a guard
   assignment whose specializations mismatch claims it, and the draws
   refute the claim. *)
let gen_equiv_pair =
  let open QCheck.Gen in
  gen_expr >>= fun a ->
  oneof
    [ return (a, commute a);
      map2 (fun x y -> (Ite (Lt (x, y), a, commute a), a)) gen_expr gen_expr;
      map
        (fun t ->
          (Ite (Lt (Signal Signal.Rtt, Signal Signal.Min_rtt), t, a), a))
        gen_expr;
      map2 (fun x y -> (Ite (Lt (x, y), a, x), a)) gen_var gen_var ]

let prop_equiv_proof_is_bit_exact =
  QCheck.Test.make ~name:"Equiv.proves_equal implies bit-equal Eval"
    ~count:500
    (QCheck.make
       ~print:(fun ((a, b), _) ->
         Printf.sprintf "%s vs %s" (Pretty.num a) (Pretty.num b))
       QCheck.Gen.(pair gen_equiv_pair (int_bound 1_000_000)))
    (fun ((a, b), seed) ->
      (not (Q.proves_equal rel a b))
      ||
      let rng = Abg_util.Rng.create seed in
      List.for_all
        (fun _ ->
          let env = R.sample_env rel rng in
          Float.equal (Eval.num env a) (Eval.num env b))
        (List.init 64 Fun.id))

let test_equiv_equal_matches_sampling () =
  (* Differential testing of the proofs across the catalog: for every
     handler pair the prover proves equal, 2000 zone-consistent draws
     must agree bit-for-bit (and known-identical pairs must indeed be
     proved, so the check is not vacuous). *)
  let handlers =
    List.map (fun (n, e) -> ("synthesized/" ^ n, e))
      Abg_core.Fine_tuned.synthesized
    @ List.map (fun (n, e) -> ("fine-tuned/" ^ n, e))
        Abg_core.Fine_tuned.fine_tuned
  in
  let equal_pairs = ref 0 in
  let rng = Abg_util.Rng.create 0xD1FF in
  List.iteri
    (fun i (ni, a) ->
      List.iteri
        (fun j (nj, b) ->
          if j > i && Q.proves_equal rel a b then begin
            incr equal_pairs;
            for _ = 1 to 2000 do
              let env = R.sample_env rel rng in
              Alcotest.(check bool)
                (Printf.sprintf "%s = %s on a zone draw" ni nj)
                true
                (Float.equal (Eval.num env a) (Eval.num env b))
            done
          end)
        handlers)
    handlers;
  (* reno/westwood duplicates across the two tables guarantee hits. *)
  Alcotest.(check bool) "some pairs proved Equal" true (!equal_pairs >= 2)

let test_equiv_student5 () =
  (* The §5.6 headline: Student 5's vacuous conditional is provably the
     constant 2*mss — a cross-signal fact the interval domain cannot
     decide (beyond-paper result). *)
  let s5 =
    match Abg_core.Fine_tuned.find_synthesized "student5" with
    | Some e -> e
    | None -> Alcotest.fail "student5 missing from the catalog"
  in
  let two_mss = Mul (c 2.0, Signal Signal.Mss) in
  (match s5 with
  | Ite (g, _, _) ->
      Alcotest.(check bool) "Absint cannot decide the guard" true
        (A.boolean box g = I.Unknown);
      Alcotest.(check bool) "Relint proves it false" true
        (R.boolean rel g = I.False)
  | _ -> Alcotest.fail "student5 should be a conditional");
  Alcotest.(check bool) "Equiv proves s5 = 2*mss" true
    (Q.proves_equal rel s5 two_mss);
  Alcotest.(check bool) "lint flags vacuous-guard" true
    (List.exists (fun d -> d.L.rule = "vacuous-guard") (L.check s5))

let test_sound_simplify_guard_adjacent_cancellation () =
  (* The §9 caveat, resolved: a cancellation adjacent to a guard fires
     only when the zone proves the guard keeps the operands clear of the
     evaluator's safe-division regime. [acked > 0] refines acked to
     [0, _] (strict relaxed to non-strict) — NOT clear of the guard, so
     the sound simplifier must keep the quotient; [acked > mss] proves
     acked >= 400, so it may fold. The permissive simplifier folds both
     (the historical §4.1 behavior, unchanged). *)
  let acked = Signal Signal.Acked_bytes and mss = Signal Signal.Mss in
  let risky = Ite (Gt (acked, c 0.0), Div (acked, acked), c 1.0) in
  let safe = Ite (Gt (acked, mss), Div (acked, acked), c 1.0) in
  Alcotest.(check bool) "sound: risky quotient kept" true
    (Expr.equal_num (R.simplify rel risky) risky);
  Alcotest.(check bool) "sound: proven quotient folds" true
    (Expr.equal_num (R.simplify rel safe) (c 1.0));
  Alcotest.(check bool) "permissive folds both" true
    (Expr.equal_num (Simplify.simplify risky) (c 1.0)
    && Expr.equal_num (Simplify.simplify safe) (c 1.0));
  (* And the witness for the sound behavior: an environment where the
     rewrite would have been wrong — acked positive (the guard binds the
     then-branch) yet inside the evaluator's safe-division guard, so the
     quotient is 0, not 1. *)
  let env =
    QCheck.Gen.generate1 gen_zone_env |> fun e ->
    { e with Env.acked_bytes = 1e-13 }
  in
  Alcotest.(check bool) "folding risky would change Eval" true
    (not (Float.equal (Eval.num env risky) (Eval.num env (c 1.0))))

let prop_sound_simplify_preserves_eval_on_zone =
  (* The sound simplifier's whole point: bit-exact-or-tolerance-free is
     too strong for cancellations, but on zone environments the same
     rounding tolerance as the permissive simplifier applies — without
     needing the audit to exclude division-guard regimes for the rules
     the oracle refused to fire. *)
  QCheck.Test.make ~name:"Relint.simplify preserves Eval on the zone"
    ~count:1000 arbitrary_expr_zone_env (fun (e, env) ->
      let before = Eval.num env e in
      let after = Eval.num env (R.simplify rel e) in
      close_up_to_magnitude env e before after)

let prop_validate_rewrite_accepts_sound =
  QCheck.Test.make ~name:"validate_rewrite accepts the sound simplifier"
    ~count:300 (QCheck.make ~print:Pretty.num gen_expr) (fun e ->
      match
        Q.validate_rewrite ~draws:128 rel ~original:e
          ~rewritten:(R.simplify rel e)
      with
      | Ok _ -> true
      | Error _ -> false)

(* -- One walk per rule: lint reports what the prune stages act on -- *)

(* Random conditional sketches over the vegas and cubic vocabularies, at
   most four levels deep, in canonical form (the form the relational
   stage reads). A constant slot is an open hole (the default box's hole
   interval is every float) or a value of the default constant pool, 0
   among them. The rtt-family signals and constants are drawn more often
   and conditionals nest often, so that guards meet (vacuous and implied
   guards need two of them to share an operand). *)
let gen_conditional_sketch =
  let open QCheck.Gen in
  let comps =
    List.sort_uniq Component.compare
      (Catalog.vegas.Catalog.components @ Catalog.cubic.Catalog.components)
  in
  let of_sort sort =
    List.filter
      (fun k -> Component.arity k > 0 && Component.sort k = sort)
      comps
  in
  let leaf =
    frequency
      (List.filter_map
         (function
           | Component.Leaf_cwnd -> Some (2, return Cwnd)
           | Component.Leaf_signal
               ((Signal.Rtt | Signal.Min_rtt | Signal.Max_rtt) as s) ->
               Some (3, return (Signal s))
           | Component.Leaf_signal s -> Some (1, return (Signal s))
           | Component.Leaf_macro m -> Some (1, return (Macro m))
           | Component.Leaf_const ->
               Some
                 ( 4,
                   frequency
                     [ (1, return (Hole 0));
                       ( 3,
                         oneofa Catalog.default_constants >|= fun v -> Const v
                       ) ]
                 )
           | _ -> None)
         comps)
  in
  (* [depth] counts the levels left, this node's included. *)
  let rec num depth =
    if depth <= 1 then leaf
    else
      let sub = num (depth - 1) in
      frequency
        [ (2, leaf);
          (2, map3 (fun g t e -> Ite (g, t, e)) (guard (depth - 1)) sub sub);
          ( 3,
            oneofl (of_sort Component.Num) >>= function
            | Component.Op_add -> map2 (fun a b -> Add (a, b)) sub sub
            | Component.Op_sub -> map2 (fun a b -> Sub (a, b)) sub sub
            | Component.Op_mul -> map2 (fun a b -> Mul (a, b)) sub sub
            | Component.Op_div -> map2 (fun a b -> Div (a, b)) sub sub
            | Component.Op_cube -> map (fun a -> Cube a) sub
            | Component.Op_cbrt -> map (fun a -> Cbrt a) sub
            | _ -> map3 (fun g t e -> Ite (g, t, e)) (guard (depth - 1)) sub sub
          ) ]
  and guard depth =
    let sub = num (depth - 1) in
    oneofl (of_sort Component.Bool) >>= function
    | Component.Op_lt -> map2 (fun a b -> Lt (a, b)) sub sub
    | Component.Op_gt -> map2 (fun a b -> Gt (a, b)) sub sub
    | _ -> map2 (fun a b -> Mod_eq (a, b)) sub sub
  in
  map3 (fun g t e -> C.normalize (Ite (g, t, e))) (guard 3) (num 3) (num 3)

let pruning_rules =
  List.map A.reason_name A.all_reasons @ List.map R.reason_name R.all_reasons

(* The first pruning rule lint reports is the reason the enumerator's
   stages act on: [Absint.prune]'s, else the relational stage's. A sketch
   neither stage prunes gets no pruning diagnostic. *)
let prop_lint_first_pruning_rule_is_the_prune =
  QCheck.Test.make ~name:"lint's first pruning rule is the prune reason"
    ~count:3000
    (QCheck.make ~print:Pretty.num gen_conditional_sketch)
    (fun e ->
      let lint =
        List.filter (fun d -> List.mem d.L.rule pruning_rules) (L.check e)
      in
      let first_is rule expr =
        match lint with
        | d :: _ -> d.L.rule = rule && Expr.equal_num d.L.expr expr
        | [] -> false
      in
      match A.prune box e with
      | Some (r, f) -> first_is (A.reason_name r) f.A.expr
      | None -> (
          match
            Seq.find_map
              (fun c -> Option.map (fun r -> (r, c)) (R.reason c))
              (R.conditionals rel e)
          with
          | None -> R.prune rel e = None && lint = []
          | Some (r, c) ->
              R.prune rel e = Some r && first_is (R.reason_name r) c.R.expr))

let test_lint_left_operand_first () =
  let left = Div (Cwnd, Signal Signal.Delay_gradient)
  and right = Div (Signal Signal.Mss, Signal Signal.Rtt_gradient) in
  Alcotest.(check (list (pair string string)))
    "pre-order, left operand first"
    [ ("possible-zero-denominator", Pretty.num left);
      ("possible-zero-denominator", Pretty.num right) ]
    (List.map
       (fun d -> (d.L.rule, Pretty.num d.L.expr))
       (L.check (Add (left, right))))

let qcheck tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let suites =
  [
    ( "analysis.interval",
      [
        Alcotest.test_case "basics" `Quick test_interval_basics;
        Alcotest.test_case "safe division" `Quick test_interval_safe_div;
        Alcotest.test_case "verdicts" `Quick test_interval_verdicts;
      ] );
    ( "analysis.absint",
      [ Alcotest.test_case "prune reasons" `Quick test_prune_reasons ]
      @ qcheck
          [
            prop_absint_sound; prop_absint_boolean_sound;
            prop_pruned_replay_as_floor; prop_pruned_equivalents;
          ] );
    ( "analysis.simplify",
      [
        Alcotest.test_case "facts resolve dead guard" `Quick
          test_facts_resolve_dead_guard;
        Alcotest.test_case "commuted self-comparison" `Quick
          test_simplify_self_comparison;
      ]
      @ qcheck [ prop_simplify_preserves_eval; prop_facts_simplify_preserves_eval ]
    );
    ( "analysis.canonical",
      [
        Alcotest.test_case "hole renumbering" `Quick test_normalize_holes;
      ]
      @ qcheck
          [
            prop_normalize_idempotent; prop_normalize_merges_commuted;
            prop_normalize_preserves_eval;
          ] );
    ( "analysis.lint",
      [
        Alcotest.test_case "showcase covers the rules" `Quick
          test_lint_showcase_coverage;
        Alcotest.test_case "errors are exactly prunes" `Quick
          test_lint_errors_are_pruned;
        Alcotest.test_case "clean handler" `Quick test_lint_clean_handler;
        Alcotest.test_case "left operand first" `Quick
          test_lint_left_operand_first;
      ]
      @ qcheck [ prop_lint_first_pruning_rule_is_the_prune ] );
    ( "analysis.relint",
      qcheck
        [
          prop_relint_sound; prop_relint_boolean_sound;
          prop_relint_assume_sound; prop_relint_sample_env_in_zone;
          prop_relint_sample_env_keeps_assumed_order;
        ] );
    ( "analysis.equiv",
      [
        Alcotest.test_case "Equal agrees with 2k-draw sampling" `Slow
          test_equiv_equal_matches_sampling;
        Alcotest.test_case "student5 is the vacuous conditional" `Quick
          test_equiv_student5;
      ]
      @ qcheck [ prop_equiv_proof_is_bit_exact; prop_equiv_rnorm_bit_exact ] );
    ( "analysis.sound-simplify",
      [
        Alcotest.test_case "guard-adjacent cancellation" `Quick
          test_sound_simplify_guard_adjacent_cancellation;
      ]
      @ qcheck
          [
            prop_sound_simplify_preserves_eval_on_zone;
            prop_validate_rewrite_accepts_sound;
          ] );
  ]
