(** Staged compilation of DSL expressions into OCaml closures.

    {!Eval} walks the AST once per record; during replay that dispatch is
    paid for every ACK of every segment of every candidate. Compiling an
    expression once into a closure [Env.t -> float] moves all constructor
    matching to compile time: the per-record call is straight-line float
    code through a handful of closure applications.

    Three staging tiers do the work, cheapest first:

    - constant subexpressions collapse to a single float at compile time
      ([K] below), using exactly the arithmetic {!Eval} would have used,
      so folding never changes a result;
    - a binary node with a constant or [CWND] operand captures the float
      (or the field read) directly in its closure, skipping one closure
      application per operand;
    - the affine-increase family [CWND + c * macro] / [CWND + macro] —
      the shape of nearly every classical CCA handler (Reno, Westwood,
      Scalable, LP, Illinois, ...) — compiles to a single closure with
      the macro body and, for {!handler}, the finiteness/MSS guard
      inlined: zero internal applications per record.

    Hot closures avoid [Stdlib.Float] helpers that are not compiler
    primitives ([Float.min]/[max]/[is_finite] are out-of-line calls on a
    non-flambda compiler); the branchy replacements below are
    value-equivalent, including for NaN and infinities.

    {!Eval} remains the reference interpreter; [test/test_dsl.ml] checks
    closure ≡ interpreter over random expressions and environments. *)

(* Staged numeric value: a compile-time constant or a residual closure.
   [K] constants are produced with Eval's own operations so that
   [compile e = eval e] holds bit-for-bit. *)
type staged = K of float | F of (Env.t -> float)

(* Staged boolean: conditions over constants are decided at compile time,
   turning the whole [Ite] into its taken branch. *)
type staged_bool = B of bool | Fb of (Env.t -> bool)

(* Floatx.safe_div, locally: a direct call to a small same-module function
   is inlined by the classic (non-flambda) inliner; Float.abs is the
   "%abs_float" primitive and free. Must mirror Floatx.safe_div exactly. *)
let sdiv a b = if Float.abs b < Abg_util.Floatx.div_eps then 0.0 else a /. b

let signal_reader s : Env.t -> float =
  match s with
  | Signal.Mss -> fun env -> env.Env.mss
  | Signal.Acked_bytes -> fun env -> env.Env.acked_bytes
  | Signal.Time_since_loss -> fun env -> env.Env.time_since_loss
  | Signal.Rtt -> fun env -> env.Env.rtt
  | Signal.Min_rtt -> fun env -> env.Env.min_rtt
  | Signal.Max_rtt -> fun env -> env.Env.max_rtt
  | Signal.Ack_rate -> fun env -> env.Env.ack_rate
  | Signal.Rtt_gradient -> fun env -> env.Env.rtt_gradient
  | Signal.Delay_gradient -> fun env -> env.Env.delay_gradient
  | Signal.Wmax -> fun env -> env.Env.wmax

let macro_reader m : Env.t -> float =
  match m with
  | Macro.Reno_inc ->
      fun env -> sdiv (env.Env.acked_bytes *. env.Env.mss) env.Env.cwnd
  | Macro.Vegas_diff ->
      fun env ->
        sdiv ((env.Env.rtt -. env.Env.min_rtt) *. env.Env.ack_rate) env.Env.mss
  | Macro.Htcp_diff ->
      fun env -> sdiv (env.Env.rtt -. env.Env.min_rtt) env.Env.max_rtt
  | Macro.Rtts_since_loss -> fun env -> sdiv env.Env.time_since_loss env.Env.rtt

(* [CWND + k * macro] as one closure, macro body inlined. [k *. x] is
   bit-exact for [k = 1.0], so the mul-free form shares these. *)
let affine_body k m : Env.t -> float =
  match m with
  | Macro.Reno_inc ->
      fun env ->
        env.Env.cwnd +. (k *. sdiv (env.Env.acked_bytes *. env.Env.mss) env.Env.cwnd)
  | Macro.Vegas_diff ->
      fun env ->
        env.Env.cwnd
        +. (k *. sdiv ((env.Env.rtt -. env.Env.min_rtt) *. env.Env.ack_rate) env.Env.mss)
  | Macro.Htcp_diff ->
      fun env ->
        env.Env.cwnd +. (k *. sdiv (env.Env.rtt -. env.Env.min_rtt) env.Env.max_rtt)
  | Macro.Rtts_since_loss ->
      fun env -> env.Env.cwnd +. (k *. sdiv env.Env.time_since_loss env.Env.rtt)

(* Same family with Eval.handler's guard fused in: value-equivalent to
   [if not (Float.is_finite v) then mss else Float.max mss v] — NaN and
   -inf fail [v >= mss], +inf fails [v < infinity]. *)
let affine_handler k m : Env.t -> float =
  match m with
  | Macro.Reno_inc ->
      fun env ->
        let v =
          env.Env.cwnd +. (k *. sdiv (env.Env.acked_bytes *. env.Env.mss) env.Env.cwnd)
        in
        if v >= env.Env.mss && v < infinity then v else env.Env.mss
  | Macro.Vegas_diff ->
      fun env ->
        let v =
          env.Env.cwnd
          +. (k *. sdiv ((env.Env.rtt -. env.Env.min_rtt) *. env.Env.ack_rate) env.Env.mss)
        in
        if v >= env.Env.mss && v < infinity then v else env.Env.mss
  | Macro.Htcp_diff ->
      fun env ->
        let v =
          env.Env.cwnd +. (k *. sdiv (env.Env.rtt -. env.Env.min_rtt) env.Env.max_rtt)
        in
        if v >= env.Env.mss && v < infinity then v else env.Env.mss
  | Macro.Rtts_since_loss ->
      fun env ->
        let v = env.Env.cwnd +. (k *. sdiv env.Env.time_since_loss env.Env.rtt) in
        if v >= env.Env.mss && v < infinity then v else env.Env.mss

(* [n1 % n2 = 0] with Eval's tolerance, on already-evaluated operands. *)
let mod_eq_v a_v b_v =
  if Float.abs b_v < 1e-9 then false
  else begin
    let r = Abg_util.Floatx.fmod a_v b_v in
    let tol = 0.05 *. Float.abs b_v in
    r <= tol || Float.abs b_v -. r <= tol
  end

let rec stage (e : Expr.num) : staged =
  match e with
  | Expr.Cwnd -> F (fun env -> env.Env.cwnd)
  | Expr.Signal s -> F (signal_reader s)
  | Expr.Macro m -> F (macro_reader m)
  | Expr.Const c -> K c
  | Expr.Hole i -> F (fun _ -> raise (Eval.Unfilled_hole i))
  | Expr.Add (Expr.Cwnd, Expr.Mul (Expr.Const k, Expr.Macro m)) ->
      F (affine_body k m)
  | Expr.Add (Expr.Cwnd, Expr.Macro m) -> F (affine_body 1.0 m)
  | Expr.Add (Expr.Cwnd, b) -> (
      match stage b with
      | K y -> F (fun env -> env.Env.cwnd +. y)
      | F fb -> F (fun env -> env.Env.cwnd +. fb env))
  | Expr.Add (a, Expr.Cwnd) -> (
      match stage a with
      | K x -> F (fun env -> x +. env.Env.cwnd)
      | F fa -> F (fun env -> fa env +. env.Env.cwnd))
  | Expr.Add (a, b) -> (
      match (stage a, stage b) with
      | K x, K y -> K (x +. y)
      | K x, F fb -> F (fun env -> x +. fb env)
      | F fa, K y -> F (fun env -> fa env +. y)
      | F fa, F fb -> F (fun env -> fa env +. fb env))
  | Expr.Sub (Expr.Cwnd, b) -> (
      match stage b with
      | K y -> F (fun env -> env.Env.cwnd -. y)
      | F fb -> F (fun env -> env.Env.cwnd -. fb env))
  | Expr.Sub (a, Expr.Cwnd) -> (
      match stage a with
      | K x -> F (fun env -> x -. env.Env.cwnd)
      | F fa -> F (fun env -> fa env -. env.Env.cwnd))
  | Expr.Sub (a, b) -> (
      match (stage a, stage b) with
      | K x, K y -> K (x -. y)
      | K x, F fb -> F (fun env -> x -. fb env)
      | F fa, K y -> F (fun env -> fa env -. y)
      | F fa, F fb -> F (fun env -> fa env -. fb env))
  | Expr.Mul (Expr.Cwnd, b) -> (
      match stage b with
      | K y -> F (fun env -> env.Env.cwnd *. y)
      | F fb -> F (fun env -> env.Env.cwnd *. fb env))
  | Expr.Mul (a, Expr.Cwnd) -> (
      match stage a with
      | K x -> F (fun env -> x *. env.Env.cwnd)
      | F fa -> F (fun env -> fa env *. env.Env.cwnd))
  | Expr.Mul (a, b) -> (
      match (stage a, stage b) with
      | K x, K y -> K (x *. y)
      | K x, F fb -> F (fun env -> x *. fb env)
      | F fa, K y -> F (fun env -> fa env *. y)
      | F fa, F fb -> F (fun env -> fa env *. fb env))
  | Expr.Div (a, b) -> (
      match (stage a, stage b) with
      | K x, K y -> K (sdiv x y)
      | K x, F fb -> F (fun env -> sdiv x (fb env))
      (* A constant divisor's zero-guard is decided at compile time. *)
      | F fa, K y ->
          if Float.abs y < Abg_util.Floatx.div_eps then K 0.0
          else F (fun env -> fa env /. y)
      | F fa, F fb -> F (fun env -> sdiv (fa env) (fb env)))
  | Expr.Ite (c, t, e) -> (
      match stage_bool c with
      | B true -> stage t
      | B false -> stage e
      | Fb fc -> (
          match (stage t, stage e) with
          | K t, K e -> F (fun env -> if fc env then t else e)
          | K t, F fe -> F (fun env -> if fc env then t else fe env)
          | F ft, K e -> F (fun env -> if fc env then ft env else e)
          | F ft, F fe -> F (fun env -> if fc env then ft env else fe env)))
  | Expr.Cube a -> (
      match stage a with
      | K a -> K (a *. a *. a)
      | F fa ->
          F
            (fun env ->
              let v = fa env in
              v *. v *. v))
  | Expr.Cbrt a -> (
      match stage a with
      | K a -> K (Abg_util.Floatx.cbrt a)
      | F fa -> F (fun env -> Abg_util.Floatx.cbrt (fa env)))

and stage_bool (b : Expr.boolean) : staged_bool =
  match b with
  | Expr.Lt (a, b) -> (
      match (stage a, stage b) with
      | K x, K y -> B (x < y)
      | K x, F fb -> Fb (fun env -> x < fb env)
      | F fa, K y -> Fb (fun env -> fa env < y)
      | F fa, F fb -> Fb (fun env -> fa env < fb env))
  | Expr.Gt (a, b) -> (
      match (stage a, stage b) with
      | K x, K y -> B (x > y)
      | K x, F fb -> Fb (fun env -> x > fb env)
      | F fa, K y -> Fb (fun env -> fa env > y)
      | F fa, F fb -> Fb (fun env -> fa env > fb env))
  | Expr.Mod_eq (a, b) -> (
      match (stage a, stage b) with
      | K x, K y -> B (mod_eq_v x y)
      | K x, F fb -> Fb (fun env -> mod_eq_v x (fb env))
      | F fa, K y -> Fb (fun env -> mod_eq_v (fa env) y)
      | F fa, F fb -> Fb (fun env -> mod_eq_v (fa env) (fb env)))

let num e : Env.t -> float =
  match stage e with K c -> (fun _ -> c) | F f -> f

let boolean b : Env.t -> bool =
  match stage_bool b with B v -> (fun _ -> v) | Fb f -> f

let handler e : Env.t -> float =
  match e with
  (* The affine-increase family gets evaluation + guard in one closure. *)
  | Expr.Add (Expr.Cwnd, Expr.Mul (Expr.Const k, Expr.Macro m)) ->
      affine_handler k m
  | Expr.Add (Expr.Cwnd, Expr.Macro m) -> affine_handler 1.0 m
  | _ -> (
      match stage e with
      | K c ->
          if Float.is_finite c then
            fun env -> if c >= env.Env.mss then c else env.Env.mss
          else fun env -> env.Env.mss
      | F f ->
          fun env ->
            let v = f env in
            if v >= env.Env.mss && v < infinity then v else env.Env.mss)
