(* Semantic equivalence of handler pairs, proved bit-exactly.

   Two provers, in increasing cost order:

   - a *structural prover*: both sides are put in relational normal
     form ([rnorm] — guards decidable under the zone are folded,
     branches rewritten under the refining assumption of their dominating
     guard, equal branches collapsed) and compared under the commutative
     canonical form.

   - a *SAT-backed guard-skeleton prover* (the in-house [Abg_sat]'s
     second client): the boolean skeleton over the distinct guard atoms
     of both sides is constrained by unit clauses (atoms the zone
     decides) and pairwise implications (atom_i => atom_j derived by
     assuming one atom and re-deciding the other), every satisfying
     assignment is enumerated with blocking clauses, and under each
     assignment both sides are specialized (each conditional replaced by
     the branch the assignment selects) and compared canonically. If
     every reachable guard combination specializes both sides to the
     same canonical form, the pair is equal — this catches equality that
     holds only because differing branch *structure* selects identical
     expressions, which no normal form sees.

   Either proof means the two sides evaluate bit-identically on every
   environment of the zone. A failed proof says nothing: its clients,
   lint's [branch-equivalent] rule and [validate_rewrite], act only on
   proofs. Holes are interchangeable placeholders, as in [Canonical]
   (the enumerator's own equivalence). *)

open Abg_util
open Abg_dsl

let obs_checks = Abg_obs.Obs.Counter.make "analysis.equiv_checks"
let obs_equal = Abg_obs.Obs.Counter.make "analysis.equiv_equal"

(* -- Relational normal form -- *)

let rec rnorm rel (e : Expr.num) : Expr.num =
  match e with
  | Expr.Cwnd | Expr.Signal _ | Expr.Macro _ | Expr.Const _ | Expr.Hole _ -> e
  | Expr.Add (a, b) -> Expr.Add (rnorm rel a, rnorm rel b)
  | Expr.Sub (a, b) -> Expr.Sub (rnorm rel a, rnorm rel b)
  | Expr.Mul (a, b) -> Expr.Mul (rnorm rel a, rnorm rel b)
  | Expr.Div (a, b) -> Expr.Div (rnorm rel a, rnorm rel b)
  | Expr.Cube a -> Expr.Cube (rnorm rel a)
  | Expr.Cbrt a -> Expr.Cbrt (rnorm rel a)
  | Expr.Ite (g, t, el) -> begin
      let g = rnorm_bool rel g in
      match Relint.boolean rel g with
      | Interval.True -> rnorm rel t
      | Interval.False -> rnorm rel el
      | Interval.Unknown -> begin
          (* An empty refined zone means the guard cannot take that truth
             value on any environment — the branch is unreachable. *)
          match (Relint.assume rel g true, Relint.assume rel g false) with
          | None, _ -> rnorm rel el
          | _, None -> rnorm rel t
          | Some rt, Some rf ->
              let t' = rnorm rt t and el' = rnorm rf el in
              if Simplify.equal_mod_comm t' el' then t'
              else Expr.Ite (g, t', el')
        end
    end

and rnorm_bool rel (g : Expr.boolean) : Expr.boolean =
  match g with
  | Expr.Lt (a, b) -> Expr.Lt (rnorm rel a, rnorm rel b)
  | Expr.Gt (a, b) -> Expr.Gt (rnorm rel a, rnorm rel b)
  | Expr.Mod_eq (a, b) -> Expr.Mod_eq (rnorm rel a, rnorm rel b)

(* -- Guard atoms and SAT skeleton -- *)

(* Gt(a, b) and Lt(b, a) are the same predicate on every float pair, so
   atoms are keyed on the Lt orientation. *)
let atom_key = function
  | Expr.Gt (a, b) -> Expr.Lt (b, a)
  | g -> g

let equal_atom a b = Simplify.equal_bool_mod_comm (atom_key a) (atom_key b)

let collect_atoms e acc =
  let add acc g = if List.exists (equal_atom g) acc then acc else g :: acc in
  let rec go acc = function
    | Expr.Cwnd | Expr.Signal _ | Expr.Macro _ | Expr.Const _ | Expr.Hole _ ->
        acc
    | Expr.Add (a, b) | Expr.Sub (a, b) | Expr.Mul (a, b) | Expr.Div (a, b) ->
        go (go acc a) b
    | Expr.Cube a | Expr.Cbrt a -> go acc a
    | Expr.Ite (g, t, el) ->
        let acc = add acc g in
        go (go (go_bool acc g) t) el
  and go_bool acc = function
    | Expr.Lt (a, b) | Expr.Gt (a, b) | Expr.Mod_eq (a, b) -> go (go acc a) b
  in
  go acc e

(* Replace every conditional by the branch the assignment selects.
   [truth g] must be total over the collected atoms. *)
let rec specialize truth (e : Expr.num) : Expr.num =
  match e with
  | Expr.Cwnd | Expr.Signal _ | Expr.Macro _ | Expr.Const _ | Expr.Hole _ -> e
  | Expr.Add (a, b) -> Expr.Add (specialize truth a, specialize truth b)
  | Expr.Sub (a, b) -> Expr.Sub (specialize truth a, specialize truth b)
  | Expr.Mul (a, b) -> Expr.Mul (specialize truth a, specialize truth b)
  | Expr.Div (a, b) -> Expr.Div (specialize truth a, specialize truth b)
  | Expr.Cube a -> Expr.Cube (specialize truth a)
  | Expr.Cbrt a -> Expr.Cbrt (specialize truth a)
  | Expr.Ite (g, t, el) ->
      if truth g then specialize truth t else specialize truth el

(* [sat_skeleton_equal rel a b] — true when every guard-truth
   combination consistent with the zone specializes both sides to the
   same canonical form; false on a mismatch, and (abstaining) when the
   skeleton has more than 8 atoms or more than 64 models. Soundness: for
   any concrete environment, its exact atom-truth vector satisfies every
   clause below (unit clauses and implications are derived from sound
   zone verdicts), so it appears among the enumerated assignments, under
   which both sides evaluate bit-identically to their specializations. *)
let sat_skeleton_equal rel a b =
  let atoms = List.rev (collect_atoms b (collect_atoms a [])) in
  let n = List.length atoms in
  if n = 0 || n > 8 then false
  else begin
    let atoms = Array.of_list atoms in
    let solver = Abg_sat.Solver.create () in
    let vars = Array.map (fun _ -> Abg_sat.Solver.new_var solver) atoms in
    (* Unit clauses: atoms the zone decides outright. *)
    Array.iteri
      (fun i g ->
        match Relint.boolean rel g with
        | Interval.True -> Abg_sat.Solver.add_clause solver [ vars.(i) ]
        | Interval.False -> Abg_sat.Solver.add_clause solver [ -vars.(i) ]
        | Interval.Unknown -> ())
      atoms;
    (* Pairwise implications: assume atom i at a truth value, then take
       atom j's verdict on the refined zone. *)
    for i = 0 to n - 1 do
      List.iter
        (fun truth_i ->
          let lit_i = if truth_i then vars.(i) else -vars.(i) in
          match Relint.assume rel atoms.(i) truth_i with
          | None -> Abg_sat.Solver.add_clause solver [ -lit_i ]
          | Some ri ->
              for j = 0 to n - 1 do
                if j <> i then begin
                  match Relint.boolean ri atoms.(j) with
                  | Interval.True ->
                      Abg_sat.Solver.add_clause solver [ -lit_i; vars.(j) ]
                  | Interval.False ->
                      Abg_sat.Solver.add_clause solver [ -lit_i; -vars.(j) ]
                  | Interval.Unknown -> ()
                end
              done)
        [ true; false ]
    done;
    (* Enumerate assignments; check the specializations under each. *)
    let truth_of model g =
      let rec find i =
        if i = n then
          (* every Ite guard was collected, so this is unreachable *)
          invalid_arg "Equiv.sat_skeleton_equal: unknown atom"
        else if equal_atom g atoms.(i) then model.(vars.(i))
        else find (i + 1)
      in
      find 0
    in
    let rec loop k =
      k > 0
      &&
      match Abg_sat.Solver.solve solver with
      | Abg_sat.Solver.Unsat -> true
      | Abg_sat.Solver.Sat model ->
          let truth = truth_of model in
          Canonical.equal (specialize truth a) (specialize truth b)
          && begin
               (* Block exactly this atom assignment. *)
               Abg_sat.Solver.add_clause solver
                 (Array.to_list
                    (Array.map (fun v -> if model.(v) then -v else v) vars));
               loop (k - 1)
             end
    in
    loop 64
  end

(* Hole filling for [validate_rewrite]'s sampling and lint's replay: the
   midpoint of the zone's hole interval (clamped finite). *)
let hole_fill rel =
  let iv = Relint.hole rel in
  let lo = Float.max iv.Interval.lo (-1e6)
  and hi = Float.min iv.Interval.hi 1e6 in
  let mid = lo +. ((hi -. lo) /. 2.0) in
  fun (_ : int) -> mid

let proves_equal rel a b =
  Abg_obs.Obs.Counter.incr obs_checks;
  let equal =
    Canonical.equal (rnorm rel a) (rnorm rel b) || sat_skeleton_equal rel a b
  in
  if equal then Abg_obs.Obs.Counter.incr obs_equal;
  equal

(* -- Translation validation for Simplify -- *)

(* Max intermediate magnitude of an evaluation, or [None] when any
   intermediate is non-finite, a divisor/modulus sits within 1e-9 of
   its guard, or an Add/Sub cancels catastrophically (result many
   orders of magnitude below its operands — such a value is dominated
   by the operands' roundoff, and a cancelling rewrite may legally
   move it beyond any result-scaled tolerance) — the draws on which
   rounding-tolerant comparison is not meaningful (mirrors the
   property-test hypothesis in test_analysis.ml). *)
let audit env e =
  let ok = ref true in
  let mx = ref 0.0 in
  let note v =
    if Float.is_finite v then begin
      if Float.abs v > !mx then mx := Float.abs v;
      v
    end
    else begin
      ok := false;
      v
    end
  in
  let rec go e =
    match e with
    | Expr.Cwnd -> note env.Env.cwnd
    | Expr.Signal s -> note (Env.signal env s)
    | Expr.Macro m -> note (Macro.eval env m)
    | Expr.Const c -> note c
    | Expr.Hole _ -> invalid_arg "Equiv.audit: unfilled hole"
    | Expr.Add (a, b) ->
        let va = go a and vb = go b in
        let r = va +. vb in
        if Float.abs r < 1e-3 *. Float.max (Float.abs va) (Float.abs vb)
        then ok := false;
        note r
    | Expr.Sub (a, b) ->
        let va = go a and vb = go b in
        let r = va -. vb in
        if Float.abs r < 1e-3 *. Float.max (Float.abs va) (Float.abs vb)
        then ok := false;
        note r
    | Expr.Mul (a, b) -> note (go a *. go b)
    | Expr.Div (a, b) ->
        let n = go a and d = go b in
        if Float.abs d < 1e-9 then ok := false;
        note (Floatx.safe_div n d)
    | Expr.Ite (c, t, el) -> if go_bool c then go t else go el
    | Expr.Cube a ->
        let v = go a in
        note (v *. v *. v)
    | Expr.Cbrt a -> note (Floatx.cbrt (go a))
  and go_bool g =
    match g with
    | Expr.Lt (a, b) -> go a < go b
    | Expr.Gt (a, b) -> go a > go b
    | Expr.Mod_eq (a, b) ->
        let a_v = go a and b_v = go b in
        if Float.abs b_v < 1e-9 then ok := false;
        if Float.abs b_v < 1e-9 then false
        else begin
          let r = Floatx.fmod a_v b_v in
          let tol = 0.05 *. Float.abs b_v in
          r <= tol || Float.abs b_v -. r <= tol
        end
  in
  let _ = go e in
  if !ok then Some !mx else None

type validation = [ `Proved | `Sampled of int ]

(* [validate_rewrite rel ~original ~rewritten] — translation validation
   for the simplifier. [`Proved] is a {!proves_equal} proof; [`Sampled n]
   means [n] zone-consistent draws agreed within a rounding tolerance
   scaled by the largest intermediate magnitude (cancellation rules are
   algebraic identities, exact only up to rounding of the cancelled
   intermediates). [Error env] carries a replayed environment on which
   the two disagree beyond tolerance. *)
let validate_rewrite ?(draws = 512) rel ~original ~rewritten =
  if proves_equal rel original rewritten then Ok `Proved
  else begin
    let fill = hole_fill rel in
    let filled e = match Expr.holes e with [] -> e | _ -> Expr.fill e fill in
    let o = filled original and r = filled rewritten in
    let rng = Rng.create 0x7A11 in
    let rec loop k sampled =
      if k = 0 then Ok (`Sampled sampled)
      else begin
        let env = Relint.sample_env rel rng in
        match (audit env o, audit env r) with
        | Some m1, Some m2 ->
            let va = Eval.num env o and vb = Eval.num env r in
            let eps = 1e-9 *. (1.0 +. Float.max m1 m2) in
            if Float.abs (va -. vb) <= eps then loop (k - 1) (sampled + 1)
            else Error env
        | _ -> loop (k - 1) sampled (* degenerate draw: no evidence *)
      end
    in
    loop draws 0
  end
