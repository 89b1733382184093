(* Commutative normal form for DSL expressions.

   IEEE float [+] and [*] are exactly commutative, so [a + b] and
   [b + a] denote the same function. [normalize] orders the operands of
   every [Add]/[Mul] under a total order (leaves before compounds, CWND
   first, holes interchangeable) and renumbers the constant holes
   left-to-right, so any two sketches equal modulo
   commutativity-and-hole-naming map to the same tree. The SAT
   enumerator's lex-leader circuit encodes this same order, so (with
   symmetry breaking on) every sketch it decodes is already a fixed
   point of [normalize]. *)

open Abg_dsl
open Expr

let rank = function
  | Cwnd -> 0
  | Signal _ -> 1
  | Macro _ -> 2
  | Const _ -> 3
  | Hole _ -> 4
  | Add _ -> 5
  | Sub _ -> 6
  | Mul _ -> 7
  | Div _ -> 8
  | Ite _ -> 9
  | Cube _ -> 10
  | Cbrt _ -> 11

(* Total preorder on expressions used only to pick operand order. Holes
   compare equal regardless of index: hole names are arbitrary (they are
   renumbered after sorting), and making the order blind to them keeps
   normalization deterministic for alpha-equivalent sketches. *)
let rec compare_num a b =
  let c = Int.compare (rank a) (rank b) in
  if c <> 0 then c
  else
    match (a, b) with
    | Cwnd, Cwnd -> 0
    | Signal s, Signal s' -> Signal.compare s s'
    | Macro m, Macro m' -> Macro.compare m m'
    | Const x, Const x' -> Float.compare x x'
    | Hole _, Hole _ -> 0
    | Add (x, y), Add (x', y')
    | Sub (x, y), Sub (x', y')
    | Mul (x, y), Mul (x', y')
    | Div (x, y), Div (x', y') ->
        let c = compare_num x x' in
        if c <> 0 then c else compare_num y y'
    | Ite (g, t, e), Ite (g', t', e') ->
        let c = compare_bool g g' in
        if c <> 0 then c
        else begin
          let c = compare_num t t' in
          if c <> 0 then c else compare_num e e'
        end
    | Cube x, Cube x' | Cbrt x, Cbrt x' -> compare_num x x'
    | _ -> assert false (* equal ranks imply equal constructors *)

and compare_bool a b =
  let brank = function Lt _ -> 0 | Gt _ -> 1 | Mod_eq _ -> 2 in
  let c = Int.compare (brank a) (brank b) in
  if c <> 0 then c
  else
    match (a, b) with
    | Lt (x, y), Lt (x', y')
    | Gt (x, y), Gt (x', y')
    | Mod_eq (x, y), Mod_eq (x', y') ->
        let c = compare_num x x' in
        if c <> 0 then c else compare_num y y'
    | _ -> assert false

let rec sort_comm e =
  match e with
  | Cwnd | Signal _ | Macro _ | Const _ | Hole _ -> e
  | Add (a, b) ->
      let a' = sort_comm a and b' = sort_comm b in
      if compare_num a' b' <= 0 then Add (a', b') else Add (b', a')
  | Mul (a, b) ->
      let a' = sort_comm a and b' = sort_comm b in
      if compare_num a' b' <= 0 then Mul (a', b') else Mul (b', a')
  | Sub (a, b) ->
      let a' = sort_comm a in
      Sub (a', sort_comm b)
  | Div (a, b) ->
      let a' = sort_comm a in
      Div (a', sort_comm b)
  | Ite (c, t, el) ->
      let c' = sort_comm_bool c in
      let t' = sort_comm t in
      Ite (c', t', sort_comm el)
  | Cube a -> Cube (sort_comm a)
  | Cbrt a -> Cbrt (sort_comm a)

and sort_comm_bool = function
  | Lt (a, b) ->
      let a' = sort_comm a in
      Lt (a', sort_comm b)
  | Gt (a, b) ->
      let a' = sort_comm a in
      Gt (a', sort_comm b)
  | Mod_eq (a, b) ->
      let a' = sort_comm a in
      Mod_eq (a', sort_comm b)

(* Renumber holes 0, 1, ... in left-to-right order of the (already
   sorted) tree. Constructor argument evaluation order is unspecified in
   OCaml, so children are rebuilt under explicit lets. *)
let renumber e =
  let next = ref 0 in
  let rec num e =
    match e with
    | Cwnd | Signal _ | Macro _ | Const _ -> e
    | Hole _ ->
        let i = !next in
        incr next;
        Hole i
    | Add (a, b) ->
        let a' = num a in
        Add (a', num b)
    | Sub (a, b) ->
        let a' = num a in
        Sub (a', num b)
    | Mul (a, b) ->
        let a' = num a in
        Mul (a', num b)
    | Div (a, b) ->
        let a' = num a in
        Div (a', num b)
    | Ite (c, t, el) ->
        let c' = boolean c in
        let t' = num t in
        Ite (c', t', num el)
    | Cube a -> Cube (num a)
    | Cbrt a -> Cbrt (num a)
  and boolean = function
    | Lt (a, b) ->
        let a' = num a in
        Lt (a', num b)
    | Gt (a, b) ->
        let a' = num a in
        Gt (a', num b)
    | Mod_eq (a, b) ->
        let a' = num a in
        Mod_eq (a', num b)
  in
  num e

(** [normalize e] is the commutative normal form of [e]: semantically
    identical to [e] (IEEE [+]/[*] are exactly commutative and hole names
    are arbitrary), idempotent, and equal for any two expressions that
    differ only in commutative operand order or hole numbering. *)
let normalize e = renumber (sort_comm e)

let equal a b = equal_num (normalize a) (normalize b)
