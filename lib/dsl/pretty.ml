(** Pretty-printing of DSL expressions, in the notation of the paper's
    Table 2: infix arithmetic, [{cond} ? a : b] conditionals, macros by
    name. Constants print with minimal digits ([.7], not [0.700000]). *)

let const_to_string c =
  if Float.is_integer c && Float.abs c < 1e15 then
    string_of_int (int_of_float c)
  else begin
    (* Trim trailing zeros of a fixed-point rendering; keep leading dot
       style used in the paper (".7"). *)
    let s = Printf.sprintf "%.6f" c in
    let s =
      let len = String.length s in
      let rec last_nonzero i = if s.[i] = '0' then last_nonzero (i - 1) else i in
      let i = last_nonzero (len - 1) in
      let i = if s.[i] = '.' then i - 1 else i in
      String.sub s 0 (i + 1)
    in
    if String.length s > 1 && s.[0] = '0' && s.[1] = '.' then
      String.sub s 1 (String.length s - 1)
    else if String.length s > 2 && s.[0] = '-' && s.[1] = '0' && s.[2] = '.'
    then "-" ^ String.sub s 2 (String.length s - 2)
    else s
  end

(* Precedence levels: additive 1, multiplicative 2, atom 3. A conditional
   always prints parenthesized so its extent is unambiguous. *)
let rec num_prec prec e =
  let paren level s = if level < prec then "(" ^ s ^ ")" else s in
  match e with
  | Expr.Cwnd -> "CWND"
  | Expr.Signal s -> Signal.name s
  | Expr.Macro m -> Macro.name m
  | Expr.Const c -> const_to_string c
  | Expr.Hole i -> Printf.sprintf "c%d" (i + 1)
  | Expr.Add (a, b) -> paren 1 (num_prec 1 a ^ " + " ^ num_prec 2 b)
  | Expr.Sub (a, b) -> paren 1 (num_prec 1 a ^ " - " ^ num_prec 2 b)
  | Expr.Mul (a, b) -> paren 2 (num_prec 2 a ^ " * " ^ num_prec 3 b)
  | Expr.Div (a, b) -> paren 2 (num_prec 2 a ^ " / " ^ num_prec 3 b)
  | Expr.Ite (c, t, e) ->
      "({" ^ boolean c ^ "} ? " ^ num_prec 0 t ^ " : " ^ num_prec 0 e ^ ")"
  | Expr.Cube a -> num_prec 3 a ^ "^3"
  | Expr.Cbrt a -> "cbrt(" ^ num_prec 3 a ^ ")"

and boolean = function
  | Expr.Lt (a, b) -> num_prec 1 a ^ " < " ^ num_prec 1 b
  | Expr.Gt (a, b) -> num_prec 1 a ^ " > " ^ num_prec 1 b
  | Expr.Mod_eq (a, b) -> num_prec 1 a ^ " % " ^ num_prec 1 b ^ " = 0"

let num e = num_prec 0 e
let to_string = num
