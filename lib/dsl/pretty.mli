(** Pretty-printing in the notation of the paper's Table 2: infix
    arithmetic, [{cond} ? a : b] conditionals, macros by name, constants
    with minimal digits ([.7], not [0.700000]). *)

val const_to_string : float -> string
val num : Expr.num -> string
val to_string : Expr.num -> string
(** Alias of {!num}. *)

val boolean : Expr.boolean -> string
