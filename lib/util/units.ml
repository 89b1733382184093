(** Dimensional analysis for DSL expressions.

    §4.1 of the paper imposes unit constraints on enumerated sketches ("the
    output should have the correct units, in this case bytes"). A unit is a
    vector of integer exponents over the two base dimensions that appear in
    congestion control: bytes and seconds. For example ack-rate is
    bytes/second, i.e. [{ bytes = 1; seconds = -1 }].

    The paper deliberately restricts itself to integer exponents so the
    enumeration formula stays in a quantifier-free finite domain; fractional
    exponents from cube roots are unrepresentable, which is exactly the
    documented Cubic limitation (§5.5) that we reproduce. *)

type t = { bytes : int; seconds : int }

let dimensionless = { bytes = 0; seconds = 0 }
let bytes = { bytes = 1; seconds = 0 }
let seconds = { bytes = 0; seconds = 1 }
let rate = { bytes = 1; seconds = -1 }

let equal a b = a.bytes = b.bytes && a.seconds = b.seconds
let mul a b = { bytes = a.bytes + b.bytes; seconds = a.seconds + b.seconds }
let div a b = { bytes = a.bytes - b.bytes; seconds = a.seconds - b.seconds }
let pow a k = { bytes = a.bytes * k; seconds = a.seconds * k }

(** [cbrt a] is [Some] of the cube root's unit when all exponents are
    divisible by 3, [None] otherwise (the integer-domain restriction). *)
let cbrt a =
  if a.bytes mod 3 = 0 && a.seconds mod 3 = 0 then
    Some { bytes = a.bytes / 3; seconds = a.seconds / 3 }
  else None

let to_string u =
  let part name e =
    match e with
    | 0 -> []
    | 1 -> [ name ]
    | e -> [ Printf.sprintf "%s^%d" name e ]
  in
  match part "B" u.bytes @ part "s" u.seconds with
  | [] -> "1"
  | parts -> String.concat "*" parts

(** All units reachable by combining DSL signals within a bounded expression
    depth; used as the finite domain of the enumeration encoding. The bound
    [limit] caps the absolute exponent value. *)
let domain ~limit =
  let acc = ref [] in
  for b = -limit to limit do
    for s = -limit to limit do
      acc := { bytes = b; seconds = s } :: !acc
    done
  done;
  List.rev !acc
