(** Exact ["%.17g"] formatting, and its exact reader: the bytes
    [Printf.sprintf "%.17g" x] produces, without Printf's format
    interpretation on every call, and [float_of_string] on a field of
    them, without a copy. Seventeen significant digits round-trip every
    finite double, so this is the number format of trace files, JSON and
    the serve wire.

    Integral [|x| < 2^53] prints as a decimal integer ([-0.] as [-0]);
    normal [|x|] in [[1e-10, 1e17)] gets its digits from exact integer
    arithmetic, rounded half to even. Everything else (subnormals,
    [nan], infinities, larger or smaller magnitudes) goes through
    [Printf]. *)

val add : Buffer.t -> float -> unit
(** [add buf x] appends [Printf.sprintf "%.17g" x] to [buf]. *)

val to_string : float -> string
(** [to_string x] is [Printf.sprintf "%.17g" x]. *)

val of_substring : string -> int -> int -> float
(** [of_substring s pos len] is [float_of_string (String.sub s pos len)]:
    the same value, bit for bit, or the same [Failure]. A plain decimal
    [-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]{1,4})?] of at most 18 significant
    digits and a decimal exponent in [-22 .. 22] is read in place with
    exact integer and IEEE arithmetic. That covers every integer {!add}
    writes and every normal [|x|] in [[1e-6, 1e17)]; only a seventeen-
    digit value whose quotient falls next to a halfway point between
    two doubles goes on to [float_of_string], as does any other field. *)
