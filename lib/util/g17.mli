(** Exact ["%.17g"] formatting: the bytes [Printf.sprintf "%.17g" x]
    produces, without Printf's format interpretation on every call.
    Seventeen significant digits round-trip every finite double, so
    this is the number format of trace files, JSON and the serve wire.

    Integral [|x| < 2^53] prints as a decimal integer ([-0.] as [-0]);
    normal [|x|] in [[1e-10, 1e17)] gets its digits from exact integer
    arithmetic, rounded half to even. Everything else (subnormals,
    [nan], infinities, larger or smaller magnitudes) goes through
    [Printf]. *)

val add : Buffer.t -> float -> unit
(** [add buf x] appends [Printf.sprintf "%.17g" x] to [buf]. *)

val to_string : float -> string
(** [to_string x] is [Printf.sprintf "%.17g" x]. *)
