(** Small float helpers shared across the pipeline. *)

(** [approx_equal ?eps a b] compares with combined absolute/relative
    tolerance; robust near zero and for large magnitudes. *)
let approx_equal ?(eps = 1e-9) a b =
  let diff = Float.abs (a -. b) in
  diff <= eps || diff <= eps *. Float.max (Float.abs a) (Float.abs b)

let clamp ~lo ~hi x = Float.max lo (Float.min hi x)

(** The near-zero divisor threshold of [safe_div]. *)
let div_eps = 1e-12

(** [safe_div a b] avoids infinities: division by (near-)zero yields 0. The
    DSL evaluator uses this so that candidate handlers never poison a whole
    replay with a NaN from one degenerate sample. *)
let safe_div a b = if Float.abs b < div_eps then 0.0 else a /. b

(** [cbrt x] is the real cube root, defined for negative inputs too. *)
let cbrt x =
  if x >= 0.0 then Float.pow x (1.0 /. 3.0) else -.Float.pow (-.x) (1.0 /. 3.0)

(** [log_grid ~lo ~hi ~n] is [n] points logarithmically spaced in
    [[lo, hi]]; used for Figure 3's multiplicative-error sweep. *)
let log_grid ~lo ~hi ~n =
  assert (lo > 0.0 && hi > lo && n >= 2);
  let llo = log lo and lhi = log hi in
  Array.init n (fun i ->
      exp (llo +. ((lhi -. llo) *. float_of_int i /. float_of_int (n - 1))))

(** Positive floating-point modulo; [fmod 7.5 2.0 = 1.5], result in
    [[0, b)]. Used by the DSL's [num % num = 0] predicate. *)
let fmod a b =
  if b = 0.0 then 0.0
  else begin
    let r = Float.rem a b in
    if r < 0.0 then r +. Float.abs b else r
  end
