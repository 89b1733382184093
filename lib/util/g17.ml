(* Exact ["%.17g"] without Printf. See g17.mli for the contract.

   For a normal [x] with 10^p <= |x| < 10^(p+1), the 17 significant
   digits are [|x| * 10^s] rounded to an integer, s = 16 - p. Writing
   |x| = m * 2^e (m the 53-bit significand), that is m * 5^s * 2^(e+s):
   an exact integer product followed by a binary shift. Over
   [1e-10, 1e17) the scale s stays in 0 .. 26, so 5^s < 2^61 and
   the product fits two 62-bit limbs; the bits the shift drops decide
   the rounding, half to even, as glibc's printf does. *)

let two53 = 9007199254740992.0

let powers base n =
  let a = Array.make n 1 in
  for i = 1 to n - 1 do
    a.(i) <- a.(i - 1) * base
  done;
  a

let pow5 = powers 5 27
let pow10 = powers 10 18
let mask31 = (1 lsl 31) - 1

(* Digits of [n >= 0], most significant first. *)
let rec add_int buf n =
  if n >= 10 then add_int buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

(* Exactly [width] digits of [0 <= n < 10^width], zero-padded. *)
let add_padded buf n width =
  for i = width - 1 downto 0 do
    Buffer.add_char buf (Char.unsafe_chr (48 + (n / pow10.(i) mod 10)))
  done

(* [n > 0] without its trailing zeros, and how many digits remain of
   [width]. *)
let strip n width =
  let n = ref n and w = ref width in
  while !n mod 10 = 0 do
    n := !n / 10;
    decr w
  done;
  (!n, !w)

(* [d] holds the 17 significant digits (10^16 <= d < 10^17) of a value
   whose decimal exponent is [x]; lay them out as %g does with
   precision 17 and without '#': fixed notation for -4 <= x < 17,
   exponent notation otherwise, trailing fraction zeros dropped. *)
let add_digits buf d x =
  if x >= 0 && x < 17 then begin
    let scale = pow10.(16 - x) in
    add_int buf (d / scale);
    let frac = d mod scale in
    if frac <> 0 then begin
      let frac, width = strip frac (16 - x) in
      Buffer.add_char buf '.';
      add_padded buf frac width
    end
  end
  else if x < 0 && x >= -4 then begin
    Buffer.add_string buf "0.";
    for _ = 1 to -x - 1 do
      Buffer.add_char buf '0'
    done;
    let d, width = strip d 17 in
    add_padded buf d width
  end
  else begin
    add_int buf (d / pow10.(16));
    let frac = d mod pow10.(16) in
    if frac <> 0 then begin
      let frac, width = strip frac 16 in
      Buffer.add_char buf '.';
      add_padded buf frac width
    end;
    (* Only -10 <= x < -4 and x = 17 get here: two exponent digits. *)
    Buffer.add_string buf (if x < 0 then "e-" else "e+");
    add_padded buf (abs x) 2
  end

(* [|x| * 10^s] for a normal [ax = m * 2^e]: the floor of that product
   in [!q], and in [!cmp] how the dropped fraction compares with one
   half (negative below, zero at exactly half, positive above). *)
let scaled ~m ~e ~s q cmp =
  let f = pow5.(s) in
  (* m * f as hi * 2^62 + lo, through 31-bit partial products that each
     fit a 63-bit int: m < 2^53, f < 2^61. *)
  let ml = m land mask31 and mh = m lsr 31 in
  let fl = f land mask31 and fh = f lsr 31 in
  let ll = ml * fl in
  let c = (ll lsr 31) + (mh * fl) + (ml * fh) in
  let lo = ll land mask31 lor ((c land mask31) lsl 31) in
  let hi = (c lsr 31) + (mh * fh) in
  let k = -(e + s) in
  if k <= 0 then begin
    (* Only integral |x| >= 2^53 get here, with e + s <= 5 and hi = 0. *)
    q := lo lsl (-k);
    cmp := -1
  end
  else if k < 62 then begin
    q := (hi lsl (62 - k)) lor (lo lsr k);
    cmp := compare (lo land ((1 lsl k) - 1)) (1 lsl (k - 1))
  end
  else if k = 62 then begin
    q := hi;
    cmp := compare lo (1 lsl 61)
  end
  else begin
    let j = k - 62 in
    q := hi lsr j;
    let rem = hi land ((1 lsl j) - 1) and half = 1 lsl (j - 1) in
    cmp := if rem <> half then compare rem half else compare lo 0
  end

let fallback buf x = Buffer.add_string buf (Printf.sprintf "%.17g" x)

let add buf x =
  let ax = Float.abs x in
  if ax < two53 && Float.is_integer x then begin
    if Float.sign_bit x then Buffer.add_char buf '-';
    add_int buf (int_of_float ax)
  end
  else if ax >= 1e-10 && ax < 1e17 then begin
    let bits = Int64.to_int (Int64.bits_of_float ax) in
    let m = bits land ((1 lsl 52) - 1) lor (1 lsl 52) in
    let e = ((bits lsr 52) land 0x7ff) - 1075 in
    (* log10 can land one decade off next to a power of ten; the exact
       digit count below corrects it. *)
    let p = int_of_float (Float.floor (Float.log10 ax)) in
    let s = ref (Int.max 0 (Int.min 26 (16 - p))) in
    let q = ref 0 and cmp = ref 0 in
    scaled ~m ~e ~s:!s q cmp;
    let exact = ref true in
    while !exact && (!q < pow10.(16) || !q >= pow10.(17)) do
      let s' = if !q < pow10.(16) then !s + 1 else !s - 1 in
      if s' < 0 || s' > 26 then exact := false
      else begin
        s := s';
        scaled ~m ~e ~s:s' q cmp
      end
    done;
    if not !exact then fallback buf x
    else begin
      let d = if !cmp > 0 || (!cmp = 0 && !q land 1 = 1) then !q + 1 else !q in
      if x < 0.0 then Buffer.add_char buf '-';
      if d = pow10.(17) then add_digits buf pow10.(16) (17 - !s)
      else add_digits buf d (16 - !s)
    end
  end
  else fallback buf x

let to_string x =
  let buf = Buffer.create 24 in
  add buf x;
  Buffer.contents buf

(* The reader: exactly [float_of_string] on a substring. See g17.mli.

   Fast path. A field matching -?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]{1,4})?
   with at most 18 significant digits has the value m * 10^e for an
   integer m < 10^18 < 2^60. For |e| <= 22, 10^|e| = 5^|e| * 2^|e| with
   5^|e| < 2^52, so [pow10f.(|e|)] is an exact double.
   - e = 0: [float_of_int m] is one rounding of an exact integer.
   - m < 2^53: [float m] is exact, and [float m *. 10^e] or
     [float m /. 10^-e] is one IEEE rounding of exact operands (Clinger,
     "How to read floating point numbers accurately", 1990).
   - m >= 2^53 and e < 0 (the seventeen-digit fractions of a trace):
     with p = 10^-e and x = m / p, RN(m) is within 2^-53 of m relative,
     less than one ulp of x, so q = RN(RN(m) / p) is within 1.5 ulp of
     x. The remainder r = m - q*p = p * (x - q) decides. With
     h = ulp(q) * p / 2 (exact: p times a power of two), RN(x) is q when
     |r| < h, and q's neighbour on r's side when h < |r| < 2.5h; 2.5h,
     not 3h, because the neighbour below may be a power of two, whose
     own spacing below is halved. r is computed with one rounding:
     q*p = hi + lo exactly by Dekker's two-product, which needs only
     round-to-nearest doubles without overflow or underflow (not
     [Float.fma], which OCaml documents as best effort where the
     hardware has none); RN(m) - hi is exact by Sterbenz (both lie
     within 2^-51 of m relative) and an integer, as is m - RN(m), so
     their sum is exact and only subtracting lo rounds. That moves r by
     2^-53 relative, so each comparison keeps a 2^-30 relative margin:
     a remainder inside a margin (near a halfway point) or beyond 2.5h,
     or a q that is a power of two (its spacing below is halved), falls
     back.
   Anything else — nan, inf, hex, '_', a leading '+' or '.', a trailing
   '.', whitespace, more digits, a larger exponent, m >= 2^53 with
   e > 0 — is [float_of_string] on the field's substring, so every
   accepted string, every value's bits and every [Failure] are its. *)

let pow10f =
  let a = Array.make 23 1.0 in
  for k = 1 to 22 do
    a.(k) <- a.(k - 1) *. 10.0
  done;
  a

(* Veltkamp's split of [pow10f.(k)] into two 26-bit halves, for
   Dekker's two-product. *)
let split x =
  let c = 134217729.0 *. x in
  let hi = c -. (c -. x) in
  (hi, x -. hi)

let pow10h = Array.map (fun x -> fst (split x)) pow10f
let pow10l = Array.map (fun x -> snd (split x)) pow10f
let margin = 0x1p-30

(* [m / 10^k] correctly rounded for 2^53 <= m < 2^60 and 1 <= k <= 22,
   or nan when the remainder cannot decide it. *)
let[@inline] quotient m k =
  let p = Array.unsafe_get pow10f k in
  let mf = float_of_int m in
  let q = mf /. p in
  let hi = q *. p in
  let c = 134217729.0 *. q in
  let qh = c -. (c -. q) in
  let ql = q -. qh in
  let ph = Array.unsafe_get pow10h k and pl = Array.unsafe_get pow10l k in
  let lo = (ql *. pl) -. (((hi -. (qh *. ph)) -. (ql *. ph)) -. (qh *. pl)) in
  let r = (mf -. hi +. float_of_int (m - int_of_float mf)) -. lo in
  let bits = Int64.bits_of_float q in
  let h = (Int64.float_of_bits (Int64.succ bits) -. q) *. p *. 0.5 in
  let ar = Float.abs r in
  if Int64.logand bits 0xF_FFFF_FFFF_FFFFL = 0L then nan
  else if ar < h *. (1.0 -. margin) then q
  else if ar > h *. (1.0 +. margin) && ar < h *. (2.5 -. margin) then
    Int64.float_of_bits (if r > 0.0 then Int64.succ bits else Int64.pred bits)
  else nan

let[@inline] is_digit c = c >= '0' && c <= '9'

let[@inline] of_substring s pos len =
  (* Bounds outside [s] scan nothing, so [String.sub] rejects them. *)
  let stop =
    if pos >= 0 && len >= 0 && pos <= String.length s - len then pos + len
    else pos
  in
  let neg = stop > pos && String.unsafe_get s pos = '-' in
  let i = ref (if neg then pos + 1 else pos) in
  (* m: the significant digits; nd: how many, from the first nonzero
     digit (past 18 the field falls back, so m stops growing); e: the
     decimal exponent of m's last digit. *)
  let m = ref 0 and nd = ref 0 and e = ref 0 in
  let start = !i in
  while !i < stop && is_digit (String.unsafe_get s !i) do
    let d = Char.code (String.unsafe_get s !i) - 48 in
    if !nd > 0 || d > 0 then begin
      if !nd < 18 then m := (!m * 10) + d;
      incr nd
    end;
    incr i
  done;
  let ok = ref (!i > start) in
  if !ok && !i < stop && String.unsafe_get s !i = '.' then begin
    incr i;
    let frac = !i in
    while !i < stop && is_digit (String.unsafe_get s !i) do
      let d = Char.code (String.unsafe_get s !i) - 48 in
      if !nd > 0 || d > 0 then begin
        if !nd < 18 then m := (!m * 10) + d;
        incr nd
      end;
      decr e;
      incr i
    done;
    ok := !i > frac
  end;
  if !ok && !i < stop
     && (String.unsafe_get s !i = 'e' || String.unsafe_get s !i = 'E')
  then begin
    incr i;
    let eneg = !i < stop && String.unsafe_get s !i = '-' in
    if eneg || (!i < stop && String.unsafe_get s !i = '+') then incr i;
    let digits = !i and x = ref 0 in
    while !i < stop && !i - digits <= 4 && is_digit (String.unsafe_get s !i) do
      x := (!x * 10) + Char.code (String.unsafe_get s !i) - 48;
      incr i
    done;
    ok := !i > digits && !i - digits <= 4;
    e := if eneg then !e - !x else !e + !x
  end;
  let v =
    if not (!ok && !i = stop && !nd <= 18) then nan
    else if !m = 0 then 0.0
    else if !e = 0 then float_of_int !m
    else if !e < -22 || !e > 22 then nan
    else if !m < 1 lsl 53 then
      if !e > 0 then float_of_int !m *. Array.unsafe_get pow10f !e
      else float_of_int !m /. Array.unsafe_get pow10f (- !e)
    else if !e > 0 then nan
    else quotient !m (- !e)
  in
  if Float.is_nan v then float_of_string (String.sub s pos len)
  else if neg then -.v
  else v
