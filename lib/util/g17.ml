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
