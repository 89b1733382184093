(** Deterministic pseudo-random number generation.

    All randomness in the pipeline flows through this module so that every
    experiment is reproducible from a seed. The generator is xoshiro256**
    (Blackman & Vigna), seeded through splitmix64 as its authors
    recommend.

    The four 64-bit state words live in one 32-byte [Bytes.t], read and
    written with the unboxed 64-bit byte primitives, so a draw keeps its
    [int64] arithmetic in registers and boxes nothing: four [mutable int64]
    record fields would box on every write. *)

type t = Bytes.t

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let splitmix64 state =
  let open Int64 in
  state := add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create seed =
  let state = ref (Int64.of_int seed) in
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    set64 t (8 * i) (splitmix64 state)
  done;
  t

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* Core xoshiro256** step: returns the next 64-bit output. Inlined into
   every draw so the result never leaves a register. *)
let[@inline] next64 t =
  let open Int64 in
  let s0 = get64 t 0 and s1 = get64 t 8 and s2 = get64 t 16 and s3 = get64 t 24 in
  let result = mul (rotl (mul s1 5L) 7) 9L in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  set64 t 8 (logxor s1 s2);
  set64 t 0 (logxor s0 s3);
  set64 t 16 (logxor s2 (shift_left s1 17));
  set64 t 24 (rotl s3 45);
  result

(** [float t] is uniform in [0, 1). Inlined, like {!normal}, so a draw
    reaches its caller unboxed. *)
let[@inline] float t =
  let bits = Int64.shift_right_logical (next64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

(** [uniform t lo hi] is uniform in [lo, hi). *)
let uniform t lo hi = lo +. ((hi -. lo) *. float t)

(** [int t n] is uniform in [0, n-1]. Requires [n > 0]. *)
let int t n =
  assert (n > 0);
  (* Keep 62 bits: OCaml's native int is 63-bit, so a 63-bit unsigned
     value would wrap negative through Int64.to_int. *)
  let bits = Int64.to_int (Int64.shift_right_logical (next64 t) 2) in
  bits mod n

(** [bool t] is a fair coin flip. *)
let bool t = Int64.logand (next64 t) 1L = 1L

(* [Stdlib.max 1e-12 u] typed at float: the polymorphic [max] would box
   the draw and compare through [caml_greaterequal]. *)
let[@inline] floor_draw u = if 1e-12 >= u then 1e-12 else u

(** [normal t ~mean ~stddev] samples a Gaussian via Box–Muller. *)
let[@inline] normal t ~mean ~stddev =
  let u1 = floor_draw (float t) in
  let u2 = float t in
  let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
  mean +. (stddev *. z)

(** [exponential t ~rate] samples Exp(rate). Requires [rate > 0]. *)
let exponential t ~rate =
  assert (rate > 0.0);
  let u = floor_draw (float t) in
  -.log u /. rate

(** [shuffle t a] permutes [a] in place (Fisher–Yates). *)
let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

(** [choice t a] is a uniformly random element of the non-empty array [a]. *)
let choice t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))

(** [split t] derives an independent generator; used to hand deterministic
    streams to parallel workers. *)
let split t =
  let seed = Int64.to_int (next64 t) land max_int in
  create seed
