(* Tests for Abg_util: PRNG, statistics, units, resampling, float
   helpers. *)

open Abg_util

let check_float = Alcotest.(check (float 1e-9))
let check_close msg a b = Alcotest.(check (float 1e-6)) msg a b

(* -- Rng -- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check_float "same stream" (Rng.float a) (Rng.float b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let xs = List.init 10 (fun _ -> Rng.float a) in
  let ys = List.init 10 (fun _ -> Rng.float b) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_rng_float_range () =
  let rng = Rng.create 7 in
  for _ = 1 to 10_000 do
    let x = Rng.float rng in
    Alcotest.(check bool) "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_rng_int_range () =
  let rng = Rng.create 8 in
  for _ = 1 to 10_000 do
    let x = Rng.int rng 17 in
    Alcotest.(check bool) "in [0,17)" true (x >= 0 && x < 17)
  done

let test_rng_int_covers () =
  let rng = Rng.create 9 in
  let seen = Array.make 5 false in
  for _ = 1 to 1000 do
    seen.(Rng.int rng 5) <- true
  done;
  Array.iter (fun s -> Alcotest.(check bool) "value reached" true s) seen

let test_rng_uniform () =
  let rng = Rng.create 10 in
  for _ = 1 to 1000 do
    let x = Rng.uniform rng 3.0 5.0 in
    Alcotest.(check bool) "in [3,5)" true (x >= 3.0 && x < 5.0)
  done

let test_rng_normal_moments () =
  let rng = Rng.create 11 in
  let n = 20_000 in
  let xs = Array.init n (fun _ -> Rng.normal rng ~mean:2.0 ~stddev:0.5) in
  let mean = Stats.mean xs in
  let std = Stats.stddev xs in
  Alcotest.(check bool) "mean ~ 2" true (Float.abs (mean -. 2.0) < 0.02);
  Alcotest.(check bool) "std ~ 0.5" true (Float.abs (std -. 0.5) < 0.02)

let test_rng_exponential_positive () =
  let rng = Rng.create 12 in
  for _ = 1 to 1000 do
    Alcotest.(check bool) "positive" true (Rng.exponential rng ~rate:2.0 >= 0.0)
  done

let test_rng_shuffle_permutation () =
  let rng = Rng.create 13 in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "same elements" (Array.init 50 (fun i -> i)) sorted

(* Known answers: the stream itself is pinned, not just its
   reproducibility, since every seeded trace, fuzz run and synthesis
   depends on it. Each generator draws 8 floats, then 8 [int 1000], then
   8 standard normals; the values are the xoshiro256** stream as
   recorded with [%h]. *)
let test_rng_known_answers () =
  let draws rng =
    let floats = List.init 8 (fun _ -> Printf.sprintf "%h" (Rng.float rng)) in
    let ints = List.init 8 (fun _ -> string_of_int (Rng.int rng 1000)) in
    let normals =
      List.init 8 (fun _ ->
          Printf.sprintf "%h" (Rng.normal rng ~mean:0.0 ~stddev:1.0))
    in
    (floats, ints, normals)
  in
  let check name rng (floats, ints, normals) =
    let f, i, n = draws rng in
    Alcotest.(check (list string)) (name ^ " floats") floats f;
    Alcotest.(check (list string)) (name ^ " ints") ints i;
    Alcotest.(check (list string)) (name ^ " normals") normals n
  in
  check "create 42" (Rng.create 42)
    ( [ "0x1.5780b2e0c2ecp-4"; "0x1.84136619b444ep-2"; "0x1.5c2ea66473c93p-1";
        "0x1.d9715a8e0766cp-1"; "0x1.fbcdb8ffc5d8bp-1"; "0x1.8a1b4a6202f2ap-1";
        "0x1.7042a90ab4cbbp-1"; "0x1.b3344e87d7ccp-1" ],
      [ "239"; "271"; "412"; "473"; "277"; "760"; "323"; "342" ],
      [ "0x1.2b6a2ad2dcb0dp-1"; "-0x1.be1fad84bc0e5p-3"; "0x1.e179f6e3ff10cp-1";
        "-0x1.084fb08d52121p+0"; "-0x1.84c29038df6f9p+0"; "0x1.51ca3250e1b2ap-2";
        "0x1.c8b6fda074199p-4"; "-0x1.e7700d93327e3p-1" ] );
  check "split child" (Rng.split (Rng.create 42))
    ( [ "0x1.1dc88ba28c638p-1"; "0x1.06fa1a13296f8p-4"; "0x1.ca69da2018912p-2";
        "0x1.23b0742f641ccp-1"; "0x1.c619efa217e38p-3"; "0x1.c679a3725c5c8p-1";
        "0x1.8b11405cee7dp-3"; "0x1.69f3e0a824517p-1" ],
      [ "532"; "559"; "901"; "550"; "256"; "177"; "631"; "880" ],
      [ "-0x1.695efca437011p-3"; "0x1.756bb8f258856p-1"; "-0x1.9d9e5acfa0c81p+0";
        "0x1.ae11ba9a56ecp+0"; "0x1.0b6a5c07df181p+0"; "-0x1.880ea06df2dd2p+0";
        "-0x1.b54ddd1ac84d3p-2"; "-0x1.052c4aec1d6a3p-1" ] )

let test_rng_split_independent () =
  let rng = Rng.create 15 in
  let child = Rng.split rng in
  let a = Rng.float rng and b = Rng.float child in
  Alcotest.(check bool) "different streams" true (a <> b)

(* Splitting is the fuzzer's per-individual stream derivation: two
   children of one parent must be disjoint streams, and each must be
   individually reproducible from the same parent seed. *)
let test_rng_split_streams () =
  let draw rng n = List.init n (fun _ -> Rng.float rng) in
  let children seed =
    let parent = Rng.create seed in
    let c1 = Rng.split parent in
    let c2 = Rng.split parent in
    (draw c1 64, draw c2 64)
  in
  let a1, a2 = children 1234 in
  let b1, b2 = children 1234 in
  Alcotest.(check (list (float 0.0))) "first child reproducible" a1 b1;
  Alcotest.(check (list (float 0.0))) "second child reproducible" a2 b2;
  Alcotest.(check bool) "sibling streams disjoint" true
    (List.for_all2 (fun x y -> x <> y) a1 a2);
  (* and neither shadows the parent's own continuation *)
  let parent = Rng.create 1234 in
  let _ = Rng.split parent and _ = Rng.split parent in
  Alcotest.(check bool) "parent stream unexhausted" true
    (List.for_all2 (fun x y -> x <> y) (draw parent 64) a1)

(* -- Stats -- *)

let test_stats_mean () = check_close "mean" 2.5 (Stats.mean [| 1.0; 2.0; 3.0; 4.0 |])

let test_stats_variance () =
  (* Sample variance of 1..5: sum of squared deviations 10, n-1 = 4. *)
  check_close "variance" 2.5 (Stats.variance [| 1.0; 2.0; 3.0; 4.0; 5.0 |])

let test_stats_welford_matches_batch () =
  (* The single-pass Welford mean and variance agree with the two-pass
     batch formulas. *)
  let xs = Array.init 100 (fun i -> float_of_int (i * i) /. 7.0) in
  let n = float_of_int (Array.length xs) in
  let mean = Array.fold_left ( +. ) 0.0 xs /. n in
  let variance =
    Array.fold_left (fun acc x -> acc +. ((x -. mean) *. (x -. mean))) 0.0 xs
    /. (n -. 1.0)
  in
  Alcotest.(check bool) "mean" true (Floatx.approx_equal mean (Stats.mean xs));
  Alcotest.(check bool) "variance" true
    (Floatx.approx_equal variance (Stats.variance xs))

let test_stats_median_odd () =
  check_close "median" 3.0 (Stats.median [| 5.0; 1.0; 3.0 |])

let test_stats_median_even () =
  check_close "median" 2.5 (Stats.median [| 4.0; 1.0; 2.0; 3.0 |])

let test_stats_quantile_bounds () =
  let xs = [| 3.0; 1.0; 4.0; 1.0; 5.0 |] in
  check_close "q0 = min" 1.0 (Stats.quantile xs 0.0);
  check_close "q1 = max" 5.0 (Stats.quantile xs 1.0)

let test_stats_regression () =
  let xs = [| 0.0; 1.0; 2.0; 3.0 |] in
  let ys = [| 1.0; 3.0; 5.0; 7.0 |] in
  let slope, intercept = Stats.linear_regression xs ys in
  check_close "slope" 2.0 slope;
  check_close "intercept" 1.0 intercept

let test_stats_pearson_perfect () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  check_close "corr +1" 1.0 (Stats.pearson xs (Array.map (fun x -> (2.0 *. x) +. 1.0) xs));
  check_close "corr -1" (-1.0) (Stats.pearson xs (Array.map (fun x -> -.x) xs))

let test_stats_pearson_constant () =
  check_close "constant series" 0.0
    (Stats.pearson [| 1.0; 1.0; 1.0 |] [| 1.0; 2.0; 3.0 |])

(* -- Units -- *)

let test_units_algebra () =
  let open Units in
  Alcotest.(check bool) "B * s^-1 = rate" true (equal (mul bytes { bytes = 0; seconds = -1 }) rate);
  Alcotest.(check bool) "rate * s = B" true (equal (mul rate seconds) bytes);
  Alcotest.(check bool) "B / B = 1" true (equal (div bytes bytes) dimensionless);
  Alcotest.(check bool) "pow" true (equal (pow seconds 3) { bytes = 0; seconds = 3 })

let test_units_cbrt () =
  let open Units in
  (match cbrt { bytes = 3; seconds = -3 } with
  | Some u -> Alcotest.(check bool) "cbrt ok" true (equal u { bytes = 1; seconds = -1 })
  | None -> Alcotest.fail "expected Some");
  Alcotest.(check bool) "cbrt of bytes fails (the Cubic limitation)" true
    (cbrt bytes = None)

let test_units_domain () =
  let d = Units.domain ~limit:2 in
  Alcotest.(check int) "5x5 domain" 25 (List.length d);
  Alcotest.(check int) "members distinct" 25
    (List.length (List.sort_uniq compare d));
  List.iter
    (fun (u : Units.t) ->
      Alcotest.(check bool) "exponents within limit" true
        (abs u.Units.bytes <= 2 && abs u.Units.seconds <= 2))
    d

let test_units_to_string () =
  Alcotest.(check string) "rate" "B*s^-1" (Units.to_string Units.rate);
  Alcotest.(check string) "dimensionless" "1" (Units.to_string Units.dimensionless)

(* -- Resample -- *)

let test_resample_linear_endpoints () =
  let times = [| 0.0; 1.0; 2.0 |] and values = [| 0.0; 10.0; 20.0 |] in
  let out = Resample.linear ~times ~values ~n:5 in
  check_close "first" 0.0 out.(0);
  check_close "last" 20.0 out.(4);
  check_close "middle" 10.0 out.(2)

let test_resample_hold () =
  let times = [| 0.0; 1.0 |] and values = [| 5.0; 9.0 |] in
  let out =
    Resample.hold_fn ~time:(Array.get times) ~value:(Array.get values) ~len:2
      ~n:4
  in
  check_close "held start" 5.0 out.(0);
  check_close "held mid" 5.0 out.(1);
  check_close "switch" 9.0 out.(3)

let test_resample_single_point () =
  let out = Resample.linear ~times:[| 1.0 |] ~values:[| 7.0 |] ~n:3 in
  Alcotest.(check (array (float 1e-9))) "constant" [| 7.0; 7.0; 7.0 |] out

(* -- Floatx -- *)

let test_floatx_approx () =
  Alcotest.(check bool) "close" true (Floatx.approx_equal 1.0 (1.0 +. 1e-12));
  Alcotest.(check bool) "far" false (Floatx.approx_equal 1.0 1.1)

let test_floatx_clamp () =
  check_close "below" 0.0 (Floatx.clamp ~lo:0.0 ~hi:1.0 (-5.0));
  check_close "above" 1.0 (Floatx.clamp ~lo:0.0 ~hi:1.0 5.0);
  check_close "inside" 0.5 (Floatx.clamp ~lo:0.0 ~hi:1.0 0.5)

let test_floatx_safe_div () =
  check_close "normal" 2.0 (Floatx.safe_div 4.0 2.0);
  check_close "by zero" 0.0 (Floatx.safe_div 4.0 0.0)

let test_floatx_cbrt () =
  check_close "positive" 2.0 (Floatx.cbrt 8.0);
  check_close "negative" (-2.0) (Floatx.cbrt (-8.0))

let test_floatx_fmod () =
  check_close "basic" 1.5 (Floatx.fmod 7.5 2.0);
  check_close "negative" 0.5 (Floatx.fmod (-1.5) 2.0);
  check_close "zero divisor" 0.0 (Floatx.fmod 5.0 0.0)

let test_floatx_log_grid () =
  let g = Floatx.log_grid ~lo:0.1 ~hi:10.0 ~n:3 in
  check_close "lo" 0.1 g.(0);
  check_close "mid" 1.0 g.(1);
  check_close "hi" 10.0 g.(2)

(* -- QCheck properties -- *)

let prop_rng_int_in_bounds =
  QCheck.Test.make ~name:"rng int stays in bounds" ~count:200
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, n) ->
      let rng = Rng.create seed in
      let x = Rng.int rng n in
      x >= 0 && x < n)

let prop_quantile_bounded =
  QCheck.Test.make ~name:"quantile within min..max" ~count:200
    QCheck.(pair (list_of_size (Gen.int_range 1 30) (float_bound_exclusive 100.0)) (float_bound_inclusive 1.0))
    (fun (xs, q) ->
      let a = Array.of_list xs in
      let v = Stats.quantile a q in
      let mn = Array.fold_left Float.min infinity a in
      let mx = Array.fold_left Float.max neg_infinity a in
      v >= mn -. 1e-9 && v <= mx +. 1e-9)

let prop_fmod_range =
  QCheck.Test.make ~name:"fmod lands in [0, |b|)" ~count:500
    QCheck.(pair (float_range (-100.) 100.) (float_range 0.001 50.0))
    (fun (a, b) ->
      let r = Floatx.fmod a b in
      r >= 0.0 && r < Float.abs b +. 1e-9)

(* -- Parallel pool -- *)

let test_pool_map_matches_sequential () =
  let xs = Array.init 100 (fun i -> i) in
  let f x = (x * x) + 1 in
  Alcotest.(check (array int)) "same results" (Array.map f xs)
    (Abg_parallel.Pool.map f xs)

let test_pool_map_forced_domains () =
  let xs = Array.init 37 (fun i -> i) in
  Alcotest.(check (array int)) "multi-domain" (Array.map succ xs)
    (Abg_parallel.Pool.map ~num_domains:4 succ xs)

(* Results land at their item's index whichever domain ran it. *)
let test_pool_indexed_items () =
  let xs = Array.mapi (fun i s -> (i, s)) [| "a"; "b"; "c"; "d"; "e" |] in
  let out =
    Abg_parallel.Pool.map ~num_domains:2 (fun (i, s) -> Printf.sprintf "%d%s" i s) xs
  in
  Alcotest.(check (array string)) "indexed" [| "0a"; "1b"; "2c"; "3d"; "4e" |] out

let test_pool_empty () =
  Alcotest.(check (array int)) "empty" [||] (Abg_parallel.Pool.map succ [||])

(* Under four items [map] takes its sequential path. *)
let test_pool_short_input () =
  Alcotest.(check (array int)) "short input" [| 2; 3; 4 |]
    (Abg_parallel.Pool.map ~num_domains:4 succ [| 1; 2; 3 |])

(* A default map spawns a helper for every CPU but the caller's, which
   is a participant itself. *)
let test_pool_default_workers () =
  let gauge = Abg_obs.Obs.Gauge.make "pool.workers" in
  Abg_obs.Obs.Gauge.set gauge 0.0;
  let n = 64 in
  ignore (Abg_parallel.Pool.map succ (Array.init n Fun.id));
  Alcotest.(check (float 0.0)) "pool.workers"
    (float_of_int (Stdlib.min (Domain.recommended_domain_count ()) n - 1))
    (Abg_obs.Obs.Gauge.value gauge)

let test_pool_exception_reraised () =
  let xs = Array.init 50 (fun i -> i) in
  Alcotest.check_raises "re-raises worker exception" Exit (fun () ->
      ignore
        (Abg_parallel.Pool.map ~num_domains:2
           (fun x -> if x = 17 then raise Exit else x)
           xs));
  (* A failed map leaves nothing behind: the next one runs. *)
  Alcotest.(check (array int)) "usable after failure" (Array.map succ xs)
    (Abg_parallel.Pool.map ~num_domains:2 succ xs)

(* Nothing the mapped function captured stays reachable once [map]
   returns: the helpers that held it are joined. The runtime can hold a
   joined domain's closure for a moment more while it tears the domain
   down, so the check gives that a second. *)
let test_pool_releases_finished_job () =
  let captured = Weak.create 1 in
  let run () =
    let table = Array.make 1000 1 in
    Weak.set captured 0 (Some table);
    ignore
      (Abg_parallel.Pool.map ~num_domains:2
         (fun x -> x + table.(x mod 1000))
         (Array.init 64 Fun.id))
  in
  (Sys.opaque_identity run) ();
  let deadline = Unix.gettimeofday () +. 1.0 in
  let rec freed () =
    Gc.full_major ();
    (not (Weak.check captured 0))
    || Unix.gettimeofday () < deadline
       && (Unix.sleepf 0.001;
           freed ())
  in
  Alcotest.(check bool) "captured array freed" true (freed ())

(* -- Once -- *)

let test_once_two_domains () =
  let builds = Atomic.make 0 and building = Atomic.make false in
  let once =
    Abg_parallel.Once.make (fun () ->
        Atomic.incr builds;
        Atomic.set building true;
        Unix.sleepf 0.05;
        ref 42)
  in
  let other = Domain.spawn (fun () -> Abg_parallel.Once.get once) in
  while not (Atomic.get building) do
    Domain.cpu_relax ()
  done;
  let mine = Abg_parallel.Once.get once in
  let theirs = Domain.join other in
  Alcotest.(check int) "built once" 1 (Atomic.get builds);
  Alcotest.(check bool) "same value" true (mine == theirs);
  Alcotest.(check int) "value" 42 !mine

let test_once_retries_failed_build () =
  let attempts = ref 0 in
  let once =
    Abg_parallel.Once.make (fun () ->
        incr attempts;
        if !attempts = 1 then failwith "first build fails";
        !attempts)
  in
  Alcotest.check_raises "failure reaches the caller"
    (Failure "first build fails") (fun () ->
      ignore (Abg_parallel.Once.get once));
  Alcotest.(check int) "next call builds" 2 (Abg_parallel.Once.get once);
  Alcotest.(check int) "then kept" 2 (Abg_parallel.Once.get once)

(* -- G17 -- *)

(* Float inputs where a %.17g writer can go wrong: every bit pattern
   (subnormals, nan payloads, ±inf, ±0), integers around ±2^53, powers
   of ten and their neighbours, values half-way between two 17-digit
   decimals, and magnitudes across the whole exact range. *)
let arb_g17_float =
  let open QCheck.Gen in
  let bits = map Int64.float_of_bits ui64 in
  let signed g = map2 (fun neg x -> if neg then -.x else x) bool g in
  let around_2_53 =
    map (fun k -> 9007199254740992.0 +. float_of_int k) (-2000 -- 2000)
  in
  let power_of_ten =
    map2
      (fun p steps ->
        let x = ref (float_of_string (Printf.sprintf "1e%d" p)) in
        let step = if steps < 0 then Float.pred else Float.succ in
        for _ = 1 to abs steps do
          x := step !x
        done;
        !x)
      (-12 -- 18) (-3 -- 3)
  in
  (* k + j / 2^(s+1) with j odd: at s fraction digits past the 17th
     significant digit this is an exact tie. *)
  let half_way =
    map3
      (fun s k j ->
        let den = Float.ldexp 1.0 (s + 1) in
        let lo = 10.0 ** float_of_int (16 - s) in
        let hi = Float.min (10.0 *. lo) (Float.ldexp 1.0 53 /. den) in
        Float.floor (lo +. (k *. (hi -. lo)))
        +. (float_of_int ((2 * j) + 1) /. den))
      (1 -- 12) (float_bound_exclusive 1.0) (0 -- 1000)
  in
  let any_magnitude =
    map2 (fun m e -> Float.ldexp (1.0 +. m) e) (float_bound_exclusive 1.0)
      (-40 -- 60)
  in
  QCheck.make ~print:(Printf.sprintf "%h")
    (frequency
       [
         (4, bits);
         (1, signed around_2_53);
         (1, signed power_of_ten);
         (1, signed half_way);
         (3, signed any_magnitude);
         ( 1,
           oneofl
             [ 0.0; -0.0; nan; -.nan; infinity; neg_infinity; 1234567890123456.25;
               1234567890123456.75; 4.9e-324; 1e17; 1e-10 ] );
       ])

let prop_g17_is_printf =
  QCheck.Test.make ~name:"G17 = Printf %.17g" ~count:200_000 arb_g17_float
    (fun x -> G17.to_string x = Printf.sprintf "%.17g" x)

let test_g17_examples () =
  List.iter
    (fun (x, expected) ->
      Alcotest.(check string) expected expected (G17.to_string x))
    [
      (0.0, "0"); (-0.0, "-0"); (3.0, "3"); (0.1, "0.10000000000000001");
      (1e16, "10000000000000000"); (1e17, "1e+17"); (1.5e-5, "1.5e-05");
      (2.5e-7, "2.4999999999999999e-07"); (0.00012345, "0.00012344999999999999");
      (123456.789, "123456.789"); (1234567890123456.25, "1234567890123456.2");
      (1234567890123456.75, "1234567890123456.8"); (-2.5, "-2.5"); (nan, "nan");
      (neg_infinity, "-inf");
    ]

(* [G17.of_substring] is [float_of_string] on the field: the same bits
   or the same [Failure]. The field sits between two digits, so a read
   past either bound changes the answer. *)
let reads_as_float_of_string field =
  let outcome f = match f () with
    | x -> Ok (Int64.bits_of_float x)
    | exception Failure m -> Error m
  in
  outcome (fun () -> float_of_string field)
  = outcome (fun () ->
        G17.of_substring ("7" ^ field ^ "5") 1 (String.length field))

let prop_g17_reads_written =
  QCheck.Test.make ~name:"reads G17 output as float_of_string"
    ~count:100_000 arb_g17_float (fun x ->
      reads_as_float_of_string (G17.to_string x))

(* Decimals of 1-20 digits, with or without a fraction and an exponent
   in -30..30: both sides of the 18-digit and |e| <= 22 limits. *)
let arb_decimal =
  let open QCheck.Gen in
  let digits n = string_size ~gen:(char_range '0' '9') (return n) in
  let decimal =
    let* sign = oneofl [ ""; "-" ] in
    let* n = 1 -- 20 in
    let* ds = digits n in
    let* point = 0 -- n in
    let* exp =
      frequency
        [ (1, return "");
          (2, map2 (fun e x -> Printf.sprintf "%s%d" e x)
                (oneofl [ "e"; "E"; "e+" ]) (-30 -- 30)) ]
    in
    let mantissa =
      if point = 0 || point = n then ds
      else String.sub ds 0 point ^ "." ^ String.sub ds point (n - point)
    in
    return (sign ^ mantissa ^ exp)
  in
  QCheck.make ~print:Fun.id decimal

let prop_g17_reads_decimals =
  QCheck.Test.make ~name:"reads decimals as float_of_string"
    ~count:100_000 arb_decimal reads_as_float_of_string

(* Exact integers and halfway points around 2^53 and 2^54, powers of
   ten at and past 10^22, 18 and 19 digits, a quotient that rounds onto
   a power of two from below, the smallest subnormal and normal, and
   fields outside the fast path's grammar. The record parser's tests
   use them as fields too. *)
let reader_edge_cases =
  [ "9007199254740993"; "9007199254740993.0"; "4503599627370496.5";
    "18014398509481987.0"; "0.1"; "1e22"; "1e23"; "1e-22";
    "123456789012345678"; "1234567890123456789"; "0.49999999999999996";
    "4.9406564584124654e-324"; "2.2250738585072011e-308"; "-0"; "nan"; "inf";
    "-inf"; "1_000"; "0x1p3"; "+1"; ".5"; "1."; "1e"; "1e+"; "--1"; " 1";
    "1e400"; "" ]

let test_g17_reads_edge_cases () =
  List.iter
    (fun s ->
      Alcotest.(check bool) (Printf.sprintf "%S" s) true
        (reads_as_float_of_string s))
    reader_edge_cases;
  List.iter
    (fun (pos, len) ->
      Alcotest.check_raises "bounds outside the string"
        (Invalid_argument "String.sub / Bytes.sub") (fun () ->
          ignore (G17.of_substring "-12" pos len)))
    [ (-1, 2); (2, 2); (0, -1); (4, 0) ]

(* -- Json -- *)

(* Structural equality, except that numbers compare by bit pattern so a
   lost sign on -0.0 counts as a round-trip failure. *)
let rec json_equal (a : Json.t) (b : Json.t) =
  match (a, b) with
  | Num x, Num y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | List xs, List ys -> List.equal json_equal xs ys
  | Obj xs, Obj ys ->
      List.equal (fun (k, v) (k', v') -> k = k' && json_equal v v') xs ys
  | _ -> a = b

(* Every byte 0x00-0xff in strings (random ones, plus one string holding
   all 256), integers up to 2^53, non-integer and subnormal floats,
   -0.0, and nested and empty containers. *)
let arb_json =
  let open QCheck.Gen in
  let str =
    frequency
      [ (9, string_size ~gen:char (0 -- 12)); (1, return (String.init 256 Char.chr)) ]
  in
  let num =
    frequency
      [
        (3, map float_of_int (int_range (-(1 lsl 53)) (1 lsl 53)));
        (3, map (fun f -> if Float.is_finite f then f else 0.5) float);
        (1, oneofl [ -0.0; 0.1; 4.9e-324; 1e17; -1.5e300 ]);
      ]
  in
  let json =
    sized
    @@ fix (fun self n ->
           let scalar =
             oneof
               [
                 return Json.Null;
                 map (fun b -> Json.Bool b) bool;
                 map (fun f -> Json.Num f) num;
                 map (fun s -> Json.Str s) str;
               ]
           in
           if n <= 0 then scalar
           else
             frequency
               [
                 (2, scalar);
                 (1, map (fun l -> Json.List l) (list_size (0 -- 4) (self (n / 3))));
                 ( 1,
                   map
                     (fun l -> Json.Obj l)
                     (list_size (0 -- 4) (pair str (self (n / 3)))) );
               ])
  in
  QCheck.make ~print:Json.to_string json

let prop_json_compact_roundtrip =
  QCheck.Test.make ~name:"json compact round-trip" ~count:300 arb_json
    (fun v -> json_equal (Json.parse (Json.to_string v)) v)

let prop_json_indented_roundtrip =
  QCheck.Test.make ~name:"json indented round-trip" ~count:300 arb_json
    (fun v -> json_equal (Json.parse (Json.to_string_indented v)) v)

let test_json_number_rule () =
  List.iter
    (fun (f, expected) ->
      Alcotest.(check string) expected expected (Json.to_string (Json.Num f)))
    [
      (3.0, "3"); (-0.0, "-0"); (0.1, "0.10000000000000001"); (1e17, "1e+17");
      (infinity, "\"inf\""); (neg_infinity, "\"-inf\""); (nan, "\"nan\"");
    ]

let test_json_layouts () =
  let v =
    Json.Obj
      [ ("a", Json.List [ Json.Num 1.0; Json.Str "x\n\001" ]); ("b", Json.Obj []) ]
  in
  Alcotest.(check string) "compact" {|{"a":[1,"x\n\u0001"],"b":{}}|} (Json.to_string v);
  Alcotest.(check string) "indented"
    "{\n  \"a\": [\n    1,\n    \"x\\n\\u0001\"\n  ],\n  \"b\": {}\n}"
    (Json.to_string_indented v)

let test_json_malformed () =
  List.iter
    (fun doc ->
      match Json.parse doc with
      | exception Json.Malformed _ -> ()
      | _ -> Alcotest.failf "accepted %S" doc)
    [ ""; "{"; "[1,]"; "\"open"; "tru"; "{\"k\" 1}"; "1 2" ]

let qcheck tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let pool_suite =
  ( "util.pool",
    [
      Alcotest.test_case "matches sequential" `Quick test_pool_map_matches_sequential;
      Alcotest.test_case "forced domains" `Quick test_pool_map_forced_domains;
      Alcotest.test_case "indexed items" `Quick test_pool_indexed_items;
      Alcotest.test_case "empty" `Quick test_pool_empty;
      Alcotest.test_case "short input" `Quick test_pool_short_input;
      Alcotest.test_case "default pool workers" `Quick test_pool_default_workers;
      Alcotest.test_case "exception re-raise" `Quick test_pool_exception_reraised;
      Alcotest.test_case "finished job released" `Quick
        test_pool_releases_finished_job;
      Alcotest.test_case "once across two domains" `Quick test_once_two_domains;
      Alcotest.test_case "once retries a failed build" `Quick
        test_once_retries_failed_build;
    ] )

let suites =
  [
    ( "util.rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
        Alcotest.test_case "float range" `Quick test_rng_float_range;
        Alcotest.test_case "int range" `Quick test_rng_int_range;
        Alcotest.test_case "int covers" `Quick test_rng_int_covers;
        Alcotest.test_case "uniform range" `Quick test_rng_uniform;
        Alcotest.test_case "normal moments" `Quick test_rng_normal_moments;
        Alcotest.test_case "exponential positive" `Quick test_rng_exponential_positive;
        Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutation;
        Alcotest.test_case "known answers" `Quick test_rng_known_answers;
        Alcotest.test_case "split independent" `Quick test_rng_split_independent;
        Alcotest.test_case "split streams" `Quick test_rng_split_streams;
      ]
      @ qcheck [ prop_rng_int_in_bounds ] );
    ( "util.stats",
      [
        Alcotest.test_case "mean" `Quick test_stats_mean;
        Alcotest.test_case "variance" `Quick test_stats_variance;
        Alcotest.test_case "welford = batch" `Quick test_stats_welford_matches_batch;
        Alcotest.test_case "median odd" `Quick test_stats_median_odd;
        Alcotest.test_case "median even" `Quick test_stats_median_even;
        Alcotest.test_case "quantile bounds" `Quick test_stats_quantile_bounds;
        Alcotest.test_case "linear regression" `Quick test_stats_regression;
        Alcotest.test_case "pearson perfect" `Quick test_stats_pearson_perfect;
        Alcotest.test_case "pearson constant" `Quick test_stats_pearson_constant;
      ]
      @ qcheck [ prop_quantile_bounded ] );
    ( "util.units",
      [
        Alcotest.test_case "algebra" `Quick test_units_algebra;
        Alcotest.test_case "cbrt" `Quick test_units_cbrt;
        Alcotest.test_case "domain" `Quick test_units_domain;
        Alcotest.test_case "to_string" `Quick test_units_to_string;
      ] );
    ( "util.resample",
      [
        Alcotest.test_case "linear endpoints" `Quick test_resample_linear_endpoints;
        Alcotest.test_case "hold semantics" `Quick test_resample_hold;
        Alcotest.test_case "single point" `Quick test_resample_single_point;
      ] );
    ( "util.floatx",
      [
        Alcotest.test_case "approx_equal" `Quick test_floatx_approx;
        Alcotest.test_case "clamp" `Quick test_floatx_clamp;
        Alcotest.test_case "safe_div" `Quick test_floatx_safe_div;
        Alcotest.test_case "cbrt" `Quick test_floatx_cbrt;
        Alcotest.test_case "fmod" `Quick test_floatx_fmod;
        Alcotest.test_case "log_grid" `Quick test_floatx_log_grid;
      ]
      @ qcheck [ prop_fmod_range ] );
    ( "util.g17",
      [ Alcotest.test_case "examples" `Quick test_g17_examples;
        Alcotest.test_case "reader edge cases" `Quick test_g17_reads_edge_cases ]
      @ qcheck
          [ prop_g17_is_printf; prop_g17_reads_written; prop_g17_reads_decimals ]
    );
    ( "util.json",
      [
        Alcotest.test_case "number rule" `Quick test_json_number_rule;
        Alcotest.test_case "layouts" `Quick test_json_layouts;
        Alcotest.test_case "malformed" `Quick test_json_malformed;
      ]
      @ qcheck [ prop_json_compact_roundtrip; prop_json_indented_roundtrip ] );
    pool_suite;
  ]
