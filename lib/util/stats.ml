(** Descriptive statistics.

    The classifier features (slope constancy, convexity, pulse counting) and
    the evaluation harness both need robust summary statistics; everything
    here is numerically careful (Welford updates, sorted-copy quantiles). *)

type accumulator = { mutable n : int; mutable mean : float; mutable m2 : float }

(* Welford's online update: numerically stable single-pass variance. *)
let add acc x =
  acc.n <- acc.n + 1;
  let delta = x -. acc.mean in
  acc.mean <- acc.mean +. (delta /. float_of_int acc.n);
  acc.m2 <- acc.m2 +. (delta *. (x -. acc.mean))

let mean_of acc = if acc.n = 0 then nan else acc.mean

let variance_of acc =
  if acc.n < 2 then 0.0 else acc.m2 /. float_of_int (acc.n - 1)

let of_array xs =
  let acc = { n = 0; mean = 0.0; m2 = 0.0 } in
  Array.iter (add acc) xs;
  acc

(** [mean xs] of a non-empty array. *)
let mean xs = mean_of (of_array xs)

let variance xs = variance_of (of_array xs)
let stddev xs = sqrt (variance xs)

(* In-place quickselect (Hoare partition, median-of-3 pivot): after
   [select a k], [a.(k)] holds the k-th order statistic and everything
   right of it is >= it. Order statistics are the same values however
   they are obtained, so this is bit-identical to sorting — but O(n)
   where the sort this replaced was the feature extractor's single
   biggest cost. Comparisons use [Float.compare]'s total order, so nan
   placement matches the former sort exactly. *)
let select a k =
  let lo = ref 0 and hi = ref (Array.length a - 1) in
  let seed = ref (Array.length a lor 0x2545F491) in
  while !lo < !hi do
    (* Pseudo-random pivot (deterministic xorshift — pivot choice affects
       only speed, never which value each rank holds), swapped into
       a.(lo): with the pivot as the leftmost element, Hoare's partition
       is the textbook version whose scans provably stay in bounds.
       Structured pivots (first/middle/median-of-3) go quadratic on the
       oscillating RTT series this routine mostly sees. *)
    seed := !seed lxor (!seed lsl 13);
    seed := !seed lxor (!seed lsr 7);
    seed := !seed lxor (!seed lsl 17);
    let mi = !lo + (!seed land max_int) mod (!hi - !lo + 1) in
    if mi <> !lo then begin
      let t = a.(!lo) in
      a.(!lo) <- a.(mi);
      a.(mi) <- t
    end;
    let pivot = a.(!lo) in
    (* Raw float comparisons, one instruction each: [quantile] routes
       nan-containing inputs to the sort-based path, so within [select]
       the data is a total order and the CLRS bounds argument holds. *)
    let i = ref (!lo - 1) and j = ref (!hi + 1) in
    let part = ref (-1) in
    while !part < 0 do
      decr j;
      while a.(!j) > pivot do
        decr j
      done;
      incr i;
      while a.(!i) < pivot do
        incr i
      done;
      if !i < !j then begin
        let t = a.(!i) in
        a.(!i) <- a.(!j);
        a.(!j) <- t
      end
      else part := !j
    done;
    if k <= !part then hi := !part else lo := !part + 1
  done

(* [quantile_scratch a q] destroys [a] (partially reorders it in place). *)
let quantile_scratch a q =
  let n = Array.length a in
  assert (n > 0);
  if n = 1 then a.(0)
  else begin
    let has_nan = ref false in
    for i = 0 to n - 1 do
      if a.(i) <> a.(i) then has_nan := true
    done;
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor pos) in
    let hi = Stdlib.min (lo + 1) (n - 1) in
    let vlo, vhi =
      if !has_nan then begin
        (* nan breaks the raw-comparison total order [select] relies on;
           fall back to the sort these order statistics came from
           historically ([Float.compare] puts nan below every float). *)
        Array.sort Float.compare a;
        (a.(lo), a.(hi))
      end
      else begin
        select a lo;
        let vlo = a.(lo) in
        let vhi =
          if hi = lo then vlo
          else begin
            (* Everything right of [lo] is >= the lo-th statistic, so
               the (lo+1)-th is that suffix's minimum. *)
            let m = ref a.(lo + 1) in
            for i = lo + 2 to n - 1 do
              if a.(i) < !m then m := a.(i)
            done;
            !m
          end
        in
        (vlo, vhi)
      end
    in
    let frac = pos -. float_of_int lo in
    vlo +. (frac *. (vhi -. vlo))
  end

(** [quantile xs q] is the linear-interpolation quantile, [q] in [0, 1]. *)
let quantile xs q = quantile_scratch (Array.copy xs) q

let median xs = quantile xs 0.5

(** [median_fn f ~len] is the median of [f 0 .. f (len-1)] without the
    caller materializing an intermediate array (one scratch allocation
    instead of map + copy). *)
let median_fn f ~len = quantile_scratch (Array.init len f) 0.5

(** [linear_regression xs ys] is [(slope, intercept)] of the least-squares
    line through the points. Requires equal non-zero lengths. *)
let linear_regression xs ys =
  let n = Array.length xs in
  assert (n = Array.length ys && n > 0);
  let mx = mean xs and my = mean ys in
  let num = ref 0.0 and den = ref 0.0 in
  for i = 0 to n - 1 do
    num := !num +. ((xs.(i) -. mx) *. (ys.(i) -. my));
    den := !den +. ((xs.(i) -. mx) *. (xs.(i) -. mx))
  done;
  let slope = if !den = 0.0 then 0.0 else !num /. !den in
  (slope, my -. (slope *. mx))

(** [linear_regression_fn fx fy ~lo ~len] is {!linear_regression} over the
    points [(fx i, fy i)] for [i] in [lo .. lo+len-1], without
    materializing sub-arrays. Same accumulation order as the array
    version, so results are bit-identical to regressing over copies. *)
let linear_regression_fn fx fy ~lo ~len =
  assert (len > 0);
  (* Welford means, matching [mean] over a copied sub-array. *)
  let mx = ref 0.0 and my = ref 0.0 in
  for i = 0 to len - 1 do
    let k = float_of_int (i + 1) in
    mx := !mx +. ((fx (lo + i) -. !mx) /. k);
    my := !my +. ((fy (lo + i) -. !my) /. k)
  done;
  let mx = !mx and my = !my in
  let num = ref 0.0 and den = ref 0.0 in
  for i = lo to lo + len - 1 do
    let dx = fx i -. mx in
    num := !num +. (dx *. (fy i -. my));
    den := !den +. (dx *. dx)
  done;
  let slope = if !den = 0.0 then 0.0 else !num /. !den in
  (slope, my -. (slope *. mx))

(** [pearson xs ys] is the Pearson correlation coefficient, or 0 when either
    series is constant. *)
let pearson xs ys =
  let n = Array.length xs in
  assert (n = Array.length ys && n > 1);
  let mx = mean xs and my = mean ys in
  let sxy = ref 0.0 and sxx = ref 0.0 and syy = ref 0.0 in
  for i = 0 to n - 1 do
    let dx = xs.(i) -. mx and dy = ys.(i) -. my in
    sxy := !sxy +. (dx *. dy);
    sxx := !sxx +. (dx *. dx);
    syy := !syy +. (dy *. dy)
  done;
  if !sxx = 0.0 || !syy = 0.0 then 0.0 else !sxy /. sqrt (!sxx *. !syy)
