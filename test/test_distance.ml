(* Tests for the distance metrics. *)

let check_close msg a b = Alcotest.(check (float 1e-6)) msg a b

let test_dtw_identical () =
  let a = [| 1.0; 2.0; 3.0; 4.0 |] in
  check_close "zero distance" 0.0 (Abg_distance.Dtw.distance a a)

let test_dtw_known_value () =
  (* Align [1,2] against [1,2,2]: the extra 2 matches for free. *)
  check_close "warped zero" 0.0
    (Abg_distance.Dtw.distance [| 1.0; 2.0 |] [| 1.0; 2.0; 2.0 |])

let test_dtw_shift_tolerance () =
  (* A one-step phase shift of a pulse: DTW forgives it, Euclidean pays
     full price — the Figure 3/4 rationale. *)
  let a = [| 0.0; 0.0; 5.0; 0.0; 0.0; 0.0 |] in
  let b = [| 0.0; 0.0; 0.0; 5.0; 0.0; 0.0 |] in
  let d_dtw = Abg_distance.Dtw.distance a b in
  let d_euc = Abg_distance.Pointwise.euclidean a b in
  Alcotest.(check bool) "dtw forgives shift" true (d_dtw < d_euc)

let test_dtw_band_matches_full_when_wide () =
  let a = Array.init 30 (fun i -> sin (float_of_int i /. 3.0)) in
  let b = Array.init 30 (fun i -> cos (float_of_int i /. 4.0)) in
  check_close "wide band = exact" (Abg_distance.Dtw.distance a b)
    (Abg_distance.Dtw.distance ~band:30 a b)

let test_dtw_empty () =
  Alcotest.(check bool) "empty = inf" true
    (Abg_distance.Dtw.distance [||] [| 1.0 |] = infinity)

let test_euclidean_known () =
  check_close "3-4-5" 5.0
    (Abg_distance.Pointwise.euclidean [| 0.0; 0.0 |] [| 3.0; 4.0 |])

let test_manhattan_known () =
  check_close "sum abs" 7.0
    (Abg_distance.Pointwise.manhattan [| 0.0; 0.0 |] [| 3.0; 4.0 |])

let test_frechet_identical () =
  let a = [| 1.0; 5.0; 2.0 |] in
  check_close "zero" 0.0 (Abg_distance.Frechet.distance a a)

let test_frechet_constant_offset () =
  let a = [| 1.0; 2.0; 3.0 |] in
  let b = Array.map (fun x -> x +. 2.0) a in
  check_close "offset = max gap" 2.0 (Abg_distance.Frechet.distance a b)

let test_series_prepare_normalizes () =
  let truth = [| 10.0; 10.0; 10.0; 10.0 |] in
  let cand = [| 20.0; 20.0; 20.0; 20.0 |] in
  let t', scale = Abg_distance.Series.prepare_truth ~length:4 truth in
  let c' = Abg_distance.Series.prepare_candidate ~length:4 ~scale cand in
  check_close "truth scaled to 1" 1.0 t'.(0);
  check_close "candidate scaled by truth mean" 2.0 c'.(0)

let test_series_prepare_resamples () =
  let truth = Array.init 100 float_of_int in
  let cand = Array.init 17 float_of_int in
  let t', scale = Abg_distance.Series.prepare_truth ~length:32 truth in
  let c' = Abg_distance.Series.prepare_candidate ~length:32 ~scale cand in
  Alcotest.(check int) "truth length" 32 (Array.length t');
  Alcotest.(check int) "candidate length" 32 (Array.length c')

let test_metric_dispatch () =
  List.iter
    (fun kind ->
      let name = Abg_distance.Metric.name kind in
      (match Abg_distance.Metric.of_name name with
      | Some k -> Alcotest.(check bool) "roundtrip" true (k = kind)
      | None -> Alcotest.fail "name lookup");
      let truth = Array.init 50 (fun i -> 100.0 +. float_of_int i) in
      let d_same = Abg_distance.Metric.compute kind ~truth ~candidate:truth in
      check_close (name ^ " self-distance") 0.0 d_same)
    Abg_distance.Metric.all

let test_metric_orders_candidates () =
  (* A close candidate must beat a far one under every metric. *)
  let truth = Array.init 64 (fun i -> 100.0 +. (2.0 *. float_of_int i)) in
  let near = Array.map (fun v -> v *. 1.05) truth in
  let far = Array.map (fun v -> v *. 3.0) truth in
  List.iter
    (fun kind ->
      let d_near = Abg_distance.Metric.compute kind ~truth ~candidate:near in
      let d_far = Abg_distance.Metric.compute kind ~truth ~candidate:far in
      Alcotest.(check bool)
        (Abg_distance.Metric.name kind ^ " orders correctly")
        true (d_near < d_far))
    Abg_distance.Metric.all

let arb_series =
  QCheck.(
    make
      ~print:(fun a -> String.concat ";" (List.map string_of_float (Array.to_list a)))
      Gen.(map Array.of_list (list_size (int_range 2 40) (float_range 0.0 100.0))))

let prop_dtw_nonnegative =
  QCheck.Test.make ~name:"dtw >= 0" ~count:200 (QCheck.pair arb_series arb_series)
    (fun (a, b) -> Abg_distance.Dtw.distance a b >= 0.0)

let prop_dtw_le_manhattan =
  (* On equal-length series the diagonal path costs exactly the Manhattan
     distance, so the optimal DTW alignment can never cost more. *)
  QCheck.Test.make ~name:"dtw <= manhattan (equal lengths)" ~count:200
    (QCheck.pair arb_series arb_series) (fun (a, b) ->
      let n = min (Array.length a) (Array.length b) in
      let a = Array.sub a 0 n and b = Array.sub b 0 n in
      Abg_distance.Dtw.distance a b
      <= Abg_distance.Pointwise.manhattan a b +. 1e-9)

let prop_frechet_le_max_gap =
  QCheck.Test.make ~name:"frechet <= max pointwise gap (equal lengths)"
    ~count:200 (QCheck.pair arb_series arb_series) (fun (a, b) ->
      let n = min (Array.length a) (Array.length b) in
      let a = Array.sub a 0 n and b = Array.sub b 0 n in
      let max_gap = ref 0.0 in
      Array.iteri (fun i x -> max_gap := Float.max !max_gap (Float.abs (x -. b.(i)))) a;
      Abg_distance.Frechet.distance a b <= !max_gap +. 1e-9)

let prop_band_lower_bounds_exact =
  QCheck.Test.make ~name:"banded dtw upper-bounds exact dtw" ~count:200
    (QCheck.pair arb_series arb_series) (fun (a, b) ->
      Abg_distance.Dtw.distance ~band:3 a b
      >= Abg_distance.Dtw.distance a b -. 1e-9)

(* -- Cutoff (early-abandon) semantics: exact at or below the cutoff,
   infinity only when provably worse. One property per metric. -- *)

let arb_pair_cutoff =
  QCheck.(
    triple arb_series arb_series
      (make QCheck.Gen.(float_range 0.0 2000.0)))

let cutoff_sound name dist =
  (* [dist ?cutoff a b]: at or below the cutoff the result is exact;
     above it, the only admissible answers are the exact value or
     infinity. *)
  QCheck.Test.make ~name ~count:300 arb_pair_cutoff (fun (a, b, cutoff) ->
      let full = dist ?cutoff:None a b in
      let cut = dist ?cutoff:(Some cutoff) a b in
      if full <= cutoff then cut = full else cut = full || cut = infinity)

let prop_dtw_cutoff_sound =
  cutoff_sound "dtw cutoff: exact below, inf-or-exact above"
    (fun ?cutoff a b -> Abg_distance.Dtw.distance ~band:3 ?cutoff a b)

let prop_euclidean_cutoff_sound =
  cutoff_sound "euclidean cutoff: exact below, inf-or-exact above"
    (fun ?cutoff a b ->
      let n = min (Array.length a) (Array.length b) in
      Abg_distance.Pointwise.euclidean ?cutoff (Array.sub a 0 n)
        (Array.sub b 0 n))

let prop_manhattan_cutoff_sound =
  cutoff_sound "manhattan cutoff: exact below, inf-or-exact above"
    (fun ?cutoff a b ->
      let n = min (Array.length a) (Array.length b) in
      Abg_distance.Pointwise.manhattan ?cutoff (Array.sub a 0 n)
        (Array.sub b 0 n))

let prop_frechet_cutoff_sound =
  cutoff_sound "frechet cutoff: exact below, inf-or-exact above"
    (fun ?cutoff a b -> Abg_distance.Frechet.distance ?cutoff a b)

let prop_frechet_banded_cutoff_sound =
  cutoff_sound "banded frechet cutoff: exact below, inf-or-exact above"
    (fun ?cutoff a b -> Abg_distance.Frechet.distance ~band:3 ?cutoff a b)

(* A Sakoe–Chiba band restricts the admissible couplings, so the banded
   discrete Fréchet distance can only over-estimate the exact one. *)
let prop_frechet_band_upper_bounds_exact =
  QCheck.Test.make ~name:"banded frechet upper-bounds exact frechet" ~count:200
    (QCheck.pair arb_series arb_series) (fun (a, b) ->
      Abg_distance.Frechet.distance ~band:3 a b
      >= Abg_distance.Frechet.distance a b -. 1e-9)

let test_frechet_band_matches_full_when_wide () =
  let a = Array.init 50 (fun i -> Float.sin (float_of_int i /. 5.0)) in
  let b = Array.init 37 (fun i -> Float.cos (float_of_int i /. 7.0)) in
  Alcotest.(check (float 0.0))
    "band >= max length is exact" (Abg_distance.Frechet.distance a b)
    (Abg_distance.Frechet.distance ~band:50 a b)

let test_frechet_cutoff_abandons () =
  let a = Array.init 64 (fun i -> float_of_int i) in
  let b = Array.init 64 (fun i -> float_of_int i +. 50.0) in
  let full = Abg_distance.Frechet.distance ~band:6 a b in
  Alcotest.(check bool) "abandons" true
    (Abg_distance.Frechet.distance ~band:6 ~cutoff:(full /. 10.0) a b = infinity)

let test_dtw_cutoff_abandons () =
  (* A cutoff far below the true distance must abandon. *)
  let a = Array.init 64 (fun i -> float_of_int i) in
  let b = Array.init 64 (fun i -> float_of_int i +. 50.0) in
  let full = Abg_distance.Dtw.distance ~band:6 a b in
  Alcotest.(check bool) "abandons" true
    (Abg_distance.Dtw.distance ~band:6 ~cutoff:(full /. 10.0) a b = infinity)

let test_metric_prepared_matches_compute () =
  (* Prepared truth must give exactly the one-shot compute result. *)
  let truth = Array.init 100 (fun i -> 100.0 +. (3.0 *. float_of_int i)) in
  let cand = Array.init 73 (fun i -> 90.0 +. (3.5 *. float_of_int i)) in
  List.iter
    (fun kind ->
      let p = Abg_distance.Metric.prepare kind ~truth in
      Alcotest.(check (float 0.0))
        (Abg_distance.Metric.name kind ^ " prepared = compute")
        (Abg_distance.Metric.compute kind ~truth ~candidate:cand)
        (Abg_distance.Metric.compute_prepared p ~candidate:cand))
    Abg_distance.Metric.all

let test_metric_cutoff_exact_below () =
  let truth = Array.init 100 (fun i -> 100.0 +. (3.0 *. float_of_int i)) in
  let cand = Array.map (fun v -> v *. 1.1) truth in
  List.iter
    (fun kind ->
      let full = Abg_distance.Metric.compute kind ~truth ~candidate:cand in
      Alcotest.(check (float 0.0))
        (Abg_distance.Metric.name kind ^ " exact below cutoff")
        full
        (Abg_distance.Metric.compute kind ~cutoff:(full +. 1.0) ~truth
           ~candidate:cand))
    Abg_distance.Metric.all

(* What Series' one array loop computes, spelled out with
   {!Abg_util.Resample.linear} over an index array: a copy at equal
   length, zeros for an empty input; candidates are then scaled in a
   second pass. *)
let reference_resample ~length xs =
  let n = Array.length xs in
  if n = length then Array.copy xs
  else if n = 0 then Array.make length 0.0
  else
    Abg_util.Resample.linear ~times:(Array.init n float_of_int) ~values:xs
      ~n:length

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* Target lengths (1 often, since one output point takes its own
   branch) with inputs of length 0, 1, equal to the target, below it and
   above it; values include the non-finite ones. *)
let arb_resample_case =
  let open QCheck.Gen in
  let value =
    frequency
      [ (8, float_range (-1e6) 1e6);
        (1, oneofl [ nan; infinity; neg_infinity; -0.0; 5e-324 ]) ]
  in
  let case =
    frequency [ (1, return 1); (9, int_range 2 160) ] >>= fun length ->
    let n =
      oneof
        [ return 0; return 1; return length; int_range 2 (max 2 (length - 1));
          int_range (length + 1) (3 * length) ]
    in
    map3
      (fun xs scale length -> (length, xs, scale))
      (n >>= fun n -> array_size (return n) value)
      (float_range 1e-3 10.0) (return length)
  in
  QCheck.make
    ~print:(fun (length, xs, scale) ->
      Printf.sprintf "length %d, scale %h, %d values" length scale
        (Array.length xs))
    case

let prop_series_resample_is_linear =
  QCheck.Test.make ~name:"Series resample = Resample.linear" ~count:500
    arb_resample_case (fun (length, xs, scale) ->
      let expected = reference_resample ~length xs in
      (* A reused buffer: every stale slot must be overwritten. *)
      let dst = Array.make length 42.0 in
      Abg_distance.Series.prepare_candidate_into xs ~scale dst;
      let scaled = Array.map (fun v -> v *. scale) expected in
      let truth, truth_scale = Abg_distance.Series.prepare_truth ~length xs in
      let mean =
        Array.fold_left ( +. ) 0.0 expected /. float_of_int length
      in
      let expected_scale = if mean > 1e-9 then 1.0 /. mean else 1.0 in
      same_bits expected (Abg_distance.Series.resample ~length xs)
      && Int64.equal
           (Int64.bits_of_float expected_scale)
           (Int64.bits_of_float truth_scale)
      && same_bits (Array.map (fun v -> v *. expected_scale) expected) truth
      && same_bits scaled
           (Abg_distance.Series.prepare_candidate ~length ~scale xs)
      && same_bits scaled dst)

let qcheck tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let suites =
  [
    ( "distance.dtw",
      [
        Alcotest.test_case "identical" `Quick test_dtw_identical;
        Alcotest.test_case "free repeat" `Quick test_dtw_known_value;
        Alcotest.test_case "shift tolerance" `Quick test_dtw_shift_tolerance;
        Alcotest.test_case "band wide = exact" `Quick test_dtw_band_matches_full_when_wide;
        Alcotest.test_case "empty" `Quick test_dtw_empty;
      ]
      @ qcheck
          [ prop_dtw_nonnegative; prop_dtw_le_manhattan;
            prop_band_lower_bounds_exact; prop_dtw_cutoff_sound ]
      @ [ Alcotest.test_case "cutoff abandons" `Quick test_dtw_cutoff_abandons ]
    );
    ( "distance.pointwise",
      [
        Alcotest.test_case "euclidean" `Quick test_euclidean_known;
        Alcotest.test_case "manhattan" `Quick test_manhattan_known;
      ]
      @ qcheck [ prop_euclidean_cutoff_sound; prop_manhattan_cutoff_sound ] );
    ( "distance.frechet",
      [
        Alcotest.test_case "identical" `Quick test_frechet_identical;
        Alcotest.test_case "offset" `Quick test_frechet_constant_offset;
        Alcotest.test_case "band wide = exact" `Quick
          test_frechet_band_matches_full_when_wide;
      ]
      @ qcheck
          [ prop_frechet_le_max_gap; prop_frechet_cutoff_sound;
            prop_frechet_banded_cutoff_sound;
            prop_frechet_band_upper_bounds_exact ]
      @ [
          Alcotest.test_case "cutoff abandons" `Quick
            test_frechet_cutoff_abandons;
        ] );
    ( "distance.metric",
      [
        Alcotest.test_case "prepare normalizes" `Quick test_series_prepare_normalizes;
        Alcotest.test_case "prepare resamples" `Quick test_series_prepare_resamples;
        Alcotest.test_case "dispatch" `Quick test_metric_dispatch;
        Alcotest.test_case "orders candidates" `Quick test_metric_orders_candidates;
        Alcotest.test_case "prepared = compute" `Quick test_metric_prepared_matches_compute;
        Alcotest.test_case "cutoff exact below" `Quick test_metric_cutoff_exact_below;
      ]
      @ qcheck [ prop_series_resample_is_linear ] );
  ]
