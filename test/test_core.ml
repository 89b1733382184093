(* Tests for the Abagnale core: replay, concretization, scoring, the
   refinement loop and the end-to-end pipeline. The full-pipeline test is
   the one expensive case and is marked `Slow. *)

open Abg_dsl.Expr

let mss = 1448.0

let segments =
  lazy
    (let cfg =
       Abg_netsim.Config.make ~duration:15.0 ~bandwidth_mbps:10.0 ~rtt_ms:50.0 ()
     in
     let trace =
       Abg_trace.Trace.collect cfg ~name:"reno" (fun ~mss () ->
           Abg_cca.Reno.create ~mss ())
     in
     Abg_trace.Segmentation.split ~min_length:50 ~skip_initial:true trace
     |> List.map (Abg_trace.Segmentation.thin ~max_records:300))

let first_segment () = List.hd (Lazy.force segments)

(* -- Replay -- *)

let test_replay_constant_handler () =
  let seg = first_segment () in
  let series = Abg_core.Replay.synthesize (Const (50.0 *. mss)) seg in
  Array.iter
    (fun v -> Alcotest.(check (float 1e-6)) "flat" (50.0 *. mss) v)
    series

let test_replay_seeded_from_truth () =
  let seg = first_segment () in
  let truth = Abg_trace.Segmentation.observed seg in
  let series = Abg_core.Replay.synthesize Cwnd seg in
  Alcotest.(check (float 1e-6)) "starts at truth" truth.(0) series.(0)

let test_replay_statefulness () =
  (* CWND + MSS must accumulate: last = first + (n-1) * MSS. *)
  let seg = first_segment () in
  let series = Abg_core.Replay.synthesize (Add (Cwnd, Signal Abg_dsl.Signal.Mss)) seg in
  let n = Array.length series in
  Alcotest.(check (float 1.0)) "accumulates"
    (series.(0) +. (float_of_int (n - 1) *. mss))
    series.(n - 1)

let test_replay_ceiling () =
  let seg = first_segment () in
  let explosive = Cube (Cube Cwnd) in
  let series = Abg_core.Replay.synthesize explosive seg in
  Array.iter
    (fun v -> Alcotest.(check bool) "bounded" true (v <= 1e12 && Float.is_finite v))
    series

let test_replay_distance_ordering () =
  let segs = Lazy.force segments in
  let tracking = Option.get (Abg_core.Fine_tuned.find_fine_tuned "reno") in
  let d_track = Abg_core.Replay.total_distance tracking segs in
  let d_flat = Abg_core.Replay.total_distance Cwnd segs in
  Alcotest.(check bool) "reno handler beats identity on reno traces" true
    (d_track < d_flat)

let test_replay_total_distance_sums () =
  let segs = Lazy.force segments in
  let h = Option.get (Abg_core.Fine_tuned.find_fine_tuned "reno") in
  let total = Abg_core.Replay.total_distance h segs in
  let sum = List.fold_left (fun acc s -> acc +. Abg_core.Replay.distance h s) 0.0 segs in
  Alcotest.(check (float 1e-6)) "sum" sum total

let test_replay_prepared_matches_plain () =
  (* The prepared fast path (compile once, cached envs, scratch buffer)
     must agree bit for bit with the one-shot entry points. *)
  let segs = Lazy.force segments in
  let h = Option.get (Abg_core.Fine_tuned.find_fine_tuned "reno") in
  let compiled = Abg_core.Replay.compile h in
  let seg = List.hd segs in
  let plain = Abg_core.Replay.synthesize h seg in
  let fast = Abg_core.Replay.synthesize_prepared (Abg_core.Replay.prepare seg) compiled in
  Alcotest.(check int) "series length" (Array.length plain) (Array.length fast);
  Array.iteri
    (fun i v ->
      Alcotest.(check bool) "series bit-identical" true (Float.equal v fast.(i)))
    plain;
  let prepared = List.map Abg_core.Replay.prepare segs in
  let total = Abg_core.Replay.total_distance h segs in
  let total_fast = Abg_core.Replay.total_distance_prepared prepared compiled in
  Alcotest.(check bool) "total bit-identical" true (Float.equal total total_fast)

let test_replay_total_distance_cutoff () =
  (* Cutoffs are an optimisation, never an approximation: above the true
     total the result is exact; below it the result is either [infinity]
     (abandoned) or still the exact total. *)
  let segs = Lazy.force segments in
  let h = Option.get (Abg_core.Fine_tuned.find_fine_tuned "reno") in
  let full = Abg_core.Replay.total_distance h segs in
  let above = Abg_core.Replay.total_distance ~cutoff:(2.0 *. full) h segs in
  Alcotest.(check bool) "exact below cutoff" true (Float.equal full above);
  let below = Abg_core.Replay.total_distance ~cutoff:(full /. 4.0) h segs in
  Alcotest.(check bool) "sound above cutoff" true
    (below = infinity || Float.equal below full)

(* -- Concretize -- *)

let test_plausible_rejects_identity () =
  Alcotest.(check bool) "identity rejected" false (Abg_core.Concretize.plausible Cwnd);
  Alcotest.(check bool) "1 * CWND rejected" false
    (Abg_core.Concretize.plausible (Mul (Const 1.0, Cwnd)));
  Alcotest.(check bool) "smuggled identity rejected" false
    (Abg_core.Concretize.plausible
       (Div (Signal Abg_dsl.Signal.Mss,
             Div (Signal Abg_dsl.Signal.Mss, Cwnd))))

let test_plausible_rejects_always_shrinking () =
  Alcotest.(check bool) "0.5 * CWND rejected" false
    (Abg_core.Concretize.plausible (Mul (Const 0.5, Cwnd)))

let test_plausible_accepts_growers_and_flats () =
  Alcotest.(check bool) "reno accepted" true
    (Abg_core.Concretize.plausible
       (Option.get (Abg_core.Fine_tuned.find_fine_tuned "reno")));
  Alcotest.(check bool) "student4 MSS accepted" true
    (Abg_core.Concretize.plausible (Signal Abg_dsl.Signal.Mss));
  Alcotest.(check bool) "constant target accepted" true
    (Abg_core.Concretize.plausible (Mul (Const 88.0, Signal Abg_dsl.Signal.Mss)))

let test_completions_budget () =
  let rng = Abg_util.Rng.create 1 in
  let sk = Add (Cwnd, Mul (Hole 0, Macro Abg_dsl.Macro.Reno_inc)) in
  let handlers =
    Abg_core.Concretize.completions rng sk
      ~pool:Abg_dsl.Catalog.default_constants ~budget:10
  in
  Alcotest.(check bool) "within budget" true (List.length handlers <= 10);
  List.iter
    (fun h -> Alcotest.(check (list int)) "no holes" [] (holes h))
    handlers

(* -- Score -- *)

let test_score_picks_best_constant () =
  let rng = Abg_util.Rng.create 2 in
  let segs = [ first_segment () ] in
  let sk = Add (Cwnd, Mul (Hole 0, Macro Abg_dsl.Macro.Reno_inc)) in
  let scored =
    Abg_core.Score.sketch rng ~dsl:Abg_dsl.Catalog.reno
      ~metric:Abg_distance.Metric.Dtw ~budget:24 ~segments:segs sk
  in
  Alcotest.(check bool) "finite distance" true (Float.is_finite scored.Abg_core.Score.distance);
  (* The chosen completion must not lose to an arbitrary pool value by a
     large margin. *)
  let fixed = fill sk (fun _ -> 8.0) in
  let d_fixed = Abg_core.Replay.total_distance fixed segs in
  Alcotest.(check bool) "best <= aggressive constant" true
    (scored.Abg_core.Score.distance <= d_fixed +. 1e-6)

let test_score_infeasible_sketch () =
  let rng = Abg_util.Rng.create 3 in
  let scored =
    Abg_core.Score.sketch rng ~dsl:Abg_dsl.Catalog.reno
      ~metric:Abg_distance.Metric.Dtw ~budget:8
      ~segments:[ first_segment () ]
      (Mul (Const 0.5, Cwnd))
  in
  Alcotest.(check bool) "implausible scores infinity" true
    (scored.Abg_core.Score.distance = infinity)

let test_score_cutoff_contract () =
  (* [sketch_prepared ~cutoff] may read [infinity] (or any value above
     the cutoff) for a sketch that cannot beat it, but must return the
     exact handler and distance of uncut scoring for every sketch at or
     below it — so an incumbent-threaded fold finds the same minimum. *)
  let dsl = Abg_dsl.Catalog.vegas in
  let enc = Abg_enum.Encode.create dsl in
  let rec pull n acc =
    if n = 0 then List.rev acc
    else
      match Abg_enum.Encode.next enc with
      | Some sk -> pull (n - 1) (sk :: acc)
      | None -> List.rev acc
  in
  let sketches = pull 60 [] in
  let prepared =
    List.filteri (fun i _ -> i < 2) (Lazy.force segments)
    |> List.map Abg_core.Replay.prepare
  in
  Alcotest.(check int) "two segments" 2 (List.length prepared);
  let score ~cutoff i sk =
    Abg_core.Score.sketch_prepared (Abg_util.Rng.create (100 + i)) ~dsl
      ~budget:24 ~cutoff ~prepared sk
  in
  let best (h, d) (s : Abg_core.Score.scored) =
    if s.distance < d then (s.handler, s.distance) else (h, d)
  in
  let incumbent = ref infinity and cut_rows = ref 0 in
  let uncut_best = ref (Cwnd, infinity) and cut_best = ref (Cwnd, infinity) in
  List.iteri
    (fun i sk ->
      let u = score ~cutoff:infinity i sk in
      let c = score ~cutoff:!incumbent i sk in
      Alcotest.(check int) "completions scored" u.completions_scored
        c.completions_scored;
      if u.distance <= !incumbent then begin
        Alcotest.(check bool) "same handler" true (u.handler = c.handler);
        Alcotest.(check bool) "same distance bits" true
          (Float.equal u.distance c.distance)
      end
      else begin
        incr cut_rows;
        Alcotest.(check bool) "cut distance above the cutoff" true
          (c.distance > !incumbent)
      end;
      if c.distance < !incumbent then incumbent := c.distance;
      uncut_best := best !uncut_best u;
      cut_best := best !cut_best c)
    sketches;
  Alcotest.(check int) "60 sketches" 60 (List.length sketches);
  Alcotest.(check bool) "some sketches lose to the incumbent" true
    (!cut_rows > 0);
  Alcotest.(check bool) "finite minimum" true
    (Float.is_finite (snd !uncut_best));
  Alcotest.(check bool) "same winner" true (fst !uncut_best = fst !cut_best);
  Alcotest.(check bool) "same minimum bits" true
    (Float.equal (snd !uncut_best) (snd !cut_best))

(* -- Fine_tuned -- *)

let test_fine_tuned_lookup () =
  Alcotest.(check int) "20 synthesized rows" 20
    (List.length Abg_core.Fine_tuned.synthesized);
  Alcotest.(check int) "13 fine-tuned rows" 13
    (List.length Abg_core.Fine_tuned.fine_tuned);
  Alcotest.(check bool) "missing returns None" true
    (Abg_core.Fine_tuned.find_fine_tuned "student1" = None)

let test_scale_constants () =
  let h = Add (Cwnd, Mul (Const 0.7, Macro Abg_dsl.Macro.Reno_inc)) in
  match Abg_core.Fine_tuned.scale_constants 2.0 h with
  | Add (Cwnd, Mul (Const c, Macro Abg_dsl.Macro.Reno_inc)) ->
      Alcotest.(check (float 1e-9)) "scaled" 1.4 c
  | _ -> Alcotest.fail "structure preserved"

let test_scale_constants_identity_at_one () =
  List.iter
    (fun (_, h) ->
      Alcotest.(check bool) "x1.0 is identity" true
        (equal_num h (Abg_core.Fine_tuned.scale_constants 1.0 h)))
    Abg_core.Fine_tuned.fine_tuned

(* -- Refinement + synthesis (end to end, scaled down) -- *)

let tiny_config =
  {
    Abg_core.Refinement.default_config with
    Abg_core.Refinement.initial_samples = 8;
    completion_budget = 16;
    max_segment_records = 250;
    exhaustive_cap = 100;
    max_iterations = 3;
  }

let test_refinement_end_to_end () =
  let segs = Lazy.force segments in
  match Abg_core.Refinement.run ~config:tiny_config ~dsl:Abg_dsl.Catalog.reno segs with
  | None -> Alcotest.fail "refinement returned nothing"
  | Some r ->
      Alcotest.(check bool) "found finite handler" true
        (Float.is_finite r.Abg_core.Refinement.distance);
      Alcotest.(check bool) "iterations recorded" true
        (List.length r.Abg_core.Refinement.iterations >= 1);
      Alcotest.(check int) "initial buckets" 128 r.Abg_core.Refinement.buckets_initial;
      (* The winner must beat the identity handler. *)
      let d_identity = Abg_core.Replay.total_distance Cwnd segs in
      Alcotest.(check bool) "beats identity" true
        (r.Abg_core.Refinement.distance < d_identity);
      (* The ranking instrumentation exposes the fine-tuned handler's
         bucket. *)
      let target = Option.get (Abg_core.Fine_tuned.find_fine_tuned "reno") in
      (match Abg_core.Refinement.bucket_rank_of r ~target ~iteration:1 with
      | Some (rank, total) ->
          Alcotest.(check bool) "rank within range" true (rank >= 1 && rank <= total)
      | None -> Alcotest.fail "target bucket must be ranked in iteration 1")

let test_synthesis_segments_fallback () =
  (* A lossless CCA (student5) yields no loss-bounded segments; synthesis
     must fall back to whole-trace segments. *)
  let cfg = Abg_netsim.Config.make ~duration:5.0 ~bandwidth_mbps:10.0 ~rtt_ms:50.0 () in
  let trace =
    Abg_trace.Trace.collect cfg ~name:"student5" (fun ~mss () ->
        Abg_cca.Student.student5 ~mss ())
  in
  let rng = Abg_util.Rng.create 4 in
  let segs =
    Abg_core.Synthesis.segments_of_traces rng ~metric:Abg_distance.Metric.Dtw
      ~budget:4 [ trace ]
  in
  Alcotest.(check bool) "fallback produces segments" true (segs <> [])

let test_synthesis_sorted_by_length () =
  let rng = Abg_util.Rng.create 4 in
  let cfg = Abg_netsim.Config.make ~duration:15.0 ~bandwidth_mbps:10.0 ~rtt_ms:25.0 () in
  let trace =
    Abg_trace.Trace.collect cfg ~name:"reno" (fun ~mss () ->
        Abg_cca.Reno.create ~mss ())
  in
  let segs =
    Abg_core.Synthesis.segments_of_traces rng ~metric:Abg_distance.Metric.Dtw
      ~budget:6 [ trace ]
  in
  let lengths = List.map Abg_trace.Segmentation.length segs in
  Alcotest.(check (list int)) "descending" (List.sort (fun a b -> compare b a) lengths) lengths

let test_synthesis_deterministic () =
  (* The hot-path machinery (compiled handlers, cutoffs, prepared truths,
     domain pool) must not change *which* handler wins or its score: the
     full default-config synthesis on the seeded reno suite pins the exact
     winner recorded before the overhaul. *)
  let traces =
    Abg_trace.Trace.collect_suite ~duration:20.0 ~n:4 ~name:"reno"
      (fun ~mss () -> Abg_cca.Reno.create ~mss ())
  in
  match
    Abg_core.Synthesis.run ~config:Abg_core.Refinement.default_config
      ~dsl:Abg_dsl.Catalog.reno ~name:"reno" traces
  with
  | None -> Alcotest.fail "synthesis returned nothing"
  | Some o ->
      Alcotest.(check string) "winning handler" "CWND + reno-inc"
        o.Abg_core.Synthesis.pretty;
      Alcotest.(check (float 1e-9)) "winning distance" 10.782077104571155
        o.Abg_core.Synthesis.distance

let test_abagnale_facade () =
  let cfg = Abg_netsim.Config.make ~duration:8.0 ~bandwidth_mbps:10.0 ~rtt_ms:50.0 () in
  let traces =
    [ Abg_trace.Trace.collect cfg ~name:"reno" (fun ~mss () ->
          Abg_cca.Reno.create ~mss ()) ]
  in
  let d =
    Abg_core.Abagnale.handler_distance
      ~handler:(Option.get (Abg_core.Fine_tuned.find_fine_tuned "reno"))
      traces
  in
  Alcotest.(check bool) "facade distance finite" true (Float.is_finite d)

let suites =
  [
    ( "core.replay",
      [
        Alcotest.test_case "constant handler" `Quick test_replay_constant_handler;
        Alcotest.test_case "seeded from truth" `Quick test_replay_seeded_from_truth;
        Alcotest.test_case "statefulness" `Quick test_replay_statefulness;
        Alcotest.test_case "ceiling" `Quick test_replay_ceiling;
        Alcotest.test_case "distance ordering" `Quick test_replay_distance_ordering;
        Alcotest.test_case "total = sum" `Quick test_replay_total_distance_sums;
        Alcotest.test_case "prepared = plain" `Quick test_replay_prepared_matches_plain;
        Alcotest.test_case "cutoff sound" `Quick test_replay_total_distance_cutoff;
      ] );
    ( "core.concretize",
      [
        Alcotest.test_case "rejects identity" `Quick test_plausible_rejects_identity;
        Alcotest.test_case "rejects shrinkers" `Quick test_plausible_rejects_always_shrinking;
        Alcotest.test_case "accepts growers/flats" `Quick test_plausible_accepts_growers_and_flats;
        Alcotest.test_case "budget" `Quick test_completions_budget;
      ] );
    ( "core.score",
      [
        Alcotest.test_case "best constant" `Quick test_score_picks_best_constant;
        Alcotest.test_case "infeasible sketch" `Quick test_score_infeasible_sketch;
        Alcotest.test_case "cutoff contract" `Quick test_score_cutoff_contract;
      ] );
    ( "core.fine_tuned",
      [
        Alcotest.test_case "lookups" `Quick test_fine_tuned_lookup;
        Alcotest.test_case "scale constants" `Quick test_scale_constants;
        Alcotest.test_case "scale identity" `Quick test_scale_constants_identity_at_one;
      ] );
    ( "core.pipeline",
      [
        Alcotest.test_case "refinement end-to-end" `Slow test_refinement_end_to_end;
        Alcotest.test_case "synthesis deterministic" `Slow test_synthesis_deterministic;
        Alcotest.test_case "segments fallback" `Quick test_synthesis_segments_fallback;
        Alcotest.test_case "segments sorted" `Quick test_synthesis_sorted_by_length;
        Alcotest.test_case "facade" `Quick test_abagnale_facade;
      ] );
  ]
