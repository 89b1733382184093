(* Ablations of the design choices DESIGN.md calls out, each isolating
   one ingredient of the search on the Reno workload:

   a. unit constraints  — how much of the sketch space does dimensional
      analysis prune? (enumerate with/without unit checking)
   b. bucketization     — refinement loop vs a flat enumerate-and-score
      sweep with the same total handler budget
   c. diversity sampling — diversity-selected segment subset vs the first
      N segments, measured by how the winning handler generalizes to the
      full segment set
   d. measurement noise — the echo-handler pathology: with jitterless
      signals the rate-echo handler beats the true one (the DESIGN.md
      "noise is load-bearing" note, quantified). *)

let reno_traces ~jitter =
  Abg_trace.Trace.collect_suite ~duration:15.0 ~ack_jitter:jitter ~n:3
    ~name:"reno" (Option.get (Abg_cca.Registry.find "reno"))

let ablate_units () =
  Printf.printf "\n-- a. unit constraints --\n";
  let count dsl =
    let enc = Abg_enum.Encode.create dsl in
    let n = ref 0 in
    while !n < 3000 && Abg_enum.Encode.next enc <> None do
      incr n
    done;
    !n
  in
  let with_units = count Abg_dsl.Catalog.reno in
  let without =
    count { Abg_dsl.Catalog.reno with Abg_dsl.Catalog.unit_check = false }
  in
  Printf.printf
    "viable sketches enumerated (cap 3000): %d with unit checking, %s \
     without\n%!"
    with_units
    (if without >= 3000 then ">= 3000" else string_of_int without)

let ablate_buckets () =
  Printf.printf "\n-- b. bucketization + prioritization --\n";
  let traces = reno_traces ~jitter:0.001 in
  let rng = Abg_util.Rng.create 11 in
  let segments =
    Abg_core.Synthesis.segments_of_traces rng ~metric:Abg_distance.Metric.Dtw
      ~budget:6 traces
    |> List.map (Abg_trace.Segmentation.thin ~max_records:300)
  in
  (* Refinement loop (bucketed). *)
  let config =
    { Runs.config with Abg_core.Refinement.initial_samples = 8;
      exhaustive_cap = 100 }
  in
  (match Abg_core.Refinement.run ~config ~dsl:Abg_dsl.Catalog.reno segments with
  | Some r ->
      Printf.printf
        "bucketed refinement: d=%.1f after scoring %d handlers -> %s\n%!"
        r.Abg_core.Refinement.distance
        r.Abg_core.Refinement.total_handlers_scored
        (Abg_dsl.Pretty.num r.Abg_core.Refinement.handler);
      (* Flat sweep with the same handler budget, no buckets, no
         prioritization: first-come sketches only. *)
      let budget = r.Abg_core.Refinement.total_handlers_scored in
      let enc = Abg_enum.Encode.create Abg_dsl.Catalog.reno in
      let rng = Abg_util.Rng.create 12 in
      let best = ref (Abg_dsl.Expr.Cwnd, infinity) in
      let scored = ref 0 in
      while !scored < budget do
        match Abg_enum.Encode.next enc with
        | None -> scored := budget
        | Some sk ->
            let s =
              Abg_core.Score.sketch rng ~dsl:Abg_dsl.Catalog.reno
                ~metric:Abg_distance.Metric.Dtw ~budget:24 ~segments sk
            in
            scored := !scored + s.Abg_core.Score.completions_scored;
            if s.Abg_core.Score.distance < snd !best then
              best := (s.Abg_core.Score.handler, s.Abg_core.Score.distance)
      done;
      let handler, d = !best in
      Printf.printf "flat sweep, same budget: d=%.1f -> %s\n%!" d
        (Abg_dsl.Pretty.num handler)
  | None -> print_endline "refinement returned nothing")

let ablate_diversity () =
  Printf.printf "\n-- c. diversity-driven segment selection --\n";
  let traces = reno_traces ~jitter:0.001 in
  let all_segments =
    Abg_trace.Segmentation.split_all ~min_length:30 ~skip_initial:true traces
    |> List.map (Abg_trace.Segmentation.thin ~max_records:300)
  in
  let rng = Abg_util.Rng.create 13 in
  let diverse =
    Abg_core.Synthesis.segments_of_traces rng ~metric:Abg_distance.Metric.Dtw
      ~budget:4 traces
    |> List.map (Abg_trace.Segmentation.thin ~max_records:300)
  in
  let first_n = List.filteri (fun i _ -> i < 4) all_segments in
  let config =
    { Runs.config with Abg_core.Refinement.initial_samples = 8;
      exhaustive_cap = 100 }
  in
  List.iter
    (fun (label, segments) ->
      match Abg_core.Refinement.run ~config ~dsl:Abg_dsl.Catalog.reno segments with
      | Some r ->
          (* Generalization: score the winner on ALL segments. *)
          let general =
            Abg_core.Replay.total_distance r.Abg_core.Refinement.handler
              all_segments
          in
          Printf.printf "%-18s -> %-40s  d(all segments)=%.1f\n%!" label
            (Abg_dsl.Pretty.num r.Abg_core.Refinement.handler)
            general
      | None -> Printf.printf "%-18s -> nothing\n%!" label)
    [ ("diversity-selected", diverse); ("first-N segments", first_n) ]

let ablate_noise () =
  Printf.printf "\n-- d. measurement noise vs echo handlers --\n";
  let open Abg_dsl.Expr in
  let echo = Mul (Signal Abg_dsl.Signal.Ack_rate, Signal Abg_dsl.Signal.Rtt) in
  let true_handler = Option.get (Abg_core.Fine_tuned.find_fine_tuned "reno") in
  List.iter
    (fun jitter ->
      let traces = reno_traces ~jitter in
      let rng = Abg_util.Rng.create 14 in
      let segments =
        Abg_core.Synthesis.segments_of_traces rng
          ~metric:Abg_distance.Metric.Dtw ~budget:6 traces
        |> List.map (Abg_trace.Segmentation.thin ~max_records:300)
      in
      let d_echo = Abg_core.Replay.total_distance echo segments in
      let d_true = Abg_core.Replay.total_distance true_handler segments in
      Printf.printf
        "ack jitter %.3fs: d(echo rate*rtt)=%.1f vs d(true reno)=%.1f -> %s\n%!"
        jitter d_echo d_true
        (if d_true < d_echo then "structure wins" else "ECHO wins"))
    [ 0.0; 0.001 ]

let run () =
  Runs.heading "Ablations: unit pruning, buckets, diversity, noise";
  ablate_units ();
  ablate_buckets ();
  ablate_diversity ();
  ablate_noise ();
  print_newline ()
