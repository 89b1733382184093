(* Mister880 comparison (§1 "Key Results", §2.2): the decision-problem
   baseline accepts the ground-truth handler only on noiseless traces and
   rejects *everything* once measurement noise is present, while
   Abagnale's distance formulation keeps ranking the true handler first.

   Three measurements on Reno traces:
   1. acceptance of the true (fine-tuned) handler, noiseless vs noisy;
   2. what Mister880-style enumeration finds within a budget;
   3. Abagnale's distance-based ranking on the same noisy traces. *)

let clean_traces () =
  Abg_trace.Trace.collect_suite ~duration:15.0 ~ack_jitter:0.0 ~n:2
    ~name:"reno" (Option.get (Abg_cca.Registry.find "reno"))

let segments_of traces =
  let rng = Abg_util.Rng.create 7 in
  Abg_core.Synthesis.segments_of_traces rng ~metric:Abg_distance.Metric.Dtw
    ~budget:4 traces
  |> List.map (Abg_trace.Segmentation.thin ~max_records:300)

let run () =
  Runs.heading "Mister880 comparison: decision vs optimization under noise";
  (* The handler that actually generated these traces: our Reno adds one
     full reno-inc per ACK (the paper's testbed matched 0.7x; constants
     absorb the testbed). Using the generating handler gives the decision
     procedure its best possible shot. *)
  let truth_handler =
    Abg_dsl.Expr.(Add (Cwnd, Macro Abg_dsl.Macro.Reno_inc))
  in
  let traces = clean_traces () in
  List.iter
    (fun noise ->
      let rng = Abg_util.Rng.create 31337 in
      let noisy =
        if noise = 0.0 then traces
        else List.map (Abg_trace.Noise.observation_noise rng ~stddev:noise) traces
      in
      let segments = segments_of noisy in
      (* Mister880 considers a single trace; give it the single segment it
         matches best, its most favorable setting. *)
      let accepted =
        List.exists
          (fun seg -> Abg_core.Mister880.accepts ~tolerance:0.05 truth_handler seg)
          segments
      in
      let d_true = Abg_core.Replay.total_distance truth_handler segments in
      let d_identity = Abg_core.Replay.total_distance Abg_dsl.Expr.Cwnd segments in
      Printf.printf
        "noise %.2f | mister880 accepts true handler: %-5b | abagnale: \
         d(true)=%.1f vs d(identity)=%.1f -> true handler %s\n%!"
        noise accepted d_true d_identity
        (if d_true < d_identity then "still ranked first" else "LOST");
      if noise = 0.05 then begin
        let found, tried =
          Abg_core.Mister880.synthesize ~tolerance:0.05
            ~dsl:Abg_dsl.Catalog.reno ~budget:400 segments
        in
        match found with
        | Some h ->
            Printf.printf
              "          | mister880 enumeration accepted: %s (%d candidates)\n"
              (Abg_dsl.Pretty.num h) tried
        | None ->
            Printf.printf
              "          | mister880 enumeration: NOTHING accepted after %d \
               candidates (the paper's point)\n"
              tried
      end)
    [ 0.0; 0.02; 0.05 ];
  print_newline ()
