(* Tests for trace collection, segmentation, sampling, noise and IO. *)

let collect_reno () =
  let cfg =
    Abg_netsim.Config.make ~duration:10.0 ~bandwidth_mbps:10.0 ~rtt_ms:50.0 ()
  in
  Abg_trace.Trace.collect cfg ~name:"reno" (fun ~mss () ->
      Abg_cca.Reno.create ~mss ())

let trace = lazy (collect_reno ())

let test_collect_nonempty () =
  let t = Lazy.force trace in
  Alcotest.(check bool) "records" true (Abg_trace.Trace.length t > 1000);
  Alcotest.(check bool) "losses" true (Array.length t.Abg_trace.Trace.loss_times > 0)

let test_records_monotone_time () =
  let t = Lazy.force trace in
  let ok = ref true in
  Array.iteri
    (fun i r ->
      if i > 0 then begin
        let prev = t.Abg_trace.Trace.records.(i - 1) in
        if r.Abg_trace.Record.time < prev.Abg_trace.Record.time then ok := false
      end)
    t.Abg_trace.Trace.records;
  Alcotest.(check bool) "monotone" true !ok

let test_records_signal_sanity () =
  let t = Lazy.force trace in
  Array.iter
    (fun r ->
      Alcotest.(check bool) "min <= rtt" true
        (r.Abg_trace.Record.min_rtt <= r.Abg_trace.Record.rtt +. 1e-9);
      Alcotest.(check bool) "rtt <= max" true
        (r.Abg_trace.Record.rtt <= r.Abg_trace.Record.max_rtt +. 1e-9);
      Alcotest.(check bool) "rate positive" true (r.Abg_trace.Record.ack_rate > 0.0);
      Alcotest.(check bool) "tsl nonneg" true
        (r.Abg_trace.Record.time_since_loss >= 0.0))
    t.Abg_trace.Trace.records

let test_record_env_roundtrip () =
  let t = Lazy.force trace in
  let r = t.Abg_trace.Trace.records.(100) in
  let env = Abg_trace.Record.to_env r ~cwnd:9999.0 in
  Alcotest.(check (float 1e-9)) "cwnd override" 9999.0 env.Abg_dsl.Env.cwnd;
  Alcotest.(check (float 1e-9)) "rtt copied" r.Abg_trace.Record.rtt env.Abg_dsl.Env.rtt;
  (* load_env writes the same values in place. *)
  let scratch = Abg_dsl.Env.copy Abg_dsl.Env.example in
  Abg_trace.Record.load_env scratch r ~cwnd:9999.0;
  Alcotest.(check (float 1e-9)) "load_env rtt" env.Abg_dsl.Env.rtt scratch.Abg_dsl.Env.rtt;
  Alcotest.(check (float 1e-9)) "load_env rate" env.Abg_dsl.Env.ack_rate
    scratch.Abg_dsl.Env.ack_rate

(* -- Segmentation -- *)

let test_split_counts () =
  let t = Lazy.force trace in
  let segs = Abg_trace.Segmentation.split ~min_length:10 t in
  Alcotest.(check bool) "at least one segment" true (List.length segs >= 1);
  Alcotest.(check bool) "bounded by losses+1" true
    (List.length segs <= Array.length t.Abg_trace.Trace.loss_times + 1)

let test_split_min_length () =
  let t = Lazy.force trace in
  List.iter
    (fun seg ->
      Alcotest.(check bool) "length floor" true
        (Abg_trace.Segmentation.length seg >= 50))
    (Abg_trace.Segmentation.split ~min_length:50 t)

let test_split_skip_initial () =
  let t = Lazy.force trace in
  let all = Abg_trace.Segmentation.split ~min_length:10 t in
  let skipped = Abg_trace.Segmentation.split ~min_length:10 ~skip_initial:true t in
  Alcotest.(check bool) "one fewer (slow start dropped)" true
    (List.length skipped < List.length all
    || Array.length t.Abg_trace.Trace.loss_times = 0)

let test_split_respects_cuts () =
  let t = Lazy.force trace in
  let cuts = t.Abg_trace.Trace.loss_times in
  List.iter
    (fun seg ->
      let times = Abg_trace.Segmentation.times seg in
      let t0 = seg.Abg_trace.Segmentation.start_time in
      let t1 = t0 +. times.(Array.length times - 1) in
      (* No loss strictly inside the segment span. *)
      Array.iter
        (fun loss ->
          Alcotest.(check bool) "no loss inside" true
            (loss <= t0 +. 1e-9 || loss >= t1 -. 1e-9))
        cuts)
    (Abg_trace.Segmentation.split ~min_length:10 t)

let test_infer_loss_times () =
  let t = Lazy.force trace in
  let inferred = Abg_trace.Segmentation.infer_loss_times t in
  Alcotest.(check bool) "finds drops" true (Array.length inferred > 0)

let test_thin_preserves_acked_volume () =
  let t = Lazy.force trace in
  let seg = List.hd (Abg_trace.Segmentation.split ~min_length:100 t) in
  let sum records =
    Array.fold_left (fun acc r -> acc +. r.Abg_trace.Record.acked_bytes) 0.0 records
  in
  let thinned = Abg_trace.Segmentation.thin ~max_records:50 seg in
  Alcotest.(check bool) "record budget" true
    (Abg_trace.Segmentation.length thinned <= 50);
  Alcotest.(check (float 1.0)) "acked volume conserved"
    (sum seg.Abg_trace.Segmentation.records)
    (sum thinned.Abg_trace.Segmentation.records)

let test_thin_short_segment_untouched () =
  let t = Lazy.force trace in
  let seg = List.hd (Abg_trace.Segmentation.split ~min_length:30 t) in
  let thinned = Abg_trace.Segmentation.thin ~max_records:100000 seg in
  Alcotest.(check int) "unchanged" (Abg_trace.Segmentation.length seg)
    (Abg_trace.Segmentation.length thinned)

(* -- Sampling -- *)

let test_sampling_budget () =
  let t = Lazy.force trace in
  let segs = Abg_trace.Segmentation.split ~min_length:10 t in
  let rng = Abg_util.Rng.create 5 in
  let distance a b =
    Abg_distance.Metric.compute Abg_distance.Metric.Euclidean ~truth:a ~candidate:b
  in
  let chosen = Abg_trace.Sampling.select rng ~distance ~n:2 segs in
  Alcotest.(check bool) "within budget" true (List.length chosen <= 2);
  Alcotest.(check bool) "nonempty" true (chosen <> [])

let test_sampling_small_pool_passthrough () =
  let t = Lazy.force trace in
  let segs = Abg_trace.Segmentation.split ~min_length:10 t in
  let rng = Abg_util.Rng.create 5 in
  let distance _ _ = 0.0 in
  let chosen = Abg_trace.Sampling.select rng ~distance ~n:1000 segs in
  Alcotest.(check int) "pool returned whole" (List.length segs) (List.length chosen)

(* -- Noise -- *)

let test_noise_observation () =
  let t = Lazy.force trace in
  let rng = Abg_util.Rng.create 6 in
  let noisy = Abg_trace.Noise.observation_noise rng ~stddev:0.1 t in
  Alcotest.(check int) "same length" (Abg_trace.Trace.length t)
    (Abg_trace.Trace.length noisy);
  let changed = ref false in
  Array.iteri
    (fun i r ->
      let orig = t.Abg_trace.Trace.records.(i) in
      Alcotest.(check bool) "positive" true (r.Abg_trace.Record.in_flight >= 0.0);
      if r.Abg_trace.Record.in_flight <> orig.Abg_trace.Record.in_flight then
        changed := true)
    noisy.Abg_trace.Trace.records;
  Alcotest.(check bool) "noise applied" true !changed

let test_noise_subsample () =
  let t = Lazy.force trace in
  let rng = Abg_util.Rng.create 7 in
  let sub = Abg_trace.Noise.subsample rng ~keep:0.5 t in
  let frac =
    float_of_int (Abg_trace.Trace.length sub)
    /. float_of_int (Abg_trace.Trace.length t)
  in
  Alcotest.(check bool) "roughly half" true (frac > 0.4 && frac < 0.6)

let test_noise_time_jitter_monotone () =
  let t = Lazy.force trace in
  let rng = Abg_util.Rng.create 8 in
  let jittered = Abg_trace.Noise.time_jitter rng ~stddev:0.01 t in
  let ok = ref true in
  Array.iteri
    (fun i r ->
      if i > 0 then begin
        let prev = jittered.Abg_trace.Trace.records.(i - 1) in
        if r.Abg_trace.Record.time < prev.Abg_trace.Record.time then ok := false
      end)
    jittered.Abg_trace.Trace.records;
  Alcotest.(check bool) "still monotone" true !ok

let test_noise_spurious_losses () =
  let t = Lazy.force trace in
  let rng = Abg_util.Rng.create 9 in
  let spurious = Abg_trace.Noise.spurious_losses rng ~rate:0.01 t in
  Alcotest.(check bool) "more losses" true
    (Array.length spurious.Abg_trace.Trace.loss_times
    > Array.length t.Abg_trace.Trace.loss_times)

(* -- Collection: every call simulates -- *)

let reno_ctor ~mss () = Abg_cca.Reno.create ~mss ()

(* Collection keeps nothing: a second request for the same suite
   simulates again, into traces the caller owns, bit-identical to the
   first. *)
let test_collect_suites_are_fresh () =
  let first = Abg_trace.Trace.collect_suite ~duration:2.0 ~n:2 ~name:"reno" reno_ctor in
  let second = Abg_trace.Trace.collect_suite ~duration:2.0 ~n:2 ~name:"reno" reno_ctor in
  Alcotest.(check int) "same suite size" (List.length first)
    (List.length second);
  List.iter2
    (fun a b ->
      Alcotest.(check bool) "physically distinct" true (a != b);
      Alcotest.(check bool) "records bit-identical" true
        (a.Abg_trace.Trace.records = b.Abg_trace.Trace.records);
      Alcotest.(check bool) "losses bit-identical" true
        (a.Abg_trace.Trace.loss_times = b.Abg_trace.Trace.loss_times))
    first second

(* The same holds one trace at a time, on the sequential path. *)
let test_collect_calls_are_fresh () =
  let collect_grid () =
    Abg_netsim.Config.testbed_grid ~duration:2.0 ~n:2 ()
    |> List.map (fun cfg -> Abg_trace.Trace.collect cfg ~name:"reno" reno_ctor)
  in
  let a = collect_grid () in
  let b = collect_grid () in
  List.iter2
    (fun x y ->
      Alcotest.(check bool) "fresh traces" true (x != y);
      Alcotest.(check bool) "still deterministic" true
        (x.Abg_trace.Trace.records = y.Abg_trace.Trace.records))
    a b

let test_collect_parallel_matches_sequential () =
  (* Suite collection must be bit-identical to collecting each config
     of the same grid on its own. *)
  let parallel =
    Abg_trace.Trace.collect_suite ~duration:2.0 ~n:2 ~name:"reno" reno_ctor
  in
  let sequential =
    Abg_netsim.Config.testbed_grid ~duration:2.0 ~n:2 ()
    |> List.map (fun cfg -> Abg_trace.Trace.collect cfg ~name:"reno" reno_ctor)
  in
  Alcotest.(check int) "same suite size" (List.length sequential)
    (List.length parallel);
  List.iter2
    (fun a b ->
      Alcotest.(check int) "same length" (Abg_trace.Trace.length a)
        (Abg_trace.Trace.length b);
      Alcotest.(check bool) "records bit-identical" true
        (a.Abg_trace.Trace.records = b.Abg_trace.Trace.records);
      Alcotest.(check bool) "losses bit-identical" true
        (a.Abg_trace.Trace.loss_times = b.Abg_trace.Trace.loss_times))
    sequential parallel

(* -- IO -- *)

let test_io_roundtrip () =
  let t = Lazy.force trace in
  let path = Filename.temp_file "abagnale" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Abg_trace.Io.save path t;
      let t' = Abg_trace.Io.load path in
      Alcotest.(check string) "cca name" t.Abg_trace.Trace.cca_name
        t'.Abg_trace.Trace.cca_name;
      Alcotest.(check int) "record count" (Abg_trace.Trace.length t)
        (Abg_trace.Trace.length t');
      Alcotest.(check int) "loss count"
        (Array.length t.Abg_trace.Trace.loss_times)
        (Array.length t'.Abg_trace.Trace.loss_times);
      let r = t.Abg_trace.Trace.records.(42) in
      let r' = t'.Abg_trace.Trace.records.(42) in
      Alcotest.(check (float 1e-6)) "rtt preserved" r.Abg_trace.Record.rtt
        r'.Abg_trace.Record.rtt;
      Alcotest.(check (float 1e-3)) "cwnd preserved" r.Abg_trace.Record.cwnd
        r'.Abg_trace.Record.cwnd)

let test_io_record_line_roundtrip () =
  let t = Lazy.force trace in
  let r = t.Abg_trace.Trace.records.(7) in
  let r' = Abg_trace.Io.record_of_line (Abg_trace.Io.record_to_line r) in
  Alcotest.(check (float 1e-6)) "time" r.Abg_trace.Record.time r'.Abg_trace.Record.time;
  Alcotest.(check (float 1e-1)) "ack_rate" r.Abg_trace.Record.ack_rate
    r'.Abg_trace.Record.ack_rate

let test_io_malformed_rejected () =
  Alcotest.check_raises "malformed line"
    (Invalid_argument "Io.record_of_line: malformed line: not a record")
    (fun () -> ignore (Abg_trace.Io.record_of_line "not a record"))

let test_io_malformed_carries_lineno () =
  (* load/of_string report the 1-based source line of a bad record. *)
  let content =
    "# abagnale-trace v1\n# cca: reno\n# scenario: s\n# losses: \n\
     # columns: c\nbogus record\n"
  in
  Alcotest.check_raises "line number in error"
    (Invalid_argument "Io.record_of_line: line 6: malformed line: bogus record")
    (fun () -> ignore (Abg_trace.Io.of_string content))

let test_io_malformed_losses_carries_lineno () =
  (* A bad [# losses:] line is reported with its line, like a bad record,
     and errors surface in file order: an earlier bad record wins. *)
  let bad_losses = "# abagnale-trace v1\n# cca: reno\n# losses: abc\n" in
  let losses_error =
    Invalid_argument "Io.Stream: line 3: malformed losses: # losses: abc"
  in
  Alcotest.check_raises "of_string" losses_error (fun () ->
      ignore (Abg_trace.Io.of_string bad_losses));
  let path = Filename.temp_file "abagnale" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc bad_losses);
      Alcotest.check_raises "load" losses_error (fun () ->
          ignore (Abg_trace.Io.load path)));
  Alcotest.check_raises "first malformed line in file order"
    (Invalid_argument "Io.record_of_line: line 2: malformed line: bogus")
    (fun () ->
      ignore
        (Abg_trace.Io.of_string "# abagnale-trace v1\nbogus\n# losses: abc\n"))

let test_io_string_roundtrip () =
  let t = Lazy.force trace in
  let s = Abg_trace.Io.to_string t in
  let t' = Abg_trace.Io.of_string s in
  (* Byte-stable: serializing the parse reproduces the exact content
     (the batch store's determinism contract rides on this). *)
  Alcotest.(check string) "to_string/of_string byte-stable" s
    (Abg_trace.Io.to_string t')

let test_io_tolerates_crlf_and_blank_lines () =
  let t = Lazy.force trace in
  let clean = Abg_trace.Io.to_string t in
  (* Re-serialize with CRLF endings plus blank and whitespace-only lines
     sprinkled in, as Windows tooling or hand editing would leave them. *)
  let mangled =
    String.split_on_char '\n' clean
    |> List.concat_map (fun line -> [ line ^ "\r"; ""; "  \r" ])
    |> String.concat "\n"
  in
  let t' = Abg_trace.Io.of_string mangled in
  Alcotest.(check string) "mangled file parses identically" clean
    (Abg_trace.Io.to_string t');
  (* And through the file path too. *)
  let path = Filename.temp_file "abagnale" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc mangled;
      close_out oc;
      Alcotest.(check string) "load tolerates CRLF" clean
        (Abg_trace.Io.to_string (Abg_trace.Io.load path)))

(* -- Observed-window collection -- *)

(* A random fuzz scenario at 2 s with every gated impairment switched
   on: a bandwidth step, an on-off cross flow, outages, reordering and a
   RED queue, so every event lane and RNG stream is on the path. *)
let extended_cfg seed =
  let g = Abg_fuzz.Genome.random (Abg_util.Rng.create seed) in
  let update name f =
    let rec find i =
      if Abg_fuzz.Genome.genes.(i).Abg_fuzz.Genome.name = name then i
      else find (i + 1)
    in
    let i = find 0 in
    g.(i) <- f g.(i)
  in
  update "step_frac" (Float.min 0.9);
  update "cross_frac" (Float.max 0.1);
  update "cross_off_frac" (Float.max 0.1);
  update "outages_per_s" (Float.max 0.05);
  update "reorder_prob" (Float.max 0.01);
  update "red" (Float.max 0.5);
  Abg_fuzz.Genome.to_config ~duration:2.0 ~seed g

let bits values = Array.map Int64.bits_of_float values

(* Half the cases are impaired fuzz scenarios, whose flows see tens to
   hundreds of ACKs in 2 s; half are clean testbed links, whose flows see
   500-2,500, long enough to grow the window buffer. *)
let arb_observed_cfg =
  let grid =
    Array.of_list (Abg_netsim.Config.testbed_grid ~duration:2.0 ~n:25 ())
  in
  QCheck.make ~print:Abg_netsim.Config.describe
    QCheck.Gen.(
      oneof
        [
          map extended_cfg (int_bound 1_000_000);
          map (Array.get grid) (int_bound (Array.length grid - 1));
        ])

let prop_collect_observed_matches_collect =
  QCheck.Test.make ~name:"collect_observed = observed_series of collect"
    ~count:12 arb_observed_cfg (fun cfg ->
      List.for_all
        (fun name ->
          let ctor = Option.get (Abg_cca.Registry.find name) in
          let _, expected =
            Abg_trace.Trace.observed_series
              (Abg_trace.Trace.collect cfg ~name ctor)
          in
          bits (Abg_trace.Trace.collect_observed cfg ctor) = bits expected)
        [ "reno"; "cubic"; "bbr"; "vegas" ])

(* Round-trip every float a record can hold, including the
   non-finite values a degenerate trace produces (nan gradients,
   infinite rates): parse(print(r)) must re-print to the same bytes. *)
let gen_field =
  QCheck.Gen.oneof
    [
      QCheck.Gen.float;
      QCheck.Gen.oneofl
        [ nan; infinity; neg_infinity; 0.0; -0.0; 1e-308; 4e-324;
          1.7976931348623157e308; 0.1; 1.0 /. 3.0 ];
    ]

let arb_record =
  QCheck.make
    ~print:(fun r -> Abg_trace.Io.record_to_line r)
    QCheck.Gen.(
      array_size (return 13) gen_field >|= fun f ->
      {
        Abg_trace.Record.time = f.(0); cwnd = f.(1); in_flight = f.(2);
        acked_bytes = f.(3); rtt = f.(4); min_rtt = f.(5); max_rtt = f.(6);
        ack_rate = f.(7); rtt_gradient = f.(8); delay_gradient = f.(9);
        time_since_loss = f.(10); wmax = f.(11); mss = f.(12);
      })

let prop_io_record_line_roundtrip =
  QCheck.Test.make ~name:"record line round-trips nan/inf losslessly"
    ~count:500 arb_record (fun r ->
      let line = Abg_trace.Io.record_to_line r in
      Abg_trace.Io.record_to_line (Abg_trace.Io.record_of_line line) = line)

(* The record parser before the one-pass reader, kept as its oracle:
   split on tabs, then [float_of_string] per field. *)
let oracle_record_of_line ?lineno line =
  let where =
    match lineno with Some n -> Printf.sprintf "line %d: " n | None -> ""
  in
  let malformed () =
    invalid_arg
      (Printf.sprintf "Io.record_of_line: %smalformed line: %s" where line)
  in
  match List.map float_of_string (String.split_on_char '\t' line) with
  | exception Failure _ -> malformed ()
  | [ time; cwnd; in_flight; acked_bytes; rtt; min_rtt; max_rtt; ack_rate;
      rtt_gradient; delay_gradient; time_since_loss; wmax; mss ] ->
      {
        Abg_trace.Record.time; cwnd; in_flight; acked_bytes; rtt; min_rtt;
        max_rtt; ack_rate; rtt_gradient; delay_gradient; time_since_loss; wmax;
        mss;
      }
  | _ -> malformed ()

(* A parse's record as the bits of its 13 fields, or its error text. *)
let parse_outcome parse line =
  match parse line with
  | (r : Abg_trace.Record.t) ->
      Ok
        (List.map Int64.bits_of_float
           [ r.time; r.cwnd; r.in_flight; r.acked_bytes; r.rtt; r.min_rtt;
             r.max_rtt; r.ack_rate; r.rtt_gradient; r.delay_gradient;
             r.time_since_loss; r.wmax; r.mss ])
  | exception Invalid_argument m -> Error m

(* Each reader edge case as each field of an otherwise valid line, and
   lines of 12 and 14 fields, with and without a line number. *)
let test_io_record_of_line_matches_oracle () =
  let fields =
    Abg_trace.Io.record_to_line (Lazy.force trace).Abg_trace.Trace.records.(7)
    |> String.split_on_char '\t'
  in
  let with_field i e = List.mapi (fun j f -> if j = i then e else f) fields in
  let lines =
    List.concat_map
      (fun e -> List.init 13 (fun i -> with_field i e))
      Test_util.reader_edge_cases
    @ [ fields; List.tl fields; fields @ [ "1" ]; fields @ [ "" ]; [ "" ] ]
    |> List.map (String.concat "\t")
  in
  List.iter
    (fun line ->
      List.iter
        (fun lineno ->
          Alcotest.(check bool) (Printf.sprintf "%S" line) true
            (parse_outcome (Abg_trace.Io.record_of_line ?lineno) line
            = parse_outcome (oracle_record_of_line ?lineno) line))
        [ None; Some 6 ])
    lines

(* The trace writer before the exact %.17g writer: Printf per float,
   joined per record. Io.to_string must keep producing its bytes. *)
let reference_to_string (trace : Abg_trace.Trace.t) =
  let f = Printf.sprintf "%.17g" in
  let line (r : Abg_trace.Record.t) =
    String.concat "\t"
      (List.map f
         [ r.time; r.cwnd; r.in_flight; r.acked_bytes; r.rtt; r.min_rtt;
           r.max_rtt; r.ack_rate; r.rtt_gradient; r.delay_gradient;
           r.time_since_loss; r.wmax; r.mss ])
  in
  String.concat ""
    ([ Abg_trace.Io.header ^ "\n";
       Printf.sprintf "# cca: %s\n" trace.cca_name;
       Printf.sprintf "# scenario: %s\n" trace.scenario;
       Printf.sprintf "# losses: %s\n"
         (String.concat "," (Array.to_list (Array.map f trace.loss_times)));
       Printf.sprintf "# columns: %s\n"
         (String.concat "\t" Abg_trace.Io.columns) ]
    @ List.map (fun r -> line r ^ "\n") (Array.to_list trace.records))

let test_io_to_string_matches_printf () =
  let collected name =
    let cfg =
      Abg_netsim.Config.make ~duration:4.0 ~bandwidth_mbps:10.0 ~rtt_ms:30.0 ()
    in
    Abg_trace.Trace.collect cfg ~name
      (Option.get (Abg_cca.Registry.find name))
  in
  let special =
    let fields =
      [| nan; infinity; neg_infinity; -0.0; 0.0; 4.9e-324; 2.2250738585072009e-308;
         -1e-300; 1e300; 0.1; -1234567890123456.75; 9007199254740993.0; 1e17 |]
    in
    let n = Array.length fields in
    let records =
      Array.init n (fun i ->
          let f k = fields.((i + k) mod n) in
          { Abg_trace.Record.time = f 0; cwnd = f 1; in_flight = f 2;
            acked_bytes = f 3; rtt = f 4; min_rtt = f 5; max_rtt = f 6;
            ack_rate = f 7; rtt_gradient = f 8; delay_gradient = f 9;
            time_since_loss = f 10; wmax = f 11; mss = f 12 })
    in
    { (Lazy.force trace) with
      Abg_trace.Trace.records; loss_times = Array.sub fields 0 6 }
  in
  List.iter
    (fun (what, t) ->
      Alcotest.(check string) what (reference_to_string t)
        (Abg_trace.Io.to_string t))
    [ ("reno", collected "reno"); ("cubic", collected "cubic");
      ("bbr", collected "bbr"); ("nan, inf, -0, subnormal fields", special) ]

(* -- Noise identity properties -- *)

let test_noise_zero_stddev_is_identity () =
  let t = Lazy.force trace in
  let rng = Abg_util.Rng.create 11 in
  let noisy = Abg_trace.Noise.observation_noise rng ~stddev:0.0 t in
  Alcotest.(check string) "stddev 0 is bit-identical"
    (Abg_trace.Io.to_string t)
    (Abg_trace.Io.to_string noisy)

let test_noise_keep_all_is_identity () =
  let t = Lazy.force trace in
  let rng = Abg_util.Rng.create 12 in
  let sub = Abg_trace.Noise.subsample rng ~keep:1.0 t in
  Alcotest.(check string) "keep 1.0 is bit-identical"
    (Abg_trace.Io.to_string t)
    (Abg_trace.Io.to_string sub)

let suites =
  [
    ( "trace.collect",
      [
        Alcotest.test_case "nonempty" `Quick test_collect_nonempty;
        Alcotest.test_case "monotone time" `Quick test_records_monotone_time;
        Alcotest.test_case "signal sanity" `Quick test_records_signal_sanity;
        Alcotest.test_case "env roundtrip" `Quick test_record_env_roundtrip;
        Alcotest.test_case "two suites are fresh" `Quick
          test_collect_suites_are_fresh;
        Alcotest.test_case "calls are fresh" `Quick
          test_collect_calls_are_fresh;
        Alcotest.test_case "parallel = sequential" `Quick
          test_collect_parallel_matches_sequential;
      ] );
    ( "trace.segmentation",
      [
        Alcotest.test_case "split counts" `Quick test_split_counts;
        Alcotest.test_case "min length" `Quick test_split_min_length;
        Alcotest.test_case "skip initial" `Quick test_split_skip_initial;
        Alcotest.test_case "respects cuts" `Quick test_split_respects_cuts;
        Alcotest.test_case "infer losses" `Quick test_infer_loss_times;
        Alcotest.test_case "thin conserves acked" `Quick test_thin_preserves_acked_volume;
        Alcotest.test_case "thin no-op" `Quick test_thin_short_segment_untouched;
      ] );
    ( "trace.sampling",
      [
        Alcotest.test_case "budget" `Quick test_sampling_budget;
        Alcotest.test_case "small pool" `Quick test_sampling_small_pool_passthrough;
      ] );
    ( "trace.noise",
      [
        Alcotest.test_case "observation noise" `Quick test_noise_observation;
        Alcotest.test_case "zero stddev identity" `Quick
          test_noise_zero_stddev_is_identity;
        Alcotest.test_case "subsample" `Quick test_noise_subsample;
        Alcotest.test_case "keep-all identity" `Quick
          test_noise_keep_all_is_identity;
        Alcotest.test_case "time jitter monotone" `Quick test_noise_time_jitter_monotone;
        Alcotest.test_case "spurious losses" `Quick test_noise_spurious_losses;
      ] );
    ( "trace.observed",
      List.map
        (QCheck_alcotest.to_alcotest ~long:false)
        [ prop_collect_observed_matches_collect ] );
    ( "trace.io",
      [
        Alcotest.test_case "roundtrip" `Quick test_io_roundtrip;
        Alcotest.test_case "record line" `Quick test_io_record_line_roundtrip;
        Alcotest.test_case "record parser = split parser" `Quick
          test_io_record_of_line_matches_oracle;
        Alcotest.test_case "malformed" `Quick test_io_malformed_rejected;
        Alcotest.test_case "malformed lineno" `Quick
          test_io_malformed_carries_lineno;
        Alcotest.test_case "malformed losses lineno" `Quick
          test_io_malformed_losses_carries_lineno;
        Alcotest.test_case "string roundtrip" `Quick test_io_string_roundtrip;
        Alcotest.test_case "to_string = Printf writer" `Quick
          test_io_to_string_matches_printf;
        Alcotest.test_case "crlf + blank lines" `Quick
          test_io_tolerates_crlf_and_blank_lines;
      ]
      @ List.map
          (QCheck_alcotest.to_alcotest ~long:false)
          [ prop_io_record_line_roundtrip ] );
  ]
