(* Tests for the classifiers and their feature extraction. Classification
   runs real simulations, so these share one cached trace suite per CCA
   and keep the scenario count small. *)

let suite_for = Hashtbl.create 7

let traces name =
  match Hashtbl.find_opt suite_for name with
  | Some t -> t
  | None ->
      let ctor = Option.get (Abg_cca.Registry.find name) in
      (* Same probing grid as the classifier's references (a Gordon-style
         tool controls its own bottleneck), but different seeds and
         durations so the test never compares two identical runs. *)
      let cfgs =
        [ Abg_netsim.Config.make ~duration:18.0 ~seed:900 ~bandwidth_mbps:5.0
            ~rtt_ms:10.0 ~ack_jitter:0.001 ();
          Abg_netsim.Config.make ~duration:18.0 ~seed:901 ~bandwidth_mbps:10.0
            ~rtt_ms:25.0 ~ack_jitter:0.001 ();
          Abg_netsim.Config.make ~duration:18.0 ~seed:902 ~bandwidth_mbps:12.0
            ~rtt_ms:50.0 ~ack_jitter:0.001 ();
          Abg_netsim.Config.make ~duration:18.0 ~seed:903 ~bandwidth_mbps:15.0
            ~rtt_ms:75.0 ~ack_jitter:0.001 () ]
      in
      let t = List.map (fun cfg -> Abg_trace.Trace.collect cfg ~name ctor) cfgs in
      Hashtbl.replace suite_for name t;
      t

let test_features_sane () =
  let f = Abg_classifier.Features.extract (traces "reno") in
  Alcotest.(check bool) "decrease factor in (0,1]" true
    (f.Abg_classifier.Features.decrease_factor > 0.0
    && f.Abg_classifier.Features.decrease_factor <= 1.2);
  Alcotest.(check bool) "flatness in [0,1]" true
    (f.Abg_classifier.Features.flatness >= 0.0
    && f.Abg_classifier.Features.flatness <= 1.0);
  Alcotest.(check bool) "mean window positive" true
    (f.Abg_classifier.Features.mean_cwnd_mss > 0.0);
  Alcotest.(check bool) "to_string total" true
    (String.length (Abg_classifier.Features.to_string f) > 0)

let test_features_vector_finite () =
  List.iter
    (fun name ->
      let v = Abg_classifier.Features.to_vector (Abg_classifier.Features.extract (traces name)) in
      Array.iter
        (fun x -> Alcotest.(check bool) (name ^ " finite") true (Float.is_finite x))
        v)
    [ "reno"; "bbr"; "vegas" ]

let test_features_distinguish_families () =
  (* Vegas sits flat; Reno saws. The flatness feature must separate
     them. *)
  let f_reno = Abg_classifier.Features.extract (traces "reno") in
  let f_vegas = Abg_classifier.Features.extract (traces "vegas") in
  Alcotest.(check bool) "vegas flatter than reno" true
    (f_vegas.Abg_classifier.Features.flatness
    > f_reno.Abg_classifier.Features.flatness)

(* Regression for the merged decrease-factor sweep: on a synthetic trace
   with one loss per sawtooth period — landing both exactly on record
   timestamps and between them, plus losses outside the recorded span —
   the linear-time cursor scan must reproduce the old
   O(losses * records) rescan bit for bit. *)
let synthetic_many_loss_trace () =
  let cfg =
    Abg_netsim.Config.make ~duration:60.0 ~bandwidth_mbps:10.0 ~rtt_ms:50.0 ()
  in
  let mss = cfg.Abg_netsim.Config.mss in
  let dt = 0.01 in
  let n = 6000 in
  let records =
    Array.init n (fun i ->
        let time = float_of_int i *. dt in
        let phase = Float.rem time 0.5 in
        let in_flight = mss *. (10.0 +. (20.0 *. phase)) in
        {
          Abg_trace.Record.time;
          cwnd = in_flight;
          in_flight;
          acked_bytes = mss;
          rtt = 0.05 +. (0.01 *. phase);
          min_rtt = 0.05;
          max_rtt = 0.08;
          ack_rate = 1e6;
          rtt_gradient = 0.0;
          delay_gradient = 0.0;
          time_since_loss = phase;
          wmax = 30.0 *. mss;
          mss;
        })
  in
  let mid_losses =
    (* Even ones at exact record timestamps, odd ones between records. *)
    Array.init 110 (fun k ->
        (0.5 *. float_of_int (k + 1))
        +. if k mod 2 = 0 then 0.0 else 0.003)
  in
  let loss_times = Array.concat [ [| -1.0 |]; mid_losses; [| 70.0 |] ] in
  {
    Abg_trace.Trace.cca_name = "synthetic";
    scenario = "sawtooth";
    config = cfg;
    records;
    loss_times;
  }

(* The pre-optimization decrease scan, verbatim: full rescan per loss. *)
let reference_decrease_factor (tr : Abg_trace.Trace.t) =
  let records = tr.Abg_trace.Trace.records in
  let decreases = ref [] in
  Array.iter
    (fun loss_t ->
      let before = ref nan in
      let after = ref infinity in
      Array.iter
        (fun r ->
          let t = r.Abg_trace.Record.time in
          if t < loss_t then before := Abg_trace.Record.observed_cwnd r
          else if t <= loss_t +. 0.6 then
            after := Float.min !after (Abg_trace.Record.observed_cwnd r))
        records;
      if Float.is_finite !before && Float.is_finite !after && !before > 0.0
      then decreases := (!after /. !before) :: !decreases)
    tr.Abg_trace.Trace.loss_times;
  if !decreases = [] then 1.0
  else Abg_util.Stats.median (Array.of_list !decreases)

let test_features_decrease_regression () =
  let tr = synthetic_many_loss_trace () in
  let f = Abg_classifier.Features.extract [ tr ] in
  Alcotest.(check (float 0.0)) "decrease factor bit-identical"
    (reference_decrease_factor tr)
    f.Abg_classifier.Features.decrease_factor;
  let span =
    let n = Array.length tr.Abg_trace.Trace.records in
    tr.Abg_trace.Trace.records.(n - 1).Abg_trace.Record.time
    -. tr.Abg_trace.Trace.records.(0).Abg_trace.Record.time
  in
  Alcotest.(check (float 0.0)) "loss rate counts every loss"
    (float_of_int (Array.length tr.Abg_trace.Trace.loss_times) /. span)
    f.Abg_classifier.Features.loss_rate

let vector traces =
  Abg_classifier.Features.to_vector (Abg_classifier.Features.extract traces)

let test_gordon_rank_nonempty () =
  let ranked = Abg_classifier.Gordon.rank (vector (traces "reno")) in
  Alcotest.(check int) "all known CCAs ranked"
    (List.length Abg_classifier.Gordon.known_set)
    (List.length ranked);
  let ds = List.map snd ranked in
  Alcotest.(check bool) "sorted" true (List.sort compare ds = ds)

let test_gordon_self_identification () =
  (* On fresh traces of CCAs with distinctive signatures, the closest
     known CCA should be the right family (exact identity for reno/bbr). *)
  List.iter
    (fun (name, acceptable) ->
      match Abg_classifier.Gordon.rank (vector (traces name)) with
      | (best, _) :: _ ->
          Alcotest.(check bool)
            (Printf.sprintf "%s -> %s acceptable" name best)
            true (List.mem best acceptable)
      | [] -> Alcotest.fail "empty ranking")
    [ ("reno", [ "reno"; "yeah"; "westwood"; "veno"; "illinois" ]);
      ("bbr", [ "bbr" ]);
      ("vegas", [ "vegas"; "veno"; "illinois"; "cubic" ]) ]

let test_gordon_verdict_to_string () =
  Alcotest.(check string) "known" "reno"
    (Abg_classifier.Gordon.verdict_to_string (Abg_classifier.Gordon.Known "reno"));
  Alcotest.(check string) "unknown close" "Unknown (vegas)"
    (Abg_classifier.Gordon.verdict_to_string
       (Abg_classifier.Gordon.Unknown (Some "vegas")));
  Alcotest.(check string) "unknown" "Unknown"
    (Abg_classifier.Gordon.verdict_to_string (Abg_classifier.Gordon.Unknown None))

let test_ccanalyzer_ranks_all () =
  let result = Abg_classifier.Ccanalyzer.classify (traces "student4") in
  Alcotest.(check bool) "ranks many" true
    (List.length result.Abg_classifier.Ccanalyzer.closest >= 10);
  match Abg_classifier.Ccanalyzer.closest_two result with
  | Some (a, b) -> Alcotest.(check bool) "two distinct" true (a <> b)
  | None -> Alcotest.fail "expected two closest"

(* Classifies on two domains at once force the shared reference set
   together (these run before any other test builds it): both domains
   must get it, and the results must equal a sequential pass. *)
let on_two_domains f =
  let suites = Array.map traces [| "reno"; "bbr"; "vegas"; "student4" |] in
  let concurrent = Abg_parallel.Pool.map ~num_domains:2 f suites in
  (concurrent, Array.map f suites)

let test_gordon_concurrent () =
  let concurrent, sequential = on_two_domains Abg_classifier.Gordon.classify in
  Alcotest.(check (array string)) "verdicts"
    (Array.map Abg_classifier.Gordon.verdict_to_string sequential)
    (Array.map Abg_classifier.Gordon.verdict_to_string concurrent)

let same_closest what expected got =
  Alcotest.(check (list string)) (what ^ " order") (List.map fst expected)
    (List.map fst got);
  List.iter2
    (fun (name, a) (_, b) ->
      Alcotest.(check int64) (what ^ " " ^ name)
        (Int64.bits_of_float a) (Int64.bits_of_float b))
    expected got

let test_ccanalyzer_concurrent () =
  let concurrent, sequential =
    on_two_domains Abg_classifier.Ccanalyzer.classify
  in
  Array.iter2
    (fun (s : Abg_classifier.Ccanalyzer.result) c ->
      same_closest "concurrent" s.closest c.Abg_classifier.Ccanalyzer.closest)
    sequential concurrent

(* CCAnalyzer's distance before references were prepared once: every
   (query, reference) pair re-derived and resampled both series. *)
let reference_trace_distance a b =
  let _, va = Abg_trace.Trace.observed_series a in
  let _, vb = Abg_trace.Trace.observed_series b in
  if Array.length va = 0 || Array.length vb = 0 then infinity
  else
    Abg_distance.Metric.compute Abg_distance.Metric.Dtw ~truth:va ~candidate:vb

let reference_suite_distance queries references =
  let ds =
    List.concat_map
      (fun q -> List.map (fun r -> reference_trace_distance q r) references)
      queries
  in
  match ds with
  | [] -> infinity
  | _ -> List.fold_left ( +. ) 0.0 ds /. float_of_int (List.length ds)

(* Every known CCA's reference flows, collected with whole records, for
   the tests that rebuild a classifier's references the long way. *)
let reference_traces =
  lazy
    (Abg_classifier.Gordon.reference_suites Abg_classifier.Ccanalyzer.known
       Abg_trace.Trace.collect Fun.id)

let test_ccanalyzer_matches_per_pair_path () =
  let references = Lazy.force reference_traces in
  let empty =
    { (List.hd (traces "reno")) with Abg_trace.Trace.records = [||] }
  in
  List.iter
    (fun (what, suite) ->
      let expected =
        references
        |> List.map (fun (name, refs) ->
               (name, reference_suite_distance suite refs))
        |> List.sort (fun (_, a) (_, b) -> compare a b)
      in
      same_closest what expected
        (Abg_classifier.Ccanalyzer.classify suite).closest)
    [ ("reno", traces "reno"); ("vegas", traces "vegas");
      ("bbr + empty trace", traces "bbr" @ [ empty ]) ]

(* The full scan [Online.classify_array] replaced, kept as its oracle:
   every CCA scored on every reference window with the report threshold
   as cutoff and cap, then ranked by mean, ties by name. *)
let full_scan (online : Abg_classifier.Online.t) values =
  let open Abg_classifier in
  let q = Array.make Abg_distance.Series.default_length 0.0 in
  Abg_distance.Series.prepare_candidate_into values
    ~scale:(Online.window_scale values) q;
  Array.to_list online.Online.refs
  |> List.map (fun (name, prepared) ->
         let sum =
           Array.fold_left
             (fun acc p ->
               acc
               +. Float.min
                    (Abg_distance.Metric.compute_resampled
                       ~cutoff:Online.report_threshold p ~candidate:q)
                    Online.report_threshold)
             0.0 prepared
         in
         (name, sum /. float_of_int (Array.length prepared)))
  |> List.sort (fun (na, a) (nb, b) ->
         match compare (a : float) b with 0 -> String.compare na nb | c -> c)

(* The full scan's verdict and reported distance: its head's. *)
let full_scan_result online values =
  let open Abg_classifier in
  if Array.length values < Online.min_points then (Gordon.Unknown None, infinity)
  else
    match full_scan online values with
    | (best, d) :: _ when d <= Online.match_threshold -> (Gordon.Known best, d)
    | (best, d) :: _ when d < Online.report_threshold ->
        (Gordon.Unknown (Some best), d)
    | (_, d) :: _ -> (Gordon.Unknown None, d)
    | [] -> (Gordon.Unknown None, infinity)

let reference_window_count (online : Abg_classifier.Online.t) =
  Array.fold_left
    (fun acc (_, ps) -> acc + Array.length ps)
    0 online.Abg_classifier.Online.refs

let dtw_calls = Abg_obs.Obs.Counter.make "distance.dtw.calls"
let dtw_lb_pruned = Abg_obs.Obs.Counter.make "distance.dtw.lb_pruned"

(* [Online.classify_array] answers exactly what the full scan answers:
   the same verdict and the same distance bits. Every reference window
   of a scored window is either a DTW call or a bound prune. *)
let check_exact what online values =
  let open Abg_classifier in
  let want_verdict, want_distance = full_scan_result online values in
  let counted () =
    Abg_obs.Obs.Counter.value dtw_calls
    + Abg_obs.Obs.Counter.value dtw_lb_pruned
  in
  let before = counted () in
  let got = Online.classify_array online values in
  let windows = counted () - before in
  Alcotest.(check string) (what ^ ": verdict")
    (Gordon.verdict_to_string want_verdict)
    (Gordon.verdict_to_string got.Online.verdict);
  Alcotest.(check int64) (what ^ ": distance bits")
    (Int64.bits_of_float want_distance)
    (Int64.bits_of_float got.Online.distance);
  Alcotest.(check int) (what ^ ": calls + lb_pruned")
    (if Array.length values < Online.min_points then 0
     else reference_window_count online)
    windows

let online_at =
  let built = Hashtbl.create 2 in
  fun window ->
    match Hashtbl.find_opt built window with
    | Some o -> o
    | None ->
        let o = Abg_classifier.Online.create ~window () in
        Hashtbl.replace built window o;
        o

(* Observed windows of short flows, like the serve corpus's 3 s flows. *)
let short_flows =
  lazy
    (List.concat_map
       (fun name ->
         let ctor = Option.get (Abg_cca.Registry.find name) in
         List.map
           (fun cfg -> (name, Abg_trace.Trace.collect_observed cfg ctor))
           (Abg_netsim.Config.testbed_grid ~duration:3.0 ~n:2 ()))
       [ "reno"; "cubic"; "vegas" ])

(* Windows cut every 32 records from every short flow, at the serve
   default width and at half of it. *)
let test_online_exact_on_collected_windows () =
  List.iter
    (fun window ->
      let online = online_at window in
      List.iteri
        (fun f (name, v) ->
          let pos = ref 0 in
          while !pos + window <= Array.length v do
            check_exact
              (Printf.sprintf "%s flow %d window %d at %d" name f window !pos)
              online (Array.sub v !pos window);
            pos := !pos + 32
          done)
        (Lazy.force short_flows))
    [ 512; 256 ]

(* Windows no bound can be trusted on, and the degenerate ones. The
   query is resampled from 512 to 128 points: samples 0, 201, 257 and
   511 reach the prepared query, sample 256 falls between two of its
   points and reaches only the window's scale. *)
let test_online_exact_on_adversarial_windows () =
  let _, v = List.hd (Lazy.force short_flows) in
  let base = Array.sub v 64 512 in
  let with_ f =
    let a = Array.copy base in
    f a;
    a
  in
  let set i x a = a.(i) <- x in
  let min_points = Abg_classifier.Online.min_points in
  let cases =
    [
      ("nan first", with_ (set 0 Float.nan));
      ("nan middle", with_ (set 257 Float.nan));
      ("nan last", with_ (set 511 Float.nan));
      ("nan between samples", with_ (set 256 Float.nan));
      ("nan run", with_ (fun a -> Array.fill a 100 64 Float.nan));
      ("+inf", with_ (set 201 Float.infinity));
      ("-inf", with_ (set 201 Float.neg_infinity));
      ("1e300 spike", with_ (set 300 1e300));
      ("all zeros", Array.make 512 0.0);
      ("constant", Array.make 512 10.0);
      ("min_points", Array.sub base 0 min_points);
      ("min_points - 1", Array.sub base 0 (min_points - 1));
      ("unchanged", base);
    ]
  in
  List.iter
    (fun window ->
      List.iter
        (fun (what, values) ->
          check_exact
            (Printf.sprintf "%s, window %d" what window)
            (online_at window) values)
        cases)
    [ 512; 256 ]

(* Online simulates its references observed-only, and they are bit for
   bit the references cut from the observed series of fully collected
   traces: the full scan ranks every CCA identically over both, and the
   search answers identically. *)
let test_online_matches_collected_references () =
  let open Abg_classifier in
  let window = 256 in
  let online = online_at window in
  let from_records =
    Online.of_refs
      (Lazy.force reference_traces
      |> List.map (fun (name, traces) ->
             ( name,
               Array.of_list
                 (List.concat_map
                    (fun tr ->
                      Online.reference_windows ~window
                        (snd (Abg_trace.Trace.observed_series tr))
                      |> List.map (fun w ->
                             Abg_distance.Metric.prepare
                               Abg_distance.Metric.default ~truth:w))
                    traces) ))
      |> Array.of_list)
  in
  List.iter
    (fun name ->
      let _, v = Abg_trace.Trace.observed_series (List.hd (traces name)) in
      let query = Array.sub v (Array.length v - window) window in
      same_closest name (full_scan from_records query) (full_scan online query);
      let a = Online.classify_array from_records query
      and b = Online.classify_array online query in
      Alcotest.(check string) (name ^ " verdict")
        (Gordon.verdict_to_string a.Online.verdict)
        (Gordon.verdict_to_string b.Online.verdict);
      Alcotest.(check int64) (name ^ " distance bits")
        (Int64.bits_of_float a.Online.distance)
        (Int64.bits_of_float b.Online.distance))
    [ "reno"; "cubic"; "bbr" ]

let test_dsl_hint_families () =
  let open Abg_classifier in
  Alcotest.(check string) "reno family" "reno"
    (Dsl_hint.choose (Gordon.Known "westwood")).Abg_dsl.Catalog.name;
  Alcotest.(check string) "cubic family" "cubic"
    (Dsl_hint.choose (Gordon.Known "bic")).Abg_dsl.Catalog.name;
  Alcotest.(check string) "bbr family" "delay"
    (Dsl_hint.choose (Gordon.Known "bbr")).Abg_dsl.Catalog.name;
  Alcotest.(check string) "vegas family" "vegas"
    (Dsl_hint.choose (Gordon.Known "veno")).Abg_dsl.Catalog.name;
  Alcotest.(check string) "unknown-with-hint" "vegas"
    (Dsl_hint.choose (Gordon.Unknown (Some "nv"))).Abg_dsl.Catalog.name;
  Alcotest.(check string) "unknown fallback" "delay"
    (Dsl_hint.choose (Gordon.Unknown None)).Abg_dsl.Catalog.name

let suites =
  [
    ( "classifier.online",
      [
        Alcotest.test_case "same as collected refs" `Quick
          test_online_matches_collected_references;
        Alcotest.test_case "exact on collected windows" `Quick
          test_online_exact_on_collected_windows;
        Alcotest.test_case "exact on adversarial windows" `Quick
          test_online_exact_on_adversarial_windows;
      ] );
    ( "classifier.features",
      [
        Alcotest.test_case "sane ranges" `Quick test_features_sane;
        Alcotest.test_case "vector finite" `Quick test_features_vector_finite;
        Alcotest.test_case "distinguishes families" `Quick test_features_distinguish_families;
        Alcotest.test_case "decrease sweep regression" `Quick
          test_features_decrease_regression;
      ] );
    ( "classifier.gordon",
      [
        Alcotest.test_case "concurrent classify" `Quick test_gordon_concurrent;
        Alcotest.test_case "rank shape" `Quick test_gordon_rank_nonempty;
        Alcotest.test_case "self identification" `Slow test_gordon_self_identification;
        Alcotest.test_case "verdict strings" `Quick test_gordon_verdict_to_string;
      ] );
    ( "classifier.ccanalyzer",
      [
        Alcotest.test_case "concurrent classify" `Quick
          test_ccanalyzer_concurrent;
        Alcotest.test_case "ranks all" `Slow test_ccanalyzer_ranks_all;
        Alcotest.test_case "= per-pair path" `Quick
          test_ccanalyzer_matches_per_pair_path;
      ] );
    ( "classifier.dsl_hint",
      [ Alcotest.test_case "family mapping" `Quick test_dsl_hint_families ] );
  ]
