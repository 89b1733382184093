(* Tests for Abg_obs: sharded counter merge under pool load, JSON
   snapshot round-trip and key-ordering stability, disabled-mode no-op
   semantics, histogram bucket invariants, and the counter diff the CI
   telemetry gate runs.

   Instruments are process-global, so tests use uniquely-named
   instruments and reset only those — never [Obs.reset], which would
   zero counters other suites (enum) depend on. *)

open Abg_obs

(* Run [f] with telemetry forced to [enabled], restoring the previous
   state even if [f] raises. *)
let with_enabled enabled f =
  let before = Obs.enabled () in
  Obs.set_enabled enabled;
  Fun.protect ~finally:(fun () -> Obs.set_enabled before) f

(* -- sharded counters -- *)

let test_counter_basic () =
  let c = Obs.Counter.make "test.obs.basic" in
  Obs.Counter.reset c;
  Obs.Counter.incr c;
  Obs.Counter.add c 41;
  Alcotest.(check int) "incr + add merge" 42 (Obs.Counter.value c);
  Obs.Counter.add c 0;
  Alcotest.(check int) "add 0 is free" 42 (Obs.Counter.value c);
  Obs.Counter.reset c;
  Alcotest.(check int) "reset" 0 (Obs.Counter.value c)

let test_counter_idempotent_make () =
  let a = Obs.Counter.make "test.obs.same" in
  let b = Obs.Counter.make "test.obs.same" in
  Obs.Counter.reset a;
  Obs.Counter.incr a;
  Obs.Counter.incr b;
  Alcotest.(check int) "same registration" 2 (Obs.Counter.value a)

(* The merge must see every shard: increments from pool workers land in
   per-domain cells, and the snapshot-time sum has to equal the
   sequential total regardless of how the pool spread the work. *)
let test_counter_merge_under_pool_load () =
  let c = Obs.Counter.make "test.obs.pool" in
  Obs.Counter.reset c;
  let items = Array.init 200 (fun i -> i) in
  let per_item = 37 in
  let _ =
    Abg_parallel.Pool.map
      (fun _ ->
        for _ = 1 to per_item do
          Obs.Counter.incr c
        done)
      items
  in
  Alcotest.(check int)
    "sum over shards = sequential total"
    (Array.length items * per_item)
    (Obs.Counter.value c)

let test_floatcell_merge_under_pool_load () =
  let f = Obs.Floatcell.make "test.obs.poolf" in
  let items = Array.init 100 (fun i -> i) in
  let base = Obs.Floatcell.total f in
  let _ = Abg_parallel.Pool.map (fun _ -> Obs.Floatcell.add f 0.5) items in
  Alcotest.(check (float 1e-9))
    "float shards merge" 50.0
    (Obs.Floatcell.total f -. base);
  let per_domain_sum =
    List.fold_left (fun acc (_, v) -> acc +. v) 0.0 (Obs.Floatcell.per_domain f)
  in
  Alcotest.(check (float 1e-9))
    "per-domain breakdown sums to total" (Obs.Floatcell.total f)
    per_domain_sum

(* -- disabled mode -- *)

let test_disabled_noop () =
  let c = Obs.Counter.make "test.obs.disabled" in
  let h = Obs.Histogram.make "test.obs.disabled.h" in
  let f = Obs.Floatcell.make "test.obs.disabled.f" in
  Obs.Counter.reset c;
  let h_before = (Obs.Histogram.summary h).Obs.Histogram.count in
  let f_before = Obs.Floatcell.total f in
  with_enabled false (fun () ->
      Alcotest.(check bool) "reads as disabled" false (Obs.enabled ());
      Obs.Counter.incr c;
      Obs.Counter.add c 100;
      Obs.Histogram.observe h 42.0;
      Obs.Floatcell.add f 1.0;
      let ran = ref false in
      let x = Obs.span "test-disabled-span" (fun () -> ran := true; 7) in
      Alcotest.(check int) "span still runs f" 7 x;
      Alcotest.(check bool) "span body executed" true !ran);
  Alcotest.(check int) "counter untouched" 0 (Obs.Counter.value c);
  Alcotest.(check int)
    "histogram untouched" h_before
    (Obs.Histogram.summary h).Obs.Histogram.count;
  Alcotest.(check (float 0.0)) "floatcell untouched" f_before
    (Obs.Floatcell.total f);
  Obs.Counter.incr c;
  Alcotest.(check int) "recording resumes after re-enable" 1
    (Obs.Counter.value c)

(* -- spans -- *)

let test_span_paths () =
  let count name =
    match List.assoc_opt name (Obs.snapshot ()).Obs.histograms with
    | None -> 0
    | Some s -> s.Obs.Histogram.count
  in
  let outer = count "span/test-outer" in
  let inner = count "span/test-outer/test-inner" in
  Obs.span "test-outer" (fun () ->
      Obs.span "test-inner" (fun () -> ignore (Sys.opaque_identity 1)));
  Alcotest.(check int) "outer span recorded" (outer + 1)
    (count "span/test-outer");
  Alcotest.(check int) "nested path joins with /" (inner + 1)
    (count "span/test-outer/test-inner")

let test_span_unwinds_on_raise () =
  (try
     Obs.span "test-raise" (fun () -> failwith "boom")
   with Failure _ -> ());
  (* If the span stack leaked, this would record under
     "span/test-raise/test-after". *)
  let before =
    List.assoc_opt "span/test-raise/test-after"
      (Obs.snapshot ()).Obs.histograms
  in
  Obs.span "test-after" (fun () -> ());
  let after =
    List.assoc_opt "span/test-raise/test-after"
      (Obs.snapshot ()).Obs.histograms
  in
  Alcotest.(check bool) "stack popped on raise" true (before = after)

(* -- snapshot / report -- *)

let is_sorted names = List.sort compare names = names

let test_snapshot_sections_sorted () =
  ignore (Obs.Counter.make "test.obs.zzz");
  ignore (Obs.Counter.make "test.obs.aaa");
  let snap = Obs.snapshot () in
  Alcotest.(check bool) "counters sorted" true
    (is_sorted (List.map fst snap.Obs.counters));
  Alcotest.(check bool) "volatile sorted" true
    (is_sorted (List.map fst snap.Obs.volatile));
  Alcotest.(check bool) "gauges sorted" true
    (is_sorted (List.map fst snap.Obs.gauges));
  Alcotest.(check bool) "histograms sorted" true
    (is_sorted (List.map fst snap.Obs.histograms))

let test_volatile_partition () =
  let v = Obs.Counter.make ~volatile:true "test.obs.volatile" in
  Obs.Counter.incr v;
  let snap = Obs.snapshot () in
  Alcotest.(check bool) "volatile not in deterministic section" true
    (not (List.mem_assoc "test.obs.volatile" snap.Obs.counters));
  Alcotest.(check bool) "volatile in volatile section" true
    (List.mem_assoc "test.obs.volatile" snap.Obs.volatile)

let test_report_roundtrip () =
  let c = Obs.Counter.make "test.obs.roundtrip" in
  Obs.Counter.reset c;
  Obs.Counter.add c 12345;
  let snap = Obs.snapshot () in
  let doc = Report.to_json snap in
  Alcotest.(check string) "serialization is stable" doc (Report.to_json snap);
  let json = Abg_util.Json.parse doc in
  (match Abg_util.Json.member_opt "schema" json with
  | Some (Abg_util.Json.Str s) -> Alcotest.(check string) "schema tag" Report.schema s
  | _ -> Alcotest.fail "schema member missing");
  let counters = Report.counters_of_json json in
  Alcotest.(check bool) "parsed counters match snapshot" true
    (counters = snap.Obs.counters);
  Alcotest.(check int) "value survives round-trip" 12345
    (List.assoc "test.obs.roundtrip" counters)

let test_find_counter () =
  let c = Obs.Counter.make "test.obs.find" in
  Obs.Counter.reset c;
  Obs.Counter.add c 9;
  let snap = Obs.snapshot () in
  Alcotest.(check int) "present" 9 (Report.find_counter snap "test.obs.find");
  Alcotest.(check int) "absent is 0" 0
    (Report.find_counter snap "test.obs.no-such-counter")

(* -- diff (the CI gate) -- *)

let doc_of_counters counters =
  let fields =
    List.map (fun (k, v) -> Printf.sprintf "\"%s\": %d" k v) counters
  in
  Printf.sprintf
    "{\"schema\": \"%s\", \"counters\": {%s}, \"volatile\": {}, \"gauges\": \
     {}, \"histograms\": {}, \"floatcells\": {}}"
    Report.schema
    (String.concat ", " fields)

let test_diff_agree () =
  let doc = doc_of_counters [ ("a", 1); ("b", 2) ] in
  Alcotest.(check int) "no drift" 0
    (List.length (Report.diff_counters ~baseline:doc ~current:doc))

let test_diff_drift_kinds () =
  let baseline = doc_of_counters [ ("a", 1); ("b", 2); ("c", 3) ] in
  let current = doc_of_counters [ ("b", 2); ("c", 30); ("d", 4) ] in
  let drifts = Report.diff_counters ~baseline ~current in
  let has p = List.exists p drifts in
  Alcotest.(check int) "three drifts" 3 (List.length drifts);
  Alcotest.(check bool) "missing a" true
    (has (function Report.Missing ("a", 1) -> true | _ -> false));
  Alcotest.(check bool) "changed c" true
    (has (function Report.Changed ("c", 3, 30) -> true | _ -> false));
  Alcotest.(check bool) "unexpected d" true
    (has (function Report.Unexpected ("d", 4) -> true | _ -> false))

(* -- histogram invariants (qcheck) -- *)

let arb_value =
  QCheck.(
    oneof
      [
        float;
        make Gen.(float_range 0.0 10.0);
        make Gen.(float_range 1.0 1e12);
        always 0.0;
        always nan;
        always infinity;
        always neg_infinity;
      ])

let prop_bucket_in_range =
  QCheck.Test.make ~name:"bucket_of lands in [0, buckets)" ~count:500 arb_value
    (fun v ->
      let b = Obs.Histogram.bucket_of v in
      b >= 0 && b < Obs.Histogram.buckets)

let prop_bucket_contains =
  QCheck.Test.make ~name:"lower_bound b <= v < lower_bound (b+1)" ~count:500
    arb_value (fun v ->
      let b = Obs.Histogram.bucket_of v in
      if Float.is_nan v || v < 1.0 then b = 0
      else
        Obs.Histogram.lower_bound b <= v
        && (b = Obs.Histogram.buckets - 1
           || v < Obs.Histogram.lower_bound (b + 1)))

let prop_lower_bounds_monotone =
  QCheck.Test.make ~name:"lower_bound is monotone" ~count:100
    QCheck.(make Gen.(int_range 0 (Obs.Histogram.buckets - 2)))
    (fun b -> Obs.Histogram.lower_bound b < Obs.Histogram.lower_bound (b + 1))

let prop_summary_count =
  QCheck.Test.make ~name:"summary count = sum of bucket counts" ~count:50
    QCheck.(list_of_size Gen.(int_range 0 50) arb_value)
    (fun vs ->
      let h = Obs.Histogram.make "test.obs.qcheck.h" in
      let before = Obs.Histogram.summary h in
      List.iter (Obs.Histogram.observe h) vs;
      let s = Obs.Histogram.summary h in
      let bucket_total =
        List.fold_left (fun acc (_, n) -> acc + n) 0 s.Obs.Histogram.nonzero
      in
      s.Obs.Histogram.count - before.Obs.Histogram.count = List.length vs
      && s.Obs.Histogram.count = bucket_total)

let qcheck tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let suites =
  [
    ( "obs",
      [
        Alcotest.test_case "counter basic" `Quick test_counter_basic;
        Alcotest.test_case "counter make idempotent" `Quick
          test_counter_idempotent_make;
        Alcotest.test_case "counter merge under pool load" `Quick
          test_counter_merge_under_pool_load;
        Alcotest.test_case "floatcell merge under pool load" `Quick
          test_floatcell_merge_under_pool_load;
        Alcotest.test_case "disabled mode is a no-op" `Quick
          test_disabled_noop;
        Alcotest.test_case "span paths" `Quick test_span_paths;
        Alcotest.test_case "span unwinds on raise" `Quick
          test_span_unwinds_on_raise;
        Alcotest.test_case "snapshot sections sorted" `Quick
          test_snapshot_sections_sorted;
        Alcotest.test_case "volatile partition" `Quick test_volatile_partition;
      ]
      @ qcheck
          [
            prop_bucket_in_range;
            prop_bucket_contains;
            prop_lower_bounds_monotone;
            prop_summary_count;
          ] );
    ( "obs.report",
      [
        Alcotest.test_case "json round-trip" `Quick test_report_roundtrip;
        Alcotest.test_case "find_counter" `Quick test_find_counter;
        Alcotest.test_case "diff: agreement" `Quick test_diff_agree;
        Alcotest.test_case "diff: drift kinds" `Quick test_diff_drift_kinds;
      ] );
  ]
