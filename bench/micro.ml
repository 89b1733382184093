(* Bechamel micro-benchmarks: one per table/figure, measuring the kernel
   operation that dominates that experiment's runtime, so regressions in
   the hot paths are visible without re-running whole syntheses.

   Besides printing, the section writes every estimate to
   BENCH_micro.json (name -> ns/run) in the current directory, so the
   perf trajectory of the hot paths is tracked across PRs. *)

open Bechamel
open Toolkit

let series n = Array.init n (fun i -> float_of_int (i mod 37) +. (0.3 *. float_of_int i))

(* A second series with a different shape, so DTW/Fréchet distances are
   nonzero and a cutoff below them actually abandons. *)
let series_offset n =
  Array.init n (fun i -> float_of_int ((i + 11) mod 29) +. (0.35 *. float_of_int i))

let dtw_test =
  let a = series 128 and b = series_offset 128 in
  Test.make ~name:"table2/fig4: dtw-128"
    (Staged.stage (fun () -> ignore (Abg_distance.Dtw.distance ~band:12 a b)))

let dtw_cutoff_test =
  let a = series 128 and b = series_offset 128 in
  (* Best-so-far threshold at a quarter of the true distance: the scan
     abandons as soon as a row proves the candidate can't beat it. *)
  let cutoff = 0.25 *. Abg_distance.Dtw.distance ~band:12 a b in
  Test.make ~name:"table2/fig4: dtw-128-cutoff"
    (Staged.stage (fun () ->
         ignore (Abg_distance.Dtw.distance ~band:12 ~cutoff a b)))

let euclidean_test =
  let a = series 128 and b = series 128 in
  Test.make ~name:"fig3: euclidean-128"
    (Staged.stage (fun () -> ignore (Abg_distance.Pointwise.euclidean a b)))

let frechet_test =
  (* The production configuration (Metric threads the same Sakoe–Chiba
     band DTW uses); the -full variant keeps the unbanded cost visible. *)
  let a = series 128 and b = series 128 in
  Test.make ~name:"fig3: frechet-128"
    (Staged.stage (fun () -> ignore (Abg_distance.Frechet.distance ~band:12 a b)))

let frechet_full_test =
  let a = series 128 and b = series 128 in
  Test.make ~name:"fig3: frechet-128-full"
    (Staged.stage (fun () -> ignore (Abg_distance.Frechet.distance a b)))

(* The scoring inner loop: segment prepared once, handler compiled once,
   then one closure call per record. *)
let replay_test =
  lazy
    (let seg = List.hd (Runs.segments_for "reno") in
     let handler = Option.get (Abg_core.Fine_tuned.find_fine_tuned "reno") in
     let prepared = Abg_core.Replay.prepare seg in
     let compiled = Abg_core.Replay.compile handler in
     Test.make ~name:"table2: replay-segment"
       (Staged.stage (fun () ->
            ignore (Abg_core.Replay.synthesize_prepared prepared compiled))))

(* Bucket-style scoring: a pool of mostly-losing candidates folded with a
   best-so-far incumbent. With cutoffs, losers abandon their replay sum
   and DTW rows early; without, every candidate pays full price. *)
let bucket_score_tests =
  lazy
    (let prepared =
       List.map Abg_core.Replay.prepare (Runs.segments_for "reno")
     in
     let candidates =
       let open Abg_dsl.Expr in
       List.map
         (fun c -> Add (Cwnd, Mul (Const c, Macro Abg_dsl.Macro.Reno_inc)))
         [ 0.7; 0.1; 0.25; 0.5; 1.0; 1.5; 2.0; 3.0; 5.0; 8.0 ]
       @ [ Mul (Cwnd, Const 2.0); Add (Cwnd, Signal Abg_dsl.Signal.Mss) ]
     in
     let compiled = List.map Abg_core.Replay.compile candidates in
     let fold cutoffs () =
       List.fold_left
         (fun best f ->
           let cut = if cutoffs then best else infinity in
           let d =
             Abg_core.Replay.total_distance_prepared ~cutoff:cut prepared f
           in
           if d < best then d else best)
         infinity compiled
     in
     ( Test.make ~name:"refine: bucket-score-cutoff"
         (Staged.stage (fun () -> ignore (fold true ()))),
       Test.make ~name:"refine: bucket-score-full"
         (Staged.stage (fun () -> ignore (fold false ()))) ))

(* One 16-item map on two domains, the helper's spawn and join
   included: what a fuzz generation pays to fan out. *)
let pool_test =
  lazy
    (let xs = Array.init 16 (fun i -> i) in
     let f x =
       let acc = ref 0.0 in
       for i = 1 to 2_000 do
         acc := !acc +. (1.0 /. float_of_int (i + x))
       done;
       !acc
     in
     Test.make ~name:"fuzz: pool-map"
       (Staged.stage (fun () ->
            ignore (Abg_parallel.Pool.map ~num_domains:2 f xs))))

(* The reno space holds ~4k canonical sketches and the incremental
   enumerator now clears them faster than the measurement quota: when the
   space runs dry mid-measurement, start a fresh encoder rather than
   timing post-exhaustion no-ops. The ~5 ms rebuild lands once per ~4k
   calls — amortized noise against the per-sketch estimate. *)
let enumerate_test =
  lazy
    (let enc = ref (Abg_enum.Encode.create Abg_dsl.Catalog.reno) in
     Test.make ~name:"sec61: sat-enumerate-sketch"
       (Staged.stage (fun () ->
            match Abg_enum.Encode.next !enc with
            | Some _ -> ()
            | None -> enc := Abg_enum.Encode.create Abg_dsl.Catalog.reno)))

(* The cost of a bucket switch on the shared enumerator: one solve under
   a bucket's assumptions against a warmed instance (some models already
   enumerated and blocked), no decode, no blocking clause. The two
   buckets alternate so every call really changes the assumption list —
   a repeat of the previous list would resume the kept trail and measure
   nearly nothing. This is what the refinement loop pays to probe a
   bucket. *)
let solve_assumptions_test =
  lazy
    (let enc = Abg_enum.Encode.create Abg_dsl.Catalog.reno in
     let b1 = [ Abg_dsl.Component.Op_add; Abg_dsl.Component.Op_mul ] in
     let b2 = [ Abg_dsl.Component.Op_add; Abg_dsl.Component.Op_div ] in
     for _ = 1 to 8 do
       ignore (Abg_enum.Encode.next ~bucket:b1 enc);
       ignore (Abg_enum.Encode.next ~bucket:b2 enc)
     done;
     let flip = ref false in
     Test.make ~name:"sec61: sat-solve-assumptions"
       (Staged.stage (fun () ->
            flip := not !flip;
            ignore
              (Abg_enum.Encode.check_bucket enc (if !flip then b1 else b2)))))

(* Per-sketch cost of the enumeration's static pruning stages, so the
   overhead the analysis adds to every [Encode.next] is visible next to
   the SAT solve it rides on: the abstract-interpretation dead-sketch
   check and the commutative-normal-form dedup lookup, both on a
   representative depth-3 Reno sketch. *)
let analysis_sketch =
  let open Abg_dsl.Expr in
  Add (Cwnd, Mul (Hole 0, Macro Abg_dsl.Macro.Reno_inc))

let absint_prune_test =
  let box = Abg_analysis.Absint.box_for Abg_dsl.Catalog.reno in
  Test.make ~name:"sec61: absint-prune-sketch"
    (Staged.stage (fun () ->
         ignore (Abg_analysis.Absint.prune box analysis_sketch)))

let canonical_intern_test =
  lazy
    (let tbl = Abg_analysis.Canonical.Tbl.create () in
     Test.make ~name:"sec61: canonical-intern-sketch"
       (Staged.stage (fun () ->
            ignore (Abg_analysis.Canonical.Tbl.intern tbl analysis_sketch))))

(* The relational stages the enumerator runs on every conditional sketch:
   the zone-domain guard check (the vacuous/implied walk, priced on the
   Student-5 shape the interval domain cannot decide) and a full
   [Equiv.decide] on a handler pair — the semantic-subsumption /
   translation-validation worst case, structural provers plus the SAT
   guard-skeleton pass. *)
let relint_guard_sketch =
  let open Abg_dsl.Expr in
  Ite
    ( Lt (Div (Macro Abg_dsl.Macro.Vegas_diff, Signal Abg_dsl.Signal.Min_rtt),
          Const 0.0),
      Add (Cwnd, Signal Abg_dsl.Signal.Mss),
      Mul (Const 2.0, Signal Abg_dsl.Signal.Mss) )

let relint_guard_check_test =
  lazy
    (let rel = Abg_analysis.Relint.for_dsl Abg_dsl.Catalog.vegas in
     let guard =
       match relint_guard_sketch with
       | Abg_dsl.Expr.Ite (g, _, _) -> g
       | _ -> assert false
     in
     Test.make ~name:"sec61: relint-guard-check"
       (Staged.stage (fun () ->
            ignore (Abg_analysis.Relint.boolean rel guard))))

let equiv_handler_pair_test =
  lazy
    (let rel = Abg_analysis.Relint.default () in
     let open Abg_dsl.Expr in
     let a =
       Ite
         ( Gt (Signal Abg_dsl.Signal.Rtt, Const 0.05),
           Add (Cwnd, Signal Abg_dsl.Signal.Mss),
           Add (Signal Abg_dsl.Signal.Mss, Cwnd) )
     and b = Add (Cwnd, Signal Abg_dsl.Signal.Mss) in
     Test.make ~name:"sec61: equiv-handler-pair"
       (Staged.stage (fun () ->
            ignore (Abg_analysis.Equiv.decide rel a b))))

let simulate_test =
  Test.make ~name:"table3: simulate-1s-reno"
    (Staged.stage (fun () ->
         let cfg =
           Abg_netsim.Config.make ~duration:1.0 ~bandwidth_mbps:10.0
             ~rtt_ms:50.0 ()
         in
         let cca = Abg_cca.Reno.create ~mss:1448.0 () in
         ignore (Abg_netsim.Sim.run cfg cca)))

(* The extended-scenario kernel the fuzzer runs: ACK jitter (a normal
   draw per ACK), one on-off cross flow and reordering, so every event
   lane and the RNG sit on the measured path. *)
let simulate_extended_test =
  Test.make ~name:"netsim: simulate-6s-extended"
    (Staged.stage (fun () ->
         let cfg =
           {
             (Abg_netsim.Config.make ~duration:6.0 ~bandwidth_mbps:10.0
                ~rtt_ms:50.0 ~ack_jitter:0.001 ~seed:7 ())
             with
             Abg_netsim.Config.cross =
               [ Abg_netsim.Config.On_off
                   { rate_bps = 3e6; on_s = 0.5; off_s = 0.5 } ];
             reorder_prob = 0.01;
             reorder_delay = 0.004;
           }
         in
         let cca = Abg_cca.Reno.create ~mss:1448.0 () in
         ignore (Abg_netsim.Sim.run cfg cca)))

(* Whole-suite collection: simulate and derive. *)
let collect_suite_test =
  let ctor = Option.get (Abg_cca.Registry.find "reno") in
  Test.make ~name:"table3: collect-suite-grid"
    (Staged.stage (fun () ->
         ignore
           (Abg_trace.Trace.collect_suite ~duration:1.0 ~n:4 ~name:"reno" ctor)))

(* Batch-orchestrator storage primitives: what a run pays per artifact
   read (verified) and per blob write (amortized over a pack flush). *)
let batch_store_read_test =
  lazy
    (let root =
       Filename.concat
         (Filename.get_temp_dir_name ())
         (Printf.sprintf "abagnale-bench-store.%d" (Unix.getpid ()))
     in
     let store = Abg_batch.Store.open_ ~deferred:true root in
     let payload = String.init 4096 (fun i -> Char.chr (32 + (i mod 95))) in
     let read_digest = Abg_batch.Store.put store payload in
     Abg_batch.Store.close store;
     Test.make ~name:"batch: store-blob-read-4k"
       (Staged.stage (fun () ->
            ignore (Abg_batch.Store.get store read_digest))))

(* The staged write path: a fresh 4k payload every iteration (the
   content-addressed fast path for an existing digest would otherwise
   turn the measurement into a lookup), staged in a writer whose pack
   flush (one append write + one fsync) lands every 64 puts. 63 runs
   stage in memory, the 64th pays the flush, so the estimate is the
   amortized per-blob durability cost of a job that stores 64 blobs. *)
let batch_store_amortized_test =
  lazy
    (let root =
       Filename.concat
         (Filename.get_temp_dir_name ())
         (Printf.sprintf "abagnale-bench-store-deferred.%d" (Unix.getpid ()))
     in
     let store = Abg_batch.Store.open_ ~deferred:true root in
     let payload = String.init 4096 (fun i -> Char.chr (32 + (i mod 95))) in
     let counter = ref 0 in
     Test.make ~name:"batch: store-blob-write-4k-amortized"
       (Staged.stage (fun () ->
            incr counter;
            ignore
              (Abg_batch.Store.put store (string_of_int !counter ^ payload));
            if !counter mod 64 = 0 then
              ignore (Abg_batch.Store.flush_staged store))))

(* One job in 16 quarantined, each carrying its error as every journal
   line the runner writes for a quarantine does. *)
let bench_entry i =
  let job = Digest.to_hex (Digest.string (string_of_int i)) in
  if i mod 16 = 0 then
    {
      Abg_batch.Journal.job;
      status = Abg_batch.Journal.Quarantined;
      result = None;
      error = Some (Printf.sprintf "Failure(\"probe %d: injected failure\")" i);
    }
  else
    {
      Abg_batch.Journal.job;
      status = Abg_batch.Journal.Ok;
      result = Some (Digest.to_hex (Digest.string ("r" ^ string_of_int i)));
      error = None;
    }

(* One journal line with its fsync: what each batch job's commit pays
   after its pack flush. *)
let batch_journal_append_test =
  lazy
    (let path =
       Filename.concat
         (Filename.get_temp_dir_name ())
         (Printf.sprintf "abagnale-bench-journal-append.%d.jsonl"
            (Unix.getpid ()))
     in
     if Sys.file_exists path then Sys.remove path;
     let journal = Abg_batch.Journal.open_ path in
     let counter = ref 0 in
     Test.make ~name:"batch: journal-append"
       (Staged.stage (fun () ->
            incr counter;
            Abg_batch.Journal.append journal (bench_entry !counter))))

(* Replay of an n-line journal. At 100k lines it is the read a resume,
   status or report makes for a 100k-job grid. *)
let batch_journal_replay_test ~name n =
  lazy
    (let path =
       Filename.concat
         (Filename.get_temp_dir_name ())
         (Printf.sprintf "abagnale-bench-journal-%d.%d.jsonl" n (Unix.getpid ()))
     in
     (* The lines [Journal.append] writes, without an fsync each. *)
     Out_channel.with_open_bin path (fun oc ->
         for i = 1 to n do
           output_string oc
             (Abg_batch.Journal.entry_to_line (bench_entry i) ^ "\n")
         done);
     Test.make ~name
       (Staged.stage (fun () -> ignore (Abg_batch.Journal.replay path))))

let batch_journal_replay_256_test =
  batch_journal_replay_test ~name:"batch: journal-replay-256" 256

let batch_journal_replay_100k_test =
  batch_journal_replay_test ~name:"batch: journal-replay-100k" 100_000

let classify_features_test =
  lazy
    (let traces = Runs.traces "reno" in
     Test.make ~name:"table3: extract-features"
       (Staged.stage (fun () ->
            ignore (Abg_classifier.Features.extract traces))))

(* The two kernels of a batch collect+classify job besides simulation,
   on one job's suite (two 6 s Reno traces): serializing a trace into
   its store blob, and CCAnalyzer classification with the references
   already built, as in every classify job after a process's first. *)
let batch_suite =
  lazy
    (Abg_trace.Trace.collect_suite ~duration:6.0 ~n:2 ~name:"reno"
       (Option.get (Abg_cca.Registry.find "reno")))

let trace_to_string_test =
  lazy
    (let trace = List.nth (Lazy.force batch_suite) 1 in
     Test.make ~name:"trace: to-string"
       (Staged.stage (fun () -> ignore (Abg_trace.Io.to_string trace))))

let ccanalyzer_classify_test =
  lazy
    (let traces = Lazy.force batch_suite in
     ignore (Abg_classifier.Ccanalyzer.classify traces);
     Test.make ~name:"table3: ccanalyzer-classify"
       (Staged.stage (fun () ->
            ignore (Abg_classifier.Ccanalyzer.classify traces))))

let benchmark test =
  let instances = [ Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg instances test in
  let results =
    List.map (fun i -> Analyze.all (Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]) i raw)
      instances
  in
  results

(* Estimate, print, and return (name, ns/run) rows for the JSON dump. *)
let measure test =
  let results = benchmark test in
  let rows = ref [] in
  List.iter
    (fun result ->
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] ->
              Printf.printf "%-36s %12.0f ns/run\n%!" name est;
              rows := (name, est) :: !rows
          | _ -> Printf.printf "%-36s (no estimate)\n%!" name)
        result)
    results;
  !rows

(* Run metadata alongside the flat estimate map: what machine and
   configuration produced the numbers, plus the telemetry snapshot of
   the setup phase (trace collection, segment prep) so the workload
   behind the estimates is auditable. BENCH_micro.json itself stays a
   flat name -> ns/run map for cross-PR comparability. *)
let write_meta path =
  Runs.write_meta path
    Abg_util.Json.
      [
        ("quota_s", Num 0.5);
        ("limit", Num 200.);
        ("telemetry_during_measurement", Str "disabled");
        ("setup_telemetry", Abg_obs.Report.document (Abg_obs.Obs.snapshot ()));
      ]

(* One genetic-search generation step at the CI smoke population size:
   ranking, tournament selection, crossover, and mutation for pop 8 —
   the fuzzer's orchestration overhead per generation, exclusive of the
   fitness evaluations themselves (those are simulator runs measured by
   table3: simulate-1s-reno). *)
let fuzz_generation_test =
  lazy
    (let params =
       { Abg_fuzz.Search.default_params with Abg_fuzz.Search.pop = 8 }
     in
     let population = Abg_fuzz.Search.initial_population params in
     let fitness =
       Array.map (fun (g : Abg_fuzz.Genome.t) -> g.(0) +. g.(1)) population
     in
     Test.make ~name:"fuzz: generation-8"
       (Staged.stage (fun () ->
            ignore
              (Abg_fuzz.Search.next_generation params ~gen:0 population
                 fitness))))

(* One divergence fitness evaluation, the unit of work of a fuzz run:
   reno and cubic simulated for 6 s on a fixed scenario with a bandwidth
   step, an on-off cross flow, outages, reordering and ACK jitter, then
   DTW over the two observed windows. *)
let fuzz_divergence_eval_test =
  lazy
    (let genome =
       [| 10.0; 50.0; 1.0; 0.001; 1.0; 0.5; 0.5; 0.3; 0.5; 1.0; 0.2; 50.0;
          0.01; 4.0; 0.0; 0.1 |]
     in
     let cfg = Abg_fuzz.Genome.to_config ~duration:6.0 ~seed:7 genome in
     let spec =
       { Abg_fuzz.Fitness.kind = Abg_fuzz.Fitness.Divergence; cca = "reno";
         cca_b = Some "cubic"; handler = None }
     in
     Test.make ~name:"fuzz: divergence-eval-6s"
       (Staged.stage (fun () -> ignore (Abg_fuzz.Fitness.evaluate spec cfg))))

let run () =
  Runs.heading "Micro-benchmarks (Bechamel, monotonic clock)";
  let bucket_cutoff, bucket_full = Lazy.force bucket_score_tests in
  let tests =
    [ dtw_test; dtw_cutoff_test; euclidean_test; frechet_test;
      frechet_full_test; Lazy.force replay_test; bucket_cutoff; bucket_full;
      Lazy.force pool_test; Lazy.force enumerate_test;
      Lazy.force solve_assumptions_test;
      absint_prune_test; Lazy.force canonical_intern_test;
      Lazy.force relint_guard_check_test; Lazy.force equiv_handler_pair_test;
      simulate_test; simulate_extended_test;
      collect_suite_test; Lazy.force classify_features_test;
      Lazy.force trace_to_string_test; Lazy.force ccanalyzer_classify_test;
      Lazy.force batch_store_read_test; Lazy.force batch_store_amortized_test;
      Lazy.force batch_journal_append_test;
      Lazy.force batch_journal_replay_256_test;
      Lazy.force batch_journal_replay_100k_test;
      Lazy.force fuzz_generation_test; Lazy.force fuzz_divergence_eval_test ]
  in
  (* Estimates are taken with telemetry off: they track the cost of the
     kernel operations themselves, and the disabled path is the one the
     <2% overhead claim in DESIGN.md §7 is measured against. The setup
     snapshot above already captured the instrumented counts. *)
  write_meta "BENCH_micro.meta.json";
  Abg_obs.Obs.set_enabled false;
  let rows =
    Fun.protect
      ~finally:(fun () -> Abg_obs.Obs.set_enabled true)
      (fun () -> List.concat_map measure tests)
  in
  Runs.write_estimates "BENCH_micro.json" rows;
  Printf.printf
    "[micro: wrote %d estimates to BENCH_micro.json, run metadata to \
     BENCH_micro.meta.json]\n"
    (List.length rows);
  print_newline ()
