(* Tests for the adversarial scenario search: genome codec, handler
   codec, GA determinism, and the batch-backed generation evaluator's
   resume contract. *)

module Genome = Abg_fuzz.Genome
module Codec = Abg_fuzz.Codec
module Fitness = Abg_fuzz.Fitness
module Search = Abg_fuzz.Search
module Config = Abg_netsim.Config
module Rng = Abg_util.Rng

let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "abagnale-fuzz-test.%d.%d" (Unix.getpid ()) !dir_counter)
  in
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  if Sys.file_exists dir then rm_rf dir;
  Sys.mkdir dir 0o755;
  dir

(* -- genome -- *)

let test_genome_bounds () =
  let rng = Rng.create 5 in
  for _ = 1 to 50 do
    let g = Genome.random rng in
    Alcotest.(check int) "gene count" Genome.length (Array.length g);
    Array.iteri
      (fun i v ->
        let spec = Genome.genes.(i) in
        Alcotest.(check bool)
          (spec.Genome.name ^ " in box")
          true
          (v >= spec.Genome.lo && v <= spec.Genome.hi))
      g
  done

let test_genome_roundtrip () =
  let rng = Rng.create 6 in
  for _ = 1 to 50 do
    let g = Genome.random rng in
    match Genome.decode (Genome.encode g) with
    | None -> Alcotest.fail "genome did not decode"
    | Some g' ->
        Alcotest.(check bool) "bit-exact roundtrip" true (g = g');
        Alcotest.(check string) "stable fingerprint" (Genome.fingerprint g)
          (Genome.fingerprint g')
  done;
  Alcotest.(check bool) "garbage rejected" true (Genome.decode "zap" = None);
  Alcotest.(check bool) "wrong arity rejected" true
    (Genome.decode "0x1p+0;0x1p+0" = None)

let test_genome_config_valid () =
  (* Every corner of the gene box must decode to a runnable scenario. *)
  let rng = Rng.create 7 in
  for i = 0 to 49 do
    let g =
      if i = 0 then Array.map (fun s -> s.Genome.lo) Genome.genes
      else if i = 1 then Array.map (fun s -> s.Genome.hi) Genome.genes
      else Genome.random rng
    in
    let cfg = Genome.to_config ~duration:2.0 ~seed:9 g in
    Alcotest.(check bool) "positive bandwidth" true (cfg.Config.bandwidth_bps > 0.0);
    Alcotest.(check bool) "positive queue" true (cfg.Config.queue_capacity > 0);
    Alcotest.(check bool) "digest roundtrips" true
      (match Config.of_digest (Config.digest cfg) with
      | Some cfg' -> cfg = cfg'
      | None -> false);
    let stats = Abg_netsim.Sim.run cfg (Abg_cca.Reno.create ~mss:cfg.Config.mss ()) in
    Alcotest.(check bool) "simulates" true (stats.Abg_netsim.Sim.final_time > 0.0)
  done

let test_genome_mutation_in_bounds () =
  let rng = Rng.create 8 in
  let g = Genome.random rng in
  for _ = 1 to 50 do
    let m = Genome.mutate rng g in
    Array.iteri
      (fun i v ->
        let spec = Genome.genes.(i) in
        Alcotest.(check bool) "mutant stays in box" true
          (v >= spec.Genome.lo && v <= spec.Genome.hi))
      m
  done

(* -- handler codec -- *)

let sample_handlers =
  let open Abg_dsl.Expr in
  let sig0 = List.hd Abg_dsl.Signal.all in
  let mac0 = List.hd Abg_dsl.Macro.all in
  [
    Cwnd;
    Const 0.1;
    Const (-3.25e-7);
    Hole 4;
    Signal sig0;
    Macro mac0;
    Add (Cwnd, Mul (Const 2.0, Signal sig0));
    Ite (Lt (Signal sig0, Macro mac0), Add (Cwnd, Macro mac0), Macro mac0);
    Ite (Mod_eq (Cwnd, Const 2.0), Cbrt (Cube (Sub (Cwnd, Const 1.0))),
         Div (Cwnd, Const 2.0));
    Ite (Gt (Cwnd, Const 100.0), Cwnd, Add (Cwnd, Const 1.0));
  ]

let test_codec_roundtrip () =
  List.iter
    (fun e ->
      match Codec.decode_num (Codec.encode_num e) with
      | None -> Alcotest.fail ("no parse: " ^ Codec.encode_num e)
      | Some e' ->
          Alcotest.(check bool)
            ("roundtrip: " ^ Codec.encode_num e)
            true
            (Abg_dsl.Expr.equal_num e e'))
    sample_handlers

let test_codec_rejects_garbage () =
  List.iter
    (fun s ->
      Alcotest.(check bool) ("rejected: " ^ s) true (Codec.decode_num s = None))
    [
      ""; "("; ")"; "(add cwnd)"; "(add cwnd cwnd cwnd)"; "sig:nope";
      "mac:nope"; "const:xyz"; "hole:"; "(frob cwnd cwnd)"; "cwnd cwnd";
      "(lt cwnd cwnd)" (* boolean at the top level is not a num *);
    ]

(* -- search determinism -- *)

(* A cheap deterministic surrogate fitness: no simulator, so these tests
   isolate the GA itself. *)
let surrogate ~gen:_ genomes =
  Array.map (fun g -> g.(0) +. (2.0 *. g.(2)) -. g.(3)) genomes

let test_search_deterministic () =
  let params = { Search.default_params with Search.generations = 5; pop = 12 } in
  let a = Search.run ~params ~evaluate:surrogate in
  let b = Search.run ~params ~evaluate:surrogate in
  Alcotest.(check string) "same champion"
    (Genome.fingerprint a.Search.champion)
    (Genome.fingerprint b.Search.champion);
  Alcotest.(check bool) "same fitness" true
    (a.Search.champion_fitness = b.Search.champion_fitness);
  Alcotest.(check (list (float 0.0))) "same history"
    (List.map (fun s -> s.Search.best) a.Search.history)
    (List.map (fun s -> s.Search.best) b.Search.history)

let test_search_seed_matters () =
  let params = { Search.default_params with Search.generations = 3; pop = 8 } in
  let a = Search.run ~params ~evaluate:surrogate in
  let b =
    Search.run
      ~params:{ params with Search.seed = params.Search.seed + 1 }
      ~evaluate:surrogate
  in
  Alcotest.(check bool) "different seed, different search" true
    (Genome.fingerprint a.Search.champion <> Genome.fingerprint b.Search.champion
    || a.Search.champion_fitness <> b.Search.champion_fitness)

let test_search_improves () =
  (* On a smooth surrogate, five generations must not regress and should
     beat a random population's best. *)
  let params = { Search.default_params with Search.generations = 6; pop = 12 } in
  let r = Search.run ~params ~evaluate:surrogate in
  let bests = List.map (fun s -> s.Search.best) r.Search.history in
  let first = List.hd bests in
  Alcotest.(check bool) "monotone champion" true
    (List.for_all (fun b -> b <= r.Search.champion_fitness) bests);
  Alcotest.(check bool) "evolution helps" true
    (r.Search.champion_fitness >= first)

let test_search_next_generation_pure () =
  let params = { Search.default_params with Search.pop = 10 } in
  let pop = Search.initial_population params in
  let fit = surrogate ~gen:0 pop in
  let a = Search.next_generation params ~gen:0 pop fit in
  let b = Search.next_generation params ~gen:0 pop fit in
  Alcotest.(check bool) "pure function of (params, pop, fitness)" true (a = b);
  (* elites survive verbatim, in rank order *)
  let ranked =
    List.sort
      (fun i j -> compare fit.(j) fit.(i))
      (List.init (Array.length pop) Fun.id)
  in
  Alcotest.(check bool) "elite carried over" true
    (a.(0) = pop.(List.hd ranked))

(* -- fitness functions -- *)

let cheap_cfg = Config.make ~duration:2.0 ~bandwidth_mbps:8.0 ~rtt_ms:30.0 ()

(* The reference divergence: DTW over the windows of the two flows' full
   traces. *)
let divergence_of_records cfg =
  let window name =
    snd
      (Abg_trace.Trace.observed_series
         (Abg_trace.Trace.collect cfg ~name
            (Option.get (Abg_cca.Registry.find name))))
  in
  Abg_distance.Metric.compute Abg_distance.Metric.default
    ~truth:(window "reno") ~candidate:(window "cubic")

let test_fitness_divergence () =
  let spec =
    { Fitness.kind = Fitness.Divergence; cca = "reno"; cca_b = Some "cubic";
      handler = None }
  in
  let v = Fitness.evaluate spec cheap_cfg in
  Alcotest.(check bool) "finite and nonnegative" true (Float.is_finite v && v >= 0.0);
  let same =
    Fitness.evaluate { spec with Fitness.cca_b = Some "reno" } cheap_cfg
  in
  Alcotest.(check (float 1e-9)) "self-divergence is zero" 0.0 same;
  let rng = Rng.create 19 in
  let cfgs =
    cheap_cfg
    :: List.init 3 (fun _ ->
           Genome.to_config ~duration:2.0 ~seed:7 (Genome.random rng))
  in
  List.iter
    (fun cfg ->
      Alcotest.(check int64) "= DTW over the collected windows"
        (Int64.bits_of_float (divergence_of_records cfg))
        (Int64.bits_of_float (Fitness.evaluate spec cfg)))
    cfgs

let test_fitness_throughput () =
  let spec =
    { Fitness.kind = Fitness.Throughput; cca = "reno"; cca_b = None;
      handler = None }
  in
  let v = Fitness.evaluate spec cheap_cfg in
  Alcotest.(check bool) "starvation in [0,1]" true (v >= 0.0 && v <= 1.0);
  let starved =
    Fitness.evaluate spec
      { cheap_cfg with Config.outage_rate = 1.0; outage_duration = 0.5 }
  in
  Alcotest.(check bool) "outages starve harder" true (starved > v)

let test_fitness_counterexample () =
  let spec =
    { Fitness.kind = Fitness.Counterexample; cca = "reno"; cca_b = None;
      handler = Some Abg_dsl.Expr.Cwnd (* frozen window: clearly not reno *) }
  in
  let v = Fitness.evaluate spec cheap_cfg in
  Alcotest.(check bool) "wrong handler scores positive" true (v > 0.0);
  Alcotest.check_raises "incoherent spec rejected"
    (Failure "fuzz: counterexample fitness needs a handler") (fun () ->
      ignore (Fitness.evaluate { spec with Fitness.handler = None } cheap_cfg))

(* A generation evaluated on four domains scores exactly what one domain
   does: each evaluation seeds its own simulation, so scheduling cannot
   move a bit. *)
let test_fitness_four_domains () =
  let params = { Search.default_params with Search.pop = 8 } in
  let cfgs =
    Array.map
      (Genome.to_config ~duration:2.0 ~seed:21)
      (Search.initial_population params)
  in
  List.iter
    (fun (kind, cca_b, handler) ->
      let spec = { Fitness.kind; cca = "reno"; cca_b; handler } in
      let bits = Array.map Int64.bits_of_float in
      Alcotest.(check (array int64)) (Fitness.kind_name kind)
        (bits (Array.map (Fitness.evaluate spec) cfgs))
        (bits
           (Abg_parallel.Pool.map ~num_domains:4 (Fitness.evaluate spec) cfgs)))
    [ (Fitness.Divergence, Some "cubic", None);
      (Fitness.Throughput, None, None);
      (Fitness.Counterexample, None, Some Abg_dsl.Expr.Cwnd) ]

(* -- batch evaluation: resume contract -- *)

let throughput_spec =
  { Abg_batch.Fuzz_batch.fitness = Fitness.Throughput; cca = "reno";
    cca_b = None; handler = None; duration = 2.0; scenario_seed = 21 }

let journal_lines gdir =
  In_channel.with_open_bin (Filename.concat gdir "journal.jsonl")
    In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let test_fuzz_batch_resume_identical () =
  let dir = fresh_dir () in
  let spec = throughput_spec in
  let rng = Rng.create 31 in
  let genomes = Array.init 6 (fun _ -> Genome.random rng) in
  (* duplicates must collapse to one evaluation and still score *)
  genomes.(5) <- Array.copy genomes.(0);
  let evaluations = Abg_obs.Obs.Counter.make "fuzz.evaluations" in
  let before = Abg_obs.Obs.Counter.value evaluations in
  let first =
    Abg_batch.Fuzz_batch.evaluate ~dir ~verbose:false spec ~gen:0
      genomes
  in
  Alcotest.(check int) "one evaluation per distinct genome" 5
    (Abg_obs.Obs.Counter.value evaluations - before);
  let gdir = Abg_batch.Fuzz_batch.gen_dir dir 0 in
  Alcotest.(check int) "the grid is one job" 1
    (List.length (Abg_batch.Runner.jobs_of_dir ~dir:gdir));
  Alcotest.(check int) "the journal is one line" 1
    (List.length (journal_lines gdir));
  let again =
    Abg_batch.Fuzz_batch.evaluate ~dir ~verbose:false spec ~gen:0
      genomes
  in
  Alcotest.(check bool) "settled generation re-reads identically" true
    (first = again);
  Alcotest.(check int) "a settled generation evaluates nothing" 5
    (Abg_obs.Obs.Counter.value evaluations - before);
  Alcotest.(check (float 0.0)) "duplicate genomes share a score" first.(0)
    first.(5);
  Alcotest.(check bool) "scores are real" true
    (Array.for_all Float.is_finite first);
  (* a fresh directory evaluates to the same values: fitness is a pure
     function of (spec, genome), not of the run directory *)
  let fresh =
    Abg_batch.Fuzz_batch.evaluate ~dir:(fresh_dir ()) ~verbose:false
      spec ~gen:0 genomes
  in
  Alcotest.(check bool) "directory-independent" true (first = fresh)

(* A generation directory holds one population. Evaluating another one
   there (a fuzz.json whose seed was edited, say) must name the
   directory and run nothing. *)
let test_fuzz_batch_foreign_generation () =
  let dir = fresh_dir () in
  let rng = Rng.create 31 in
  let evaluate genomes =
    Abg_batch.Fuzz_batch.evaluate ~dir ~verbose:false
      throughput_spec ~gen:0 genomes
  in
  ignore (evaluate (Array.init 3 (fun _ -> Genome.random rng)));
  let gdir = Abg_batch.Fuzz_batch.gen_dir dir 0 in
  let journal = journal_lines gdir in
  match evaluate (Array.init 3 (fun _ -> Genome.random rng)) with
  | exception Abg_batch.Store.Corrupt msg ->
      Alcotest.(check bool) "directory named" true
        (String.starts_with ~prefix:gdir msg);
      Alcotest.(check (list string)) "nothing ran" journal (journal_lines gdir)
  | _ -> Alcotest.fail "expected Store.Corrupt"

(* A spec error fails every evaluation alike, so the generation runs
   once, is quarantined, and raises naming the generation and the
   error; no genome is scored. The quarantine is terminal: evaluating
   again raises the same error and runs nothing. The counterexample
   target does not decode: the grid reader accepts it, the job raises. *)
let test_fuzz_batch_quarantined_generation () =
  let dir = fresh_dir () in
  let spec =
    { throughput_spec with
      Abg_batch.Fuzz_batch.fitness = Fitness.Counterexample;
      handler = Some "garbage(" }
  in
  let rng = Rng.create 31 in
  let genomes = Array.init 4 (fun _ -> Genome.random rng) in
  let failure () =
    match
      Abg_batch.Fuzz_batch.evaluate ~dir ~verbose:false spec ~gen:0 genomes
    with
    | exception Abg_batch.Fuzz_batch.Failed msg -> msg
    | _ -> Alcotest.fail "expected Fuzz_batch.Failed"
  in
  let gdir = Abg_batch.Fuzz_batch.gen_dir dir 0 in
  let msg = failure () in
  Alcotest.(check string) "generation and error named"
    (Filename.concat dir "gen-0000"
    ^ ": generation failed: Failure(\"undecodable fuzz handler \\\"garbage(\\\"\")")
    msg;
  let journal = journal_lines gdir in
  Alcotest.(check int) "the journal is one line" 1 (List.length journal);
  (match Abg_batch.Runner.settled_entries gdir with
  | [ e ] ->
      Alcotest.(check bool) "quarantined" true
        (e.Abg_batch.Journal.status = Abg_batch.Journal.Quarantined)
  | l -> Alcotest.failf "expected one journal entry, got %d" (List.length l));
  Alcotest.(check string) "the same error again" msg (failure ());
  Alcotest.(check (list string)) "nothing ran" journal (journal_lines gdir)

(* An ok generation whose result blob was forged after gc (edited in
   place inside gc.pack) or is gone must raise, naming the generation
   directory. *)
let test_fuzz_batch_corrupt_blob_raises () =
  let dir = fresh_dir () in
  let rng = Rng.create 31 in
  let genomes = Array.init 2 (fun _ -> Genome.random rng) in
  let evaluate () =
    Abg_batch.Fuzz_batch.evaluate ~dir ~verbose:false
      throughput_spec ~gen:0 genomes
  in
  ignore (evaluate ());
  let gdir = Abg_batch.Fuzz_batch.gen_dir dir 0 in
  ignore (Abg_batch.Runner.gc ~dir:gdir);
  let pack =
    List.fold_left Filename.concat gdir [ "store"; "pack"; "gc.pack" ]
  in
  let bytes = In_channel.with_open_bin pack In_channel.input_all in
  (* A same-length forgery of the first value's leading hex digit. *)
  let key = "\"values\":[\"0x" in
  let rec find i =
    if String.sub bytes i (String.length key) = key then i
    else find (i + 1)
  in
  let at = find 0 + String.length key in
  let forged = Bytes.of_string bytes in
  Bytes.set forged at (if bytes.[at] = '3' then '1' else '3');
  let raises_naming what =
    match evaluate () with
    | exception Abg_batch.Store.Corrupt msg ->
        Alcotest.(check bool) (what ^ ": directory named") true
          (String.starts_with ~prefix:gdir msg)
    | _ -> Alcotest.failf "%s: expected Store.Corrupt" what
  in
  Out_channel.with_open_bin pack (fun oc -> output_bytes oc forged);
  raises_naming "forged value";
  Sys.remove pack;
  raises_naming "missing blob"

let suites =
  [
    ( "fuzz.genome",
      [
        Alcotest.test_case "bounds" `Quick test_genome_bounds;
        Alcotest.test_case "roundtrip" `Quick test_genome_roundtrip;
        Alcotest.test_case "configs valid" `Quick test_genome_config_valid;
        Alcotest.test_case "mutation in bounds" `Quick
          test_genome_mutation_in_bounds;
      ] );
    ( "fuzz.codec",
      [
        Alcotest.test_case "roundtrip" `Quick test_codec_roundtrip;
        Alcotest.test_case "rejects garbage" `Quick test_codec_rejects_garbage;
      ] );
    ( "fuzz.search",
      [
        Alcotest.test_case "deterministic" `Quick test_search_deterministic;
        Alcotest.test_case "seed matters" `Quick test_search_seed_matters;
        Alcotest.test_case "improves" `Quick test_search_improves;
        Alcotest.test_case "next generation pure" `Quick
          test_search_next_generation_pure;
      ] );
    ( "fuzz.fitness",
      [
        Alcotest.test_case "divergence" `Quick test_fitness_divergence;
        Alcotest.test_case "throughput" `Quick test_fitness_throughput;
        Alcotest.test_case "counterexample" `Quick test_fitness_counterexample;
        Alcotest.test_case "four domains = one" `Quick test_fitness_four_domains;
      ] );
    ( "fuzz.batch",
      [
        Alcotest.test_case "resume identical" `Quick
          test_fuzz_batch_resume_identical;
        Alcotest.test_case "foreign generation" `Quick
          test_fuzz_batch_foreign_generation;
        Alcotest.test_case "quarantined generation" `Quick
          test_fuzz_batch_quarantined_generation;
        Alcotest.test_case "corrupt blob raises" `Quick
          test_fuzz_batch_corrupt_blob_raises;
      ] );
  ]
