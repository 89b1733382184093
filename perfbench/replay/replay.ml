(* In-process replay of one benchmark workload.

   run.py times each workload's real command from outside, as fresh
   processes. This program repeats the same work inside one process and
   times the public calls at each layer boundary, so that the command's
   wall time can be split across layers. It prints one JSON object on
   stdout: metric name -> number, plus the deterministic results
   ("handler", "distance", "champion") that run.py compares with the
   command's own output.

   Usage:
     replay synth SEED SCENARIOS DURATION
     replay batch DIR SEED JITTER SCENARIOS DURATION CCA,CCA,...
     replay fuzz SEED GENERATIONS POP DURATION
     replay serve WINDOW REQUEST_FILE *)

open Abg_batch

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let constructor name =
  match Abg_cca.Registry.find name with
  | Some c -> c
  | None -> failwith ("unknown CCA " ^ name)

let counter name = Abg_obs.Report.find_counter (Abg_obs.Obs.snapshot ()) name

(* Total of one span histogram recorded in this process, in seconds. *)
let span_s path =
  match
    List.assoc_opt ("span/" ^ path)
      (Abg_obs.Obs.snapshot ()).Abg_obs.Obs.histograms
  with
  | Some s -> s.Abg_obs.Obs.Histogram.sum /. 1e9
  | None -> 0.0

let num name v = (name, Jsonx.Num v)

let with_configs names configs =
  List.concat_map (fun name -> List.map (fun cfg -> (name, cfg)) configs) names

(* The offline classifiers' reference simulations: Gordon's known set, and
   CCAnalyzer's (the known set plus cdg and nv), on Gordon's scenarios. *)
let gordon_refs () =
  with_configs Abg_classifier.Gordon.known_set
    (Abg_classifier.Gordon.reference_scenarios ())

let ccanalyzer_refs () =
  with_configs
    ("cdg" :: "nv" :: Abg_classifier.Gordon.known_set)
    (Abg_classifier.Gordon.reference_scenarios ())

(* Simulate (CCA, config) pairs outside the trace store: the netsim
   layer's own time and the events it processed. Runs first, so that the
   layer calls timed after it still find the trace store cold. *)
let simulate pairs =
  let events = counter "sim.events" in
  let (), s =
    timed (fun () ->
        List.iter
          (fun (name, cfg) ->
            ignore (Abg_trace.Trace.collect cfg ~name (constructor name)))
          pairs)
  in
  [
    num "netsim.replay_s" s;
    num "netsim.replay_events" (float_of_int (counter "sim.events" - events));
  ]

(* synth: collect, classify cold then warm (the difference is the
   reference build), segment, refine. *)
let synth ~seed ~scenarios ~duration =
  let configs = Abg_netsim.Config.testbed_grid ~duration ~n:scenarios () in
  let sim = simulate (with_configs [ "reno" ] configs @ gordon_refs ()) in
  let traces, collect_s =
    timed (fun () ->
        Abg_trace.Trace.collect_configs ~name:"reno" (constructor "reno")
          configs)
  in
  let verdict, gordon_s =
    timed (fun () -> Abg_classifier.Gordon.classify traces)
  in
  let _, gordon_warm_s =
    timed (fun () -> Abg_classifier.Gordon.classify traces)
  in
  let config =
    { Abg_core.Refinement.default_config with Abg_core.Refinement.seed }
  in
  let segments, segments_s =
    timed (fun () ->
        Abg_core.Synthesis.segments_of_traces (Abg_util.Rng.create seed)
          ~metric:config.Abg_core.Refinement.metric ~budget:8 traces)
  in
  let result, refine_s =
    timed (fun () ->
        Abg_core.Refinement.run ~config
          ~dsl:(Abg_classifier.Dsl_hint.choose verdict)
          segments)
  in
  let handler, distance =
    match result with
    | Some r ->
        ( Abg_dsl.Pretty.num r.Abg_core.Refinement.handler,
          Printf.sprintf "%.2f" r.Abg_core.Refinement.distance )
    | None -> ("none", "none")
  in
  sim
  @ [
      num "trace.collect_s" collect_s;
      num "classifier.gordon_s" gordon_s;
      num "classifier.gordon_warm_s" gordon_warm_s;
      num "core.segments_s" segments_s;
      num "core.refine_s" refine_s;
      num "enum.enumerate_s" (span_s "refine/enumerate");
      ("handler", Jsonx.Str handler);
      ("distance", Jsonx.Str distance);
    ]

(* batch: every job body of the collect+classify grid through
   Runner.perform, then the calls inside those bodies one layer at a
   time: serialization, store puts, CCAnalyzer. *)
let batch ~dir ~seed ~jitter ~scenarios ~duration ~ccas =
  let configs =
    Abg_netsim.Config.testbed_grid ~duration ~ack_jitter:jitter ~n:scenarios ()
  in
  let sim = simulate (with_configs ccas configs @ ccanalyzer_refs ()) in
  let jobs =
    Job.expand
      {
        Job.kinds = [ Job.Collect; Job.Classify ];
        ccas;
        scenarios;
        duration;
        ack_jitter = jitter;
        seeds = [ seed ];
      }
    |> List.sort Job.compare_canonical
  in
  let add tbl key s =
    Hashtbl.replace tbl key
      (s +. Option.value ~default:0.0 (Hashtbl.find_opt tbl key))
  in
  let get tbl key = Option.value ~default:0.0 (Hashtbl.find_opt tbl key) in
  let store = Store.open_ ~deferred:true (Filename.concat dir "store") in
  let per_kind = Hashtbl.create 4 in
  List.iter
    (fun (job : Job.t) ->
      let _, s =
        timed (fun () ->
            Runner.perform ~settings:Runner.default_settings ~store ~attempt:1
              job)
      in
      add per_kind (Job.kind_name job.Job.kind) s)
    jobs;
  Store.close store;
  (* The traces come from the now-warm trace store. Blobs go to a second
     store, because putting content a store already holds is a no-op. *)
  let puts = Store.open_ ~deferred:true (Filename.concat dir "puts") in
  let layer = Hashtbl.create 4 in
  let bytes = ref 0 in
  List.iter
    (fun cca ->
      let traces =
        Abg_trace.Trace.collect_configs ~name:cca (constructor cca) configs
      in
      List.iter
        (fun trace ->
          let text, s = timed (fun () -> Abg_trace.Io.to_string trace) in
          add layer "serialize" s;
          bytes := !bytes + String.length text;
          let _, s = timed (fun () -> Store.put puts text) in
          add layer "put" s)
        traces;
      let _, s =
        timed (fun () -> Abg_classifier.Ccanalyzer.classify traces)
      in
      add layer "ccanalyzer" s)
    ccas;
  Store.close puts;
  sim
  @ [
      num "batch.perform_collect_s" (get per_kind "collect");
      num "batch.perform_classify_s" (get per_kind "classify");
      num "trace.serialize_s" (get layer "serialize");
      num "trace.serialize_mb" (float_of_int !bytes /. 1e6);
      num "batch.store_put_s" (get layer "put");
      num "classifier.ccanalyzer_s" (get layer "ccanalyzer");
    ]

(* fuzz: the whole search in-process, with every population's
   evaluation timed; what remains is the search itself. *)
let fuzz ~seed ~generations ~pop ~duration =
  let params =
    {
      Abg_fuzz.Search.default_params with
      Abg_fuzz.Search.generations;
      pop;
      seed;
    }
  in
  let spec =
    {
      Abg_fuzz.Fitness.kind = Abg_fuzz.Fitness.Divergence;
      cca = "reno";
      cca_b = Some "cubic";
      handler = None;
    }
  in
  let config genome = Abg_fuzz.Genome.to_config ~duration ~seed genome in
  let sim =
    simulate
      (Array.to_list (Abg_fuzz.Search.initial_population params)
      |> List.concat_map (fun g -> [ ("reno", config g); ("cubic", config g) ]))
  in
  let evaluate_s = ref 0.0 in
  let result, run_s =
    timed (fun () ->
        Abg_fuzz.Search.run ~params ~evaluate:(fun ~gen:_ genomes ->
            let fitness, s =
              timed (fun () ->
                  Array.map
                    (fun g -> Abg_fuzz.Fitness.evaluate spec (config g))
                    genomes)
            in
            evaluate_s := !evaluate_s +. s;
            fitness))
  in
  sim
  @ [
      num "fuzz.run_s" run_s;
      num "fuzz.evaluate_s" !evaluate_s;
      num "fuzz.search_s" (run_s -. !evaluate_s);
      ( "champion",
        Jsonx.Str (Abg_fuzz.Genome.fingerprint result.Abg_fuzz.Search.champion)
      );
    ]

(* serve: reference preparation, then the generator's ingest stream
   (open and obs lines, then one classify per session) three ways:
   trace-line parsing alone, windowed classification alone, and the whole
   stream through the engine. *)
let serve ~window ~requests =
  let sim = simulate (ccanalyzer_refs ()) in
  let online, prepare_s =
    timed (fun () -> Abg_classifier.Online.create ~window ())
  in
  let lines =
    In_channel.with_open_bin requests In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  let streams = Hashtbl.create 1024 in
  let obs =
    List.filter_map
      (fun line ->
        match Abg_serve.Protocol.parse line with
        | Ok (Abg_serve.Protocol.Obs (sid, payload)) ->
            let stream =
              match Hashtbl.find_opt streams sid with
              | Some s -> s
              | None ->
                  let s = Abg_trace.Io.Stream.create () in
                  Hashtbl.replace streams sid s;
                  s
            in
            Some (stream, payload)
        | _ -> None)
      lines
    |> Array.of_list
  in
  let (), parse_s =
    timed (fun () ->
        Array.iter (fun (s, p) -> ignore (Abg_trace.Io.Stream.push s p)) obs)
  in
  (* Each session's last [window] records: what the daemon's ring holds
     when the ingest phase ends. *)
  let windows =
    Hashtbl.fold
      (fun _ stream acc ->
        let _, v =
          Abg_trace.Trace.observed_series (Abg_trace.Io.Stream.to_trace stream)
        in
        let len = Stdlib.min (Array.length v) window in
        Array.sub v (Array.length v - len) len :: acc)
      streams []
  in
  let (), classify_s =
    timed (fun () ->
        List.iter
          (fun w -> ignore (Abg_classifier.Online.classify_array online w))
          windows)
  in
  let engine =
    Abg_serve.Engine.create
      ~config:{ Abg_serve.Engine.default_config with Abg_serve.Engine.window }
      ()
  in
  Abg_serve.Engine.warm_up engine;
  let (), engine_s =
    timed (fun () ->
        List.iter
          (fun l -> ignore (Abg_serve.Engine.handle_line engine l))
          lines)
  in
  let per n total = if n = 0 then 0.0 else total /. float_of_int n in
  sim
  @ [
      num "classifier.online_prepare_s" prepare_s;
      num "trace.parse_ns_per_line" (per (Array.length obs) parse_s *. 1e9);
      num "classifier.online_classify_us"
        (per (List.length windows) classify_s *. 1e6);
      num "serve.engine_us" (per (List.length lines) engine_s *. 1e6);
    ]

let () =
  let fields =
    match List.tl (Array.to_list Sys.argv) with
    | [ "synth"; seed; scenarios; duration ] ->
        synth ~seed:(int_of_string seed)
          ~scenarios:(int_of_string scenarios)
          ~duration:(float_of_string duration)
    | [ "batch"; dir; seed; jitter; scenarios; duration; ccas ] ->
        batch ~dir ~seed:(int_of_string seed)
          ~jitter:(float_of_string jitter)
          ~scenarios:(int_of_string scenarios)
          ~duration:(float_of_string duration)
          ~ccas:(String.split_on_char ',' ccas)
    | [ "fuzz"; seed; generations; pop; duration ] ->
        fuzz ~seed:(int_of_string seed)
          ~generations:(int_of_string generations)
          ~pop:(int_of_string pop)
          ~duration:(float_of_string duration)
    | [ "serve"; window; requests ] ->
        serve ~window:(int_of_string window) ~requests
    | _ ->
        prerr_endline
          "usage: replay (synth SEED N D | batch DIR SEED JITTER N D CCAS | \
           fuzz SEED GENERATIONS POP D | serve WINDOW REQUEST_FILE)";
        exit 2
  in
  print_endline (Jsonx.to_string (Jsonx.Obj fields))
