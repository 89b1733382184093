(* Crash-safe batch runner. See runner.mli for the contract. *)

open Abg_util

type settings = {
  shard : (int * int) option;
  num_domains : int option;
  verbose : bool;
}

let default_settings = { shard = None; num_domains = None; verbose = false }

type status = Done | Quarantined of string

type completion = {
  job : Job.t;
  digest : string;
  status : status;
  result : string option;
}

type summary = {
  completions : completion list;
  skipped : int;
  counters : (string * int) list;
}

(* All batch counters are volatile: their totals depend on how a run was
   interrupted and resumed, not only on workload and seed, so they must
   stay out of the deterministic telemetry section the CI gate diffs. *)
let obs_ok = Abg_obs.Obs.Counter.make ~volatile:true "batch.jobs.ok"

let obs_quarantined =
  Abg_obs.Obs.Counter.make ~volatile:true "batch.jobs.quarantined"

let obs_attempts = Abg_obs.Obs.Counter.make ~volatile:true "batch.attempts"

let ( / ) = Filename.concat

let grid_path dir = dir / "grid.json"
let store_path dir = dir / "store"

(* Each shard journals into its own file, so coordinator workers sharing
   one directory never contend on one fd and shards run apart merge by
   copying; every reader merges the whole family. *)
let journal_path ?shard dir =
  match shard with
  | None -> dir / "journal.jsonl"
  | Some (i, n) -> dir / Printf.sprintf "journal.w%dof%d.jsonl" i n

let journal_paths ~dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
      Array.to_list names
      |> List.filter (fun n ->
             String.length n >= 7
             && String.sub n 0 7 = "journal"
             && Filename.check_suffix n ".jsonl")
      |> List.sort String.compare
      |> List.map (fun n -> dir / n)

let settled_entries dir =
  List.concat_map
    (fun path -> Json.naming path (fun () -> Journal.replay path))
    (journal_paths ~dir)

(* -- job bodies -- *)

let constructor_of cca =
  match Abg_cca.Registry.find cca with
  | Some ctor -> ctor
  | None -> failwith (Printf.sprintf "unknown CCA %s" cca)

let result_header kind cca =
  [
    ("schema", Json.Str "abagnale-result/1");
    ("kind", Json.Str kind);
    ("cca", Json.Str cca);
  ]

let perform_collect ~store (job : Job.t) =
  let ctor = constructor_of job.Job.cca in
  let traces =
    Abg_trace.Trace.collect_configs ~name:job.Job.cca ctor job.Job.configs
  in
  let rows =
    List.map2
      (fun cfg trace ->
        let blob = Store.put store (Abg_trace.Io.to_string trace) in
        Json.Obj
          [
            ("scenario", Json.Str trace.Abg_trace.Trace.scenario);
            ("config", Json.Str (Abg_netsim.Config.digest cfg));
            ("records", Json.Num (float_of_int (Abg_trace.Trace.length trace)));
            ("losses",
             Json.Num
               (float_of_int
                  (Array.length trace.Abg_trace.Trace.loss_times)));
            ("blob", Json.Str blob);
          ])
      job.Job.configs traces
  in
  Json.Obj (result_header "collect" job.Job.cca @ [ ("traces", Json.List rows) ])

let dsl_of_name name =
  match Abg_dsl.Catalog.find name with
  | Some d -> d
  | None -> failwith (Printf.sprintf "unknown DSL %s" name)

let synthesis_fields (outcome : Abg_core.Synthesis.outcome option) =
  match outcome with
  | None -> [ ("found", Json.Bool false) ]
  | Some o ->
      let r = o.Abg_core.Synthesis.refinement in
      [
        ("found", Json.Bool true);
        ("dsl", Json.Str o.Abg_core.Synthesis.dsl_name);
        ("handler", Json.Str o.Abg_core.Synthesis.pretty);
        (* Machine-readable handler: the pretty form is for humans, the
           codec form round-trips losslessly (fuzz counterexample runs
           feed it back into scenario evaluation). *)
        ("handler_code",
         Json.Str (Abg_fuzz.Codec.encode_num o.Abg_core.Synthesis.handler));
        ("distance", Json.hex o.Abg_core.Synthesis.distance);
        ("segments", Json.Num (float_of_int o.Abg_core.Synthesis.segments_used));
        ("sketches",
         Json.Num
           (float_of_int r.Abg_core.Refinement.total_sketches_scored));
        ("handlers",
         Json.Num
           (float_of_int r.Abg_core.Refinement.total_handlers_scored));
        ("prune_rate", Json.hex r.Abg_core.Refinement.prune_rate);
      ]

let perform_synth (job : Job.t) ~dsl =
  let ctor = constructor_of job.Job.cca in
  let dsl = Option.map dsl_of_name dsl in
  let outcome =
    Abg_core.Synthesis.run_configs
      ~config:{ Abg_core.Refinement.default_config with seed = job.Job.seed }
      ?dsl ~configs:job.Job.configs ~name:job.Job.cca ctor
  in
  Json.Obj (result_header "synth" job.Job.cca @ synthesis_fields outcome)

let perform_classify ~store (job : Job.t) =
  let ctor = constructor_of job.Job.cca in
  let traces =
    Abg_trace.Trace.collect_configs ~name:job.Job.cca ctor job.Job.configs
  in
  let vector =
    Abg_classifier.Features.to_vector (Abg_classifier.Features.extract traces)
  in
  let gordon = Abg_classifier.Gordon.classify_vector vector in
  let cc = Abg_classifier.Ccanalyzer.classify traces in
  let features_blob =
    Store.put store
      (String.concat "\n"
         (Array.to_list (Array.map (Printf.sprintf "%h") vector))
      ^ "\n")
  in
  let closest =
    List.filteri (fun i _ -> i < 5) cc.Abg_classifier.Ccanalyzer.closest
    |> List.map (fun (name, d) ->
           Json.List [ Json.Str name; Json.hex d ])
  in
  Json.Obj
    (result_header "classify" job.Job.cca
    @ [
        ("gordon",
         Json.Str (Abg_classifier.Gordon.verdict_to_string gordon));
        ("ccanalyzer",
         Json.Str
           (Abg_classifier.Gordon.verdict_to_string
              cc.Abg_classifier.Ccanalyzer.verdict));
        ("closest", Json.List closest);
        ("features", Json.Str features_blob);
      ])

let perform_noise (job : Job.t) ~stddev ~keep =
  let ctor = constructor_of job.Job.cca in
  let clean =
    Abg_trace.Trace.collect_configs ~name:job.Job.cca ctor job.Job.configs
  in
  (* One RNG threaded through the whole suite, in trace order: the noisy
     suite is a pure function of (clean suite, stddev, keep, seed). *)
  let rng = Abg_util.Rng.create job.Job.seed in
  let corrupt trace =
    Abg_trace.Noise.subsample rng ~keep
      (Abg_trace.Noise.observation_noise rng ~stddev trace)
  in
  let outcome =
    Abg_core.Synthesis.run
      ~config:{ Abg_core.Refinement.default_config with seed = job.Job.seed }
      ~name:job.Job.cca (List.map corrupt clean)
  in
  let clean_fields =
    match outcome with
    | None -> []
    | Some o ->
        [
          ("distance_clean",
           Json.hex
             (Abg_core.Abagnale.handler_distance
                ~handler:o.Abg_core.Synthesis.handler clean));
        ]
  in
  Json.Obj
    (result_header "noise" job.Job.cca
    @ [ ("stddev", Json.hex stddev); ("keep", Json.hex keep) ]
    @ synthesis_fields outcome
    @ clean_fields)

let perform_probe ~attempt (job : Job.t) ~fail_attempts ~sleep_ms =
  if sleep_ms > 0 then Unix.sleepf (float_of_int sleep_ms /. 1000.0);
  if attempt <= fail_attempts then failwith "probe: injected failure";
  (* A trivial deterministic payload so the blob exercises the store. *)
  let checksum =
    List.fold_left ( + ) (job.Job.seed * 31) (List.map Char.code
      (List.init (String.length job.Job.cca) (String.get job.Job.cca)))
  in
  Json.Obj
    (result_header "probe" job.Job.cca
    @ [ ("payload", Json.Str "ok"); ("checksum", Json.Num (float_of_int checksum)) ])

(* One fuzz generation: the job's configs are the decoded scenarios of
   the population's distinct genomes, scored in one map. An evaluation
   raises only on a spec error, which fails every genome alike, so the
   whole generation is the unit of quarantine. *)
let perform_fuzz_eval ~settings (job : Job.t) ~fitness ~cca_b ~handler =
  let kind =
    match Abg_fuzz.Fitness.kind_of_name fitness with
    | Some k -> k
    | None -> failwith (Printf.sprintf "unknown fuzz fitness %s" fitness)
  in
  let handler =
    Option.map
      (fun h ->
        match Abg_fuzz.Codec.decode_num h with
        | Some e -> e
        | None -> failwith (Printf.sprintf "undecodable fuzz handler %S" h))
      handler
  in
  let spec = { Abg_fuzz.Fitness.kind; cca = job.Job.cca; cca_b; handler } in
  (* A generation's fan-out: 1.6x fuzz evaluations/s on two CPUs. *)
  let values =
    Abg_parallel.Pool.map ?num_domains:settings.num_domains
      (Abg_fuzz.Fitness.evaluate spec)
      (Array.of_list job.Job.configs)
  in
  Json.Obj
    (result_header "fuzz" job.Job.cca
    @ [
        ("fitness", Json.Str fitness);
        ("values", Json.List (Array.to_list (Array.map Json.hex values)));
      ])

let perform ~settings ~store ~attempt (job : Job.t) =
  match job.Job.kind with
  | Job.Collect -> perform_collect ~store job
  | Job.Synthesize { dsl } -> perform_synth job ~dsl
  | Job.Classify -> perform_classify ~store job
  | Job.Noise { stddev; keep } -> perform_noise job ~stddev ~keep
  | Job.Probe { fail_attempts; sleep_ms } ->
      perform_probe ~attempt job ~fail_attempts ~sleep_ms
  | Job.Fuzz_eval { fitness; cca_b; handler } ->
      perform_fuzz_eval ~settings job ~fitness ~cca_b ~handler

(* -- execution -- *)

(* Pack fsync strictly before the journal line: see runner.mli. *)
let commit ~store ~journal entry =
  ignore (Store.flush_staged store);
  Journal.append journal entry

let log settings fmt =
  if settings.verbose then Printf.eprintf fmt else Printf.ifprintf stderr fmt

(* Run one job, once, to a terminal outcome: its result blob or a
   quarantine. A job is deterministic, so an error it raises would
   repeat on every re-run. Every exception is contained here — a
   poisoned job must not take down the dispatch loop. *)
let run_one ~settings ~store ~journal (digest, (job : Job.t)) =
  Abg_obs.Obs.span "batch/job" @@ fun () ->
  Abg_obs.Obs.Counter.incr obs_attempts;
  let entry =
    match perform ~settings ~store ~attempt:1 job with
    | doc ->
        let blob = Store.put store (Json.to_string doc) in
        {
          Journal.job = digest;
          status = Journal.Ok;
          result = Some blob;
          error = None;
        }
    | exception e ->
        {
          Journal.job = digest;
          status = Journal.Quarantined;
          result = None;
          error = Some (Printexc.to_string e);
        }
  in
  (* The durability gate: commit returns once the fsync covering this
     entry's journal line (and, before it, the pack fsync covering its
     blobs) has returned. Only then may the job be reported done —
     counters, logs, and the returned completion all sit after it. *)
  commit ~store ~journal entry;
  let status =
    match entry.Journal.error with
    | None ->
        Abg_obs.Obs.Counter.incr obs_ok;
        log settings "[batch] %s: ok\n%!" (Job.describe job);
        Done
    | Some err ->
        Abg_obs.Obs.Counter.incr obs_quarantined;
        log settings "[batch] %s: QUARANTINED: %s\n%!" (Job.describe job) err;
        Quarantined err
  in
  { job; digest; status; result = entry.Journal.result }

(* -- run directories -- *)

let init ~dir jobs =
  Durable.mkdir_p dir;
  let path = grid_path dir in
  if Sys.file_exists path then
    invalid_arg
      (Printf.sprintf
         "Runner.init: %s already contains a batch run; use resume" dir);
  ignore (Store.open_ (store_path dir));
  let doc =
    Json.Obj
      [
        ("schema", Json.Str "abagnale-grid/1");
        ("jobs", Json.List (List.map Job.to_json jobs));
      ]
  in
  (* Resume must never see a torn or empty job list. *)
  Durable.replace path (Json.to_string doc ^ "\n")

(* Hash each job once and sort on the digests: the same order as
   [List.sort Job.compare_canonical], which re-hashes both jobs on every
   comparison. The grid must be exactly what [init] writes: a foreign
   wrapper or a job listed twice would run jobs no writer meant. *)
let jobs_of_dir ~dir =
  let path = grid_path dir in
  Json.naming path (fun () ->
      let keyed =
        (match Json.of_file path with
        | Json.Obj [ ("schema", Json.Str "abagnale-grid/1"); ("jobs", Json.List l) ]
          ->
            l
        | _ -> raise (Json.Malformed "grid: not in canonical abagnale-grid/1 form"))
        |> List.map (fun j ->
               let job = Job.of_json j in
               (Job.digest job, job))
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      let rec check_once = function
        | (a, _) :: ((b, _) :: _ as rest) ->
            if String.equal a b then
              raise (Json.Malformed ("grid: job " ^ a ^ " appears twice"));
            check_once rest
        | _ -> ()
      in
      check_once keyed;
      keyed)

let shard_select ~i ~n xs =
  if n <= 0 || i < 0 || i >= n then
    invalid_arg (Printf.sprintf "Runner.shard_select: bad shard %d/%d" i n);
  List.filteri (fun idx _ -> idx mod n = i) xs

let execute ~dir ~settings =
  let keyed = jobs_of_dir ~dir in
  (* Resume skips anything settled by *any* journal in the family —
     including lines a crashed run persisted but never acknowledged:
     the flush ordering guarantees their blobs are durable, so
     re-running them would only append duplicate lines. *)
  let settled =
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun (e : Journal.entry) -> Hashtbl.replace tbl e.Journal.job ())
      (settled_entries dir);
    tbl
  in
  let store = Store.open_ ~deferred:true (store_path dir) in
  let mine =
    match settings.shard with
    | Some (i, n) -> shard_select ~i ~n keyed
    | None -> keyed
  in
  let pending =
    List.filter (fun (d, _) -> not (Hashtbl.mem settled d)) mine
  in
  let skipped = List.length mine - List.length pending in
  log settings "[batch] %d job(s) pending, %d already journaled\n%!"
    (List.length pending) skipped;
  let journal = Journal.open_ (journal_path ?shard:settings.shard dir) in
  let before = Abg_obs.Obs.snapshot () in
  let completions =
    Fun.protect
      ~finally:(fun () ->
        Journal.close journal;
        Store.close store)
      (fun () ->
        (* One at a time: two domains raised batch-collect RSS 42%. *)
        List.map (run_one ~settings ~store ~journal) pending)
  in
  let after = Abg_obs.Obs.snapshot () in
  {
    completions;
    skipped;
    counters = Abg_obs.Obs.delta_counters ~before ~after;
  }

let run ~dir ~settings jobs =
  init ~dir jobs;
  execute ~dir ~settings

let resume ~dir ~settings () = execute ~dir ~settings

(* -- offline maintenance -- *)

let result_doc ~dir store (e : Journal.entry) =
  let corrupt why =
    raise
      (Store.Corrupt
         (Printf.sprintf "%s: job %s: %s" (store_path dir) e.Journal.job why))
  in
  match e.Journal.result with
  | None -> corrupt "no result blob"
  | Some blob -> (
      match Json.parse (Store.get store blob) with
      | doc -> doc
      | exception Not_found -> corrupt ("result blob " ^ blob ^ " missing")
      | exception Json.Malformed msg ->
          corrupt ("result blob " ^ blob ^ ": " ^ msg))

(* Result documents reference blobs as bare digest strings ("blob",
   "features", ...); treating every such string as a reference is the
   conservative over-approximation that keeps GC safe as result schemas
   grow new fields. *)
let rec add_refs tbl = function
  | Json.Str s when Store.is_digest s -> Hashtbl.replace tbl s ()
  | Json.List l -> List.iter (add_refs tbl) l
  | Json.Obj fields -> List.iter (fun (_, v) -> add_refs tbl v) fields
  | _ -> ()

let gc ~dir =
  let store = Store.open_ (store_path dir) in
  let live = Hashtbl.create 256 in
  List.iter
    (fun (e : Journal.entry) ->
      if e.Journal.status = Journal.Ok then begin
        add_refs live (result_doc ~dir store e);
        Option.iter (fun blob -> Hashtbl.replace live blob ()) e.Journal.result
      end)
    (settled_entries dir);
  Store.gc store ~live:(Hashtbl.mem live)
