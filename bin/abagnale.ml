(* The abagnale command-line tool.

   Subcommands mirror the pipeline stages:
     collect   — simulate a CCA on the testbed grid and save traces
     classify  — run the Gordon / CCAnalyzer classifiers on saved traces
     synth     — reverse-engineer a cwnd-ack handler from traces
     distance  — score a handler expression against traces
     lint      — run the static-analysis diagnostics over handlers
     simplify  — sound (relational-oracle) simplification + validation
     batch     — crash-safe grid orchestration (run/resume/status/report)
     serve     — long-lived online classifier daemon (line protocol)
     stream    — client for serve: stream trace files, print verdicts
     telemetry — inspect / diff machine-readable telemetry reports
     list      — show the available CCAs and sub-DSLs

   Every pipeline subcommand accepts --telemetry FILE: on completion the
   process's telemetry snapshot (lib/obs) is serialized there as JSON.
   The "counters" section of that document is deterministic for a fixed
   seed — `abagnale telemetry diff` compares it against a baseline, which
   is what the CI telemetry gate runs. ABAGNALE_TELEMETRY=0 disables all
   telemetry recording (the reports then contain only zeros). *)

open Cmdliner
open Abg_util

(* Every user-facing failure: one stderr line, exit 1. *)
let die fmt =
  Printf.kfprintf
    (fun oc ->
      output_char oc '\n';
      exit 1)
    stderr fmt

(* A batch run that completes but reports its outcome in the exit status
   (2: jobs quarantined, 1: a worker failed) raises this rather than
   exiting, so its --telemetry report is still written. *)
exception Exit_status of int

let find_cca name =
  match Abg_cca.Registry.find name with
  | Some ctor -> ctor
  | None -> die "unknown CCA %s; try `abagnale list'" name

let find_dsl name =
  match Abg_dsl.Catalog.find name with
  | Some dsl -> dsl
  | None -> die "unknown DSL %s" name

(* A corrupt trace file is an input error, not a crash: name the file
   and the parser's reason (which carries the line number). *)
let load_traces paths =
  List.map
    (fun path ->
      try Abg_trace.Io.load path
      with Invalid_argument msg | Failure msg | Sys_error msg ->
        if String.starts_with ~prefix:path msg then die "%s" msg
        else die "%s: %s" path msg)
    paths

(* -- shared arguments -- *)

(* A duration or time limit is a finite number of seconds above 0 (a
   nan or inf duration simulated forever, 0 wrote empty traces) and a
   count at least 1 (-n 0 would still collect one scenario). fuzz.json
   is held to the same bounds on read. *)
let seconds_bound = "a finite number of seconds above 0"
let count_bound = "a count of at least 1"
let valid_seconds x = Float.is_finite x && x > 0.0
let valid_count n = n >= 1

let bounded_conv parse valid bound print =
  let parse s =
    match parse s with
    | Some v when valid v -> Ok v
    | _ -> Error (`Msg (Printf.sprintf "%S is not %s" s bound))
  in
  Arg.conv (parse, print)

let seconds_conv =
  bounded_conv float_of_string_opt valid_seconds seconds_bound (fun ppf ->
      Format.fprintf ppf "%g")

(* An ack jitter may be 0, but an inf jitter collects empty traces. *)
let nonneg_conv =
  bounded_conv float_of_string_opt
    (fun x -> Float.is_finite x && x >= 0.0)
    "a finite number of seconds at or above 0"
    (fun ppf -> Format.fprintf ppf "%g")

let count_conv =
  bounded_conv int_of_string_opt valid_count count_bound Format.pp_print_int

let at_least_conv lo =
  bounded_conv int_of_string_opt (fun n -> n >= lo)
    (Printf.sprintf "an integer of at least %d" lo) Format.pp_print_int

let port_conv =
  bounded_conv int_of_string_opt (fun n -> n >= 1 && n <= 65535)
    "a TCP port from 1 to 65535" Format.pp_print_int

let cca_arg =
  let doc = "Ground-truth CCA name (see `abagnale list')." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"CCA" ~doc)

let trace_files_arg =
  let doc = "Trace files produced by `abagnale collect'." in
  Arg.(non_empty & pos_all file [] & info [] ~docv:"TRACE" ~doc)

let scenarios_arg =
  let doc = "Number of testbed scenarios (RTT x bandwidth grid points)." in
  Arg.(value & opt count_conv 4 & info [ "n"; "scenarios" ] ~doc)

let duration_arg =
  let doc = "Seconds of simulated flow per scenario." in
  Arg.(value & opt seconds_conv 20.0 & info [ "d"; "duration" ] ~doc)

let dsl_arg =
  let doc =
    "Sub-DSL to search (reno, cubic, delay, vegas, delay-7, delay-11, \
     vegas-11). Default: pick from the classifier hint."
  in
  Arg.(value & opt (some string) None & info [ "dsl" ] ~doc)

let output_dir_arg =
  let doc = "Directory for the collected trace files." in
  Arg.(value & opt string "traces" & info [ "o"; "output" ] ~doc)

let verbose_arg doc = Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

(* `batch run|resume' and `fuzz run|resume|report': there the flag
   reaches only the batch runner. *)
let batch_verbose_arg =
  verbose_arg
    "Print one $(b,[batch]) line per job to stderr, after the pending-job \
     count; $(b,batch) also prints the run's telemetry counter deltas on \
     stdout."

let telemetry_arg =
  let doc =
    "Write the process's telemetry snapshot (counters, gauges, span \
     timings) to $(docv) as JSON when the command completes."
  in
  Arg.(value & opt (some string) None & info [ "telemetry" ] ~docv:"FILE" ~doc)

(* A subcommand whose term yields its body. With [~telemetry] it also
   takes --telemetry FILE and flushes the report once the body returns
   or raises [Exit_status]; an early [exit] skips the report — a
   truncated run has no meaningful counters to gate on. *)
let command ?(telemetry = false) name ~doc body =
  let run path body =
    let status = try body (); 0 with Exit_status n -> n in
    Option.iter Abg_obs.Report.write path;
    if status <> 0 then exit status
  in
  let path = if telemetry then telemetry_arg else Term.const None in
  Cmd.v (Cmd.info name ~doc) Term.(const run $ path $ body)

(* -- collect -- *)

let collect cca_name scenarios duration output_dir () =
  let ctor = find_cca cca_name in
  if not (Sys.file_exists output_dir) then Sys.mkdir output_dir 0o755;
  let traces =
    Abg_trace.Trace.collect_suite ~duration ~n:scenarios ~name:cca_name ctor
  in
  List.iteri
    (fun i trace ->
      let path =
        Filename.concat output_dir (Printf.sprintf "%s-%d.trace" cca_name i)
      in
      Abg_trace.Io.save path trace;
      Printf.printf "%s: %d records, %d losses (%s)\n" path
        (Abg_trace.Trace.length trace)
        (Array.length trace.Abg_trace.Trace.loss_times)
        trace.Abg_trace.Trace.scenario)
    traces

let collect_cmd =
  command ~telemetry:true "collect"
    ~doc:"Simulate a CCA on the testbed grid and save its traces"
    Term.(const collect $ cca_arg $ scenarios_arg $ duration_arg $ output_dir_arg)

(* -- classify -- *)

let classify trace_files () =
  let traces = load_traces trace_files in
  let verdict = Abg_classifier.Gordon.classify traces in
  Printf.printf "gordon: %s\n" (Abg_classifier.Gordon.verdict_to_string verdict);
  let result = Abg_classifier.Ccanalyzer.classify traces in
  Printf.printf "ccanalyzer: %s\n"
    (Abg_classifier.Gordon.verdict_to_string result.Abg_classifier.Ccanalyzer.verdict);
  Printf.printf "closest known CCAs:\n";
  List.iteri
    (fun i (name, d) ->
      if i < 5 then Printf.printf "  %-10s %8.2f\n" name d)
    result.Abg_classifier.Ccanalyzer.closest;
  let dsl = Abg_classifier.Dsl_hint.choose verdict in
  Printf.printf "suggested sub-DSL: %s\n" dsl.Abg_dsl.Catalog.name

let classify_cmd =
  command ~telemetry:true "classify" ~doc:"Classify the CCA behind saved traces"
    Term.(const classify $ trace_files_arg)

(* -- synth -- *)

let seed_arg =
  let doc =
    "Refinement RNG seed. For a fixed seed and workload the deterministic \
     telemetry counters are bit-stable across runs."
  in
  Arg.(
    value
    & opt int Abg_core.Refinement.default_config.Abg_core.Refinement.seed
    & info [ "seed" ] ~doc)

let synth_cca_arg =
  let doc =
    "Collect the trace suite in-process from this ground-truth CCA (on the \
     -n/-d testbed grid) instead of reading TRACE files."
  in
  Arg.(value & opt (some string) None & info [ "cca" ] ~docv:"CCA" ~doc)

let synth_traces_arg =
  let doc = "Trace files produced by `abagnale collect' (or use --cca)." in
  Arg.(value & pos_all file [] & info [] ~docv:"TRACE" ~doc)

(* The prune and simulation summary is read from ONE telemetry snapshot —
   the same counters the refinement loop and the simulator rode on. *)
let print_synth_summary (outcome : Abg_core.Synthesis.outcome) =
  Printf.printf "cca:       %s\n" outcome.Abg_core.Synthesis.cca_name;
  Printf.printf "dsl:       %s\n" outcome.Abg_core.Synthesis.dsl_name;
  Printf.printf "handler:   %s\n" outcome.Abg_core.Synthesis.pretty;
  Printf.printf "distance:  %.2f over %d segments\n"
    outcome.Abg_core.Synthesis.distance
    outcome.Abg_core.Synthesis.segments_used;
  let r = outcome.Abg_core.Synthesis.refinement in
  Printf.printf "search:    %d sketches, %d handlers scored, %d buckets\n"
    r.Abg_core.Refinement.total_sketches_scored
    r.Abg_core.Refinement.total_handlers_scored
    r.Abg_core.Refinement.buckets_initial;
  let snap = Abg_obs.Obs.snapshot () in
  let c name = Abg_obs.Report.find_counter snap name in
  let prefix = "enum.pruned." in
  let pruned =
    List.filter_map
      (fun (name, n) ->
        if String.starts_with ~prefix name then
          Some
            ( String.sub name (String.length prefix)
                (String.length name - String.length prefix),
              n )
        else None)
      snap.Abg_obs.Obs.counters
  in
  let total_pruned = List.fold_left (fun acc (_, n) -> acc + n) 0 pruned in
  let enumerated = total_pruned + c "enum.returned" in
  Printf.printf "pruned:    %s (%.1f%% of %d enumerated sketches)\n"
    (String.concat ", "
       (List.map (fun (reason, n) -> Printf.sprintf "%s %d" reason n) pruned))
    (if enumerated = 0 then 0.0
     else 100.0 *. float_of_int total_pruned /. float_of_int enumerated)
    enumerated;
  Printf.printf "cache:     %d simulations, %d sim events\n" (c "sim.runs")
    (c "sim.events");
  let st = r.Abg_core.Refinement.solver in
  Printf.printf
    "solver:    %d conflicts, %d propagations, %d learnts (%d live), %d DB \
     reductions\n"
    st.Abg_sat.Solver.conflicts st.Abg_sat.Solver.propagations
    st.Abg_sat.Solver.learnts_total st.Abg_sat.Solver.learnts_live
    st.Abg_sat.Solver.db_reductions

let synth dsl_name verbose seed cca scenarios duration trace_files () =
  let dsl = Option.map find_dsl dsl_name in
  let config =
    {
      Abg_core.Refinement.default_config with
      Abg_core.Refinement.verbose;
      seed;
    }
  in
  let outcome =
    match (cca, trace_files) with
    | Some _, _ :: _ -> die "give trace files or --cca, not both"
    | None, [] ->
        die "give trace files or --cca (see `abagnale collect' / `abagnale list')"
    | Some cca_name, [] ->
        Abg_core.Synthesis.collect_and_run ~config ?dsl ~scenarios ~duration
          ~name:cca_name (find_cca cca_name)
    | None, files ->
        let traces = load_traces files in
        let name =
          match traces with
          | t :: _ -> t.Abg_trace.Trace.cca_name
          | [] -> "unknown"
        in
        Abg_core.Abagnale.synthesize ~config ?dsl ~name traces
  in
  match outcome with
  | None -> die "no candidate handler survived scoring"
  | Some outcome -> print_synth_summary outcome

let synth_cmd =
  command ~telemetry:true "synth"
    ~doc:"Reverse-engineer a cwnd-ack handler expression from traces"
    Term.(
      const synth $ dsl_arg
      $ verbose_arg "Print refinement-loop progress to stderr."
      $ seed_arg $ synth_cca_arg $ scenarios_arg $ duration_arg
      $ synth_traces_arg)

(* -- distance -- *)

let handler_arg =
  let doc =
    "Handler to score: a name from Table 2 (e.g. reno, bbr) referring to \
     the paper's fine-tuned expression."
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"HANDLER" ~doc)

let distance_files_arg =
  let doc = "Trace files to score against." in
  Arg.(non_empty & pos_right 0 file [] & info [] ~docv:"TRACE" ~doc)

let distance handler_name trace_files () =
  match Abg_core.Fine_tuned.find_fine_tuned handler_name with
  | None -> die "no fine-tuned handler named %s" handler_name
  | Some handler ->
      let traces = load_traces trace_files in
      Printf.printf "handler:  %s\n" (Abg_dsl.Pretty.num handler);
      Printf.printf "distance: %.2f\n"
        (Abg_core.Abagnale.handler_distance ~handler traces)

let distance_cmd =
  command ~telemetry:true "distance"
    ~doc:"Score a known handler expression against traces"
    Term.(const distance $ handler_arg $ distance_files_arg)

(* -- lint -- *)

let lint_names_arg =
  let doc =
    "Handlers to lint: Table-2 names (e.g. reno, student6), `catalog' for \
     every Table-2 handler, or `showcase' for the built-in rule \
     demonstrations. Default: catalog plus showcase."
  in
  Arg.(value & pos_all string [] & info [] ~docv:"HANDLER" ~doc)

let strict_arg =
  let doc = "Exit non-zero if any error-severity diagnostic is produced." in
  Arg.(value & flag & info [ "strict" ] ~doc)

let lint_format_arg =
  let doc =
    "Output format: `text' (human-readable, default) or `json' (a stable \
     machine-readable document — rule id, severity, span, message, \
     interval witness — suitable for diffing against a committed \
     expectation file in CI)."
  in
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
    & info [ "format" ] ~docv:"FORMAT" ~doc)

(* Shared handler-name resolution for lint and simplify. *)
let resolve_handlers names =
  let showcase =
    List.map (fun (n, e) -> ("showcase/" ^ n, e)) Abg_analysis.Lint.showcase
  in
  let catalog =
    List.map
      (fun (n, e) -> ("synthesized/" ^ n, e))
      Abg_core.Fine_tuned.synthesized
    @ List.map
        (fun (n, e) -> ("fine-tuned/" ^ n, e))
        Abg_core.Fine_tuned.fine_tuned
  in
  match names with
  | [] -> catalog @ showcase
  | names ->
      List.concat_map
        (fun name ->
          if name = "showcase" then showcase
          else if name = "catalog" then catalog
          else begin
            let found =
              List.filter
                (fun (n, _) ->
                  n = name
                  || n = "synthesized/" ^ name
                  || n = "fine-tuned/" ^ name)
                catalog
            in
            if found = [] then die "no handler named %s; try `abagnale list'" name;
            found
          end)
        names

let lint strict format names () =
  let targets = resolve_handlers names in
  let errors = ref 0 and warnings = ref 0 in
  let linted = List.map (fun (name, handler) ->
      let diags = Abg_analysis.Lint.check handler in
      List.iter
        (fun d ->
          match d.Abg_analysis.Lint.severity with
          | Abg_analysis.Lint.Error -> incr errors
          | Abg_analysis.Lint.Warning -> incr warnings
          | Abg_analysis.Lint.Info -> ())
        diags;
      (name, handler, diags))
      targets
  in
  (match format with
  | `Text ->
      List.iter
        (fun (name, handler, diags) ->
          match diags with
          | [] -> ()
          | diags ->
              Printf.printf "%s: %s\n" name (Abg_dsl.Pretty.num handler);
              List.iter
                (fun d ->
                  Printf.printf "  %s\n"
                    (Fmt.str "%a" Abg_analysis.Lint.pp_diag d))
                diags)
        linted;
      Printf.printf "%d handler(s) linted: %d error(s), %d warning(s)\n"
        (List.length targets) !errors !warnings
  | `Json ->
      (* The line layout is lint's own (CI diffs it byte for byte); every
         string and number in it comes from the codec. *)
      let str v = Json.to_string (Json.Str v) in
      let num v = Json.to_string (Json.Num v) in
      let witness = function
        | None -> "null"
        | Some (w : Abg_util.Interval.t) ->
            Printf.sprintf "{\"lo\": %s, \"hi\": %s, \"nan\": %b}"
              (num w.Abg_util.Interval.lo) (num w.Abg_util.Interval.hi)
              w.Abg_util.Interval.nan
      in
      let diag_json (d : Abg_analysis.Lint.diag) =
        Printf.sprintf
          "      {\"rule\": %s, \"severity\": %s, \"span\": %s, \"message\": \
           %s, \"witness\": %s}"
          (str d.Abg_analysis.Lint.rule)
          (str (Abg_analysis.Lint.severity_name d.Abg_analysis.Lint.severity))
          (str (Abg_dsl.Pretty.num d.Abg_analysis.Lint.expr))
          (str d.Abg_analysis.Lint.message)
          (witness d.Abg_analysis.Lint.witness)
      in
      let handler_json (name, handler, diags) =
        Printf.sprintf "  {\"handler\": %s, \"expr\": %s, \"diagnostics\": [%s]}"
          (str name)
          (str (Abg_dsl.Pretty.num handler))
          (match diags with
          | [] -> ""
          | diags ->
              "\n"
              ^ String.concat ",\n" (List.map diag_json diags)
              ^ "\n    ")
      in
      Printf.printf "[\n%s\n]\n"
        (String.concat ",\n" (List.map handler_json linted)));
  if strict && !errors > 0 then exit 1

let lint_cmd =
  command ~telemetry:true "lint"
    ~doc:
      "Run the static-analysis diagnostics over handler expressions (rule \
       id, expression, reason, interval witness), including the relational \
       rules (vacuous-guard, guard-implied, branch-equivalent)"
    Term.(const lint $ strict_arg $ lint_format_arg $ lint_names_arg)

(* -- simplify -- *)

let simplify_validate_arg =
  let doc =
    "Translation validation: run every target handler through the sound \
     (relational-oracle) simplifier and check the rewrite with \
     Equiv.validate_rewrite — a structural/SAT proof where possible, \
     tolerance-checked differential sampling otherwise. Exit non-zero \
     on any validation failure."
  in
  Arg.(value & flag & info [ "validate" ] ~doc)

let simplify_cmd_fn validate names () =
  let targets = resolve_handlers names in
  let rel = Abg_analysis.Relint.default () in
  let failures = ref 0 in
  List.iter
    (fun (name, handler) ->
      let rewritten = Abg_analysis.Relint.simplify rel handler in
      if validate then begin
        match
          Abg_analysis.Equiv.validate_rewrite rel ~original:handler
            ~rewritten
        with
        | Ok `Proved ->
            Printf.printf "%s: ok (proved)  %s ~> %s\n" name
              (Abg_dsl.Pretty.num handler)
              (Abg_dsl.Pretty.num rewritten)
        | Ok (`Sampled n) ->
            Printf.printf "%s: ok (%d samples)  %s ~> %s\n" name n
              (Abg_dsl.Pretty.num handler)
              (Abg_dsl.Pretty.num rewritten)
        | Error env ->
            incr failures;
            Printf.printf
              "%s: FAILED  %s ~> %s disagree at cwnd=%g rtt=%g min-rtt=%g \
               acked=%g\n"
              name
              (Abg_dsl.Pretty.num handler)
              (Abg_dsl.Pretty.num rewritten)
              env.Abg_dsl.Env.cwnd env.Abg_dsl.Env.rtt
              env.Abg_dsl.Env.min_rtt env.Abg_dsl.Env.acked_bytes
      end
      else
        Printf.printf "%s: %s ~> %s\n" name
          (Abg_dsl.Pretty.num handler)
          (Abg_dsl.Pretty.num rewritten))
    targets;
  if validate then
    Printf.printf "%d handler(s) validated, %d failure(s)\n"
      (List.length targets) !failures;
  if !failures > 0 then exit 1

let simplify_cmd =
  command ~telemetry:true "simplify"
    ~doc:
      "Simplify handler expressions under the sound relational oracle (each \
       cancellation's side condition proven on the signal zone), optionally \
       with per-rewrite translation validation (--validate)"
    Term.(const simplify_cmd_fn $ simplify_validate_arg $ lint_names_arg)

(* -- telemetry -- *)

let telemetry_diff baseline_path current_path () =
  let read path = In_channel.with_open_bin path In_channel.input_all in
  let baseline = read baseline_path and current = read current_path in
  match Abg_obs.Report.diff_counters ~baseline ~current with
  | exception Json.Malformed msg -> die "telemetry diff: %s" msg
  | [] ->
      let n =
        List.length (Abg_obs.Report.counters_of_json (Json.parse current))
      in
      Printf.printf "counters agree (%d counters)\n" n
  | drifts ->
      List.iter
        (fun d -> Printf.printf "%s\n" (Abg_obs.Report.pp_drift d))
        drifts;
      die "telemetry diff: %d counter(s) drifted from baseline"
        (List.length drifts)

let telemetry_diff_cmd =
  let baseline_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"BASELINE" ~doc:"Baseline telemetry report (JSON).")
  in
  let current_arg =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"CURRENT" ~doc:"Telemetry report to check (JSON).")
  in
  command "diff"
    ~doc:
      "Compare the deterministic counter sections of two telemetry reports; \
       exit 1 on any drift (the CI telemetry gate)"
    Term.(const telemetry_diff $ baseline_arg $ current_arg)

let telemetry_show path () =
  match Abg_obs.Report.counters_of_json (Json.of_file path) with
  | exception Json.Malformed msg -> die "telemetry show: %s" msg
  | counters ->
      List.iter (fun (name, n) -> Printf.printf "%-40s %d\n" name n) counters

let telemetry_show_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"REPORT" ~doc:"Telemetry report (JSON).")
  in
  command "show" ~doc:"Print the deterministic counters of a report"
    Term.(const telemetry_show $ file_arg)

let telemetry_cmd =
  Cmd.group
    (Cmd.info "telemetry"
       ~doc:"Inspect and diff machine-readable telemetry reports")
    [ telemetry_diff_cmd; telemetry_show_cmd ]

(* -- batch -- *)

let batch_dir_arg =
  let doc = "Batch run directory (grid, journal, artifact store)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR" ~doc)

let kinds_arg =
  let doc =
    "Comma-separated job kinds: collect, synth, synth:DSL, classify, \
     noise:STDDEV:KEEP, probe:FAILS:SLEEP_MS."
  in
  Arg.(
    value
    & opt (list string) [ "collect"; "synth"; "classify" ]
    & info [ "kinds" ] ~docv:"KINDS" ~doc)

let ccas_arg =
  let doc = "Comma-separated ground-truth CCAs (see `abagnale list')." in
  Arg.(
    value
    & opt (list string) [ "reno"; "cubic" ]
    & info [ "ccas" ] ~docv:"CCAS" ~doc)

(* cmdliner takes any unambiguous prefix of a long option, so --seed is
   refused by name: read as --seeds, a `--seed N' meant as a refinement
   seed would quietly choose the job seeds. *)
let seeds_arg =
  let doc =
    "Comma-separated job seeds (one job per seed): the only seeds of a \
     batch run, each synthesis job refining under its own."
  in
  let seeds =
    Arg.(value & opt (list int) [ 42 ] & info [ "seeds" ] ~docv:"SEEDS" ~doc)
  in
  let refuse _ = Error (`Msg "batch jobs take their seeds from --seeds") in
  let seed =
    Arg.(
      value
      & opt (some (conv (refuse, fun _ () -> ()))) None
      & info [ "seed" ] ~docs:Manpage.s_none)
  in
  Term.(const (fun seeds (_ : unit option) -> seeds) $ seeds $ seed)

let ack_jitter_arg =
  let doc = "Ack-interarrival jitter stddev for the testbed grid." in
  Arg.(value & opt nonneg_conv 0.001 & info [ "ack-jitter" ] ~doc)

let shard_conv =
  let parse s =
    match String.split_on_char '/' s with
    | [ i; n ] -> (
        match (int_of_string_opt i, int_of_string_opt n) with
        | Some i, Some n when n > 0 && i >= 0 && i < n -> Ok (i, n)
        | _ -> Error (`Msg (Printf.sprintf "bad shard %S (want I/N, 0 <= I < N)" s)))
    | _ -> Error (`Msg (Printf.sprintf "bad shard %S (want I/N)" s))
  in
  let print ppf (i, n) = Format.fprintf ppf "%d/%d" i n in
  Arg.conv (parse, print)

let shard_arg =
  let doc =
    "Run only shard $(docv) of the canonical job order (index modulo N); \
     shards are disjoint and their union is the full grid."
  in
  Arg.(value & opt (some shard_conv) None & info [ "shard" ] ~docv:"I/N" ~doc)

let workers_arg =
  let doc =
    "Spawn $(docv) supervised worker processes, each running one slice of \
     the grid into its own journal, and merge their progress into one \
     report. A worker killed mid-run is resumed, not failed."
  in
  Arg.(value & opt (some count_conv) None & info [ "workers" ] ~docv:"N" ~doc)

let domains_arg =
  let doc =
    "Domains, the calling one included, that evaluate a generation's \
     scenarios (default: the machine's recommended domain count)."
  in
  Arg.(value & opt (some count_conv) None & info [ "domains" ] ~docv:"N" ~doc)

(* The run-control flags of `batch run|resume'; the job seeds are
   --seeds, part of the grid. *)
let run_settings =
  let make shard verbose =
    { Abg_batch.Runner.default_settings with shard; verbose }
  in
  Term.(const make $ shard_arg $ batch_verbose_arg)

(* Re-invoke this binary as `batch resume DIR --shard i/n`, forwarding
   --verbose. Respawn-on-kill is sound because resume is: a respawned
   worker skips everything its journal settled. *)
let run_workers ~dir ~workers (s : Abg_batch.Runner.settings) =
  let base =
    [ "batch"; "resume"; dir ] @ if s.verbose then [ "--verbose" ] else []
  in
  let argv i =
    Array.of_list
      ((Sys.executable_name :: base)
      @ [ "--shard"; Printf.sprintf "%d/%d" i workers ])
  in
  let outcome = Abg_batch.Coordinator.supervise ~argv ~workers () in
  List.iter
    (fun (w, why) -> Printf.eprintf "worker %d failed: %s\n" w why)
    outcome.Abg_batch.Coordinator.failed;
  if outcome.Abg_batch.Coordinator.respawns > 0 then
    Printf.printf "workers: %d respawn(s)\n"
      outcome.Abg_batch.Coordinator.respawns;
  print_string (Abg_batch.Report.status dir);
  if outcome.Abg_batch.Coordinator.failed <> [] then raise (Exit_status 1);
  if outcome.Abg_batch.Coordinator.quarantined then raise (Exit_status 2)

let print_batch_summary verbose (summary : Abg_batch.Runner.summary) =
  let ok, quarantined =
    List.partition
      (fun (c : Abg_batch.Runner.completion) ->
        match c.Abg_batch.Runner.status with
        | Abg_batch.Runner.Done -> true
        | Abg_batch.Runner.Quarantined _ -> false)
      summary.Abg_batch.Runner.completions
  in
  Printf.printf "completed %d job(s): %d ok, %d quarantined"
    (List.length summary.Abg_batch.Runner.completions)
    (List.length ok) (List.length quarantined);
  if summary.Abg_batch.Runner.skipped > 0 then
    Printf.printf "; %d already journaled" summary.Abg_batch.Runner.skipped;
  print_newline ();
  List.iter
    (fun (c : Abg_batch.Runner.completion) ->
      match c.Abg_batch.Runner.status with
      | Abg_batch.Runner.Quarantined err ->
          Printf.printf "  QUARANTINED %s: %s\n"
            (Abg_batch.Job.describe c.Abg_batch.Runner.job)
            err
      | Abg_batch.Runner.Done -> ())
    summary.Abg_batch.Runner.completions;
  if verbose then
    List.iter
      (fun (name, n) -> Printf.printf "  %-40s +%d\n" name n)
      summary.Abg_batch.Runner.counters;
  if quarantined <> [] then raise (Exit_status 2)

let batch_run dir kinds ccas scenarios duration ack_jitter seeds settings
    workers () =
  let grid = Abg_batch.Runner.grid_path dir in
  if Sys.file_exists grid then
    die "%s already exists; use `batch resume %s'" grid dir;
  let kinds =
    List.map
      (fun token ->
        match Abg_batch.Job.kind_of_token token with
        | Ok kind -> kind
        | Error msg -> die "%s" msg)
      kinds
  in
  List.iter (fun cca -> ignore (find_cca cca : Abg_cca.Cca_sig.constructor)) ccas;
  let jobs =
    Abg_batch.Job.expand
      { Abg_batch.Job.kinds; ccas; scenarios; duration; ack_jitter; seeds }
  in
  Printf.printf "grid: %d job(s) -> %s\n" (List.length jobs) dir;
  match workers with
  | Some workers ->
      (* Coordinator mode: persist the grid, then fan execution out to
         supervised child processes. *)
      if settings.Abg_batch.Runner.shard <> None then
        die "--workers and --shard are exclusive";
      Abg_batch.Runner.init ~dir jobs;
      run_workers ~dir ~workers settings
  | None ->
      print_batch_summary settings.Abg_batch.Runner.verbose
        (Abg_batch.Runner.run ~dir ~settings jobs)

let batch_run_cmd =
  command ~telemetry:true "run"
    ~doc:
      "Expand an experiment grid (kinds x ccas x seeds over the testbed \
       scenarios) into a run directory and execute it, in-process or across \
       supervised --workers"
    Term.(
      const batch_run $ batch_dir_arg $ kinds_arg $ ccas_arg $ scenarios_arg
      $ duration_arg $ ack_jitter_arg $ seeds_arg $ run_settings
      $ workers_arg)

(* A missing or corrupt run directory, or a failed fuzz generation, is
   an input error, not a crash: each of these messages names the file
   or directory and the reason. *)
let on_run_dir f =
  try f () with
  | Sys_error msg
  | Json.Malformed msg
  | Abg_batch.Store.Corrupt msg
  | Abg_batch.Fuzz_batch.Failed msg ->
      die "%s" msg

let batch_resume dir settings workers () =
  on_run_dir @@ fun () ->
  match workers with
  | Some workers ->
      if settings.Abg_batch.Runner.shard <> None then
        die "--workers and --shard are exclusive";
      run_workers ~dir ~workers settings
  | None ->
      print_batch_summary settings.verbose
        (Abg_batch.Runner.resume ~dir ~settings ())

let batch_resume_cmd =
  command ~telemetry:true "resume"
    ~doc:
      "Replay a run directory's journals and execute every job without a \
       terminal record (crash recovery; idempotent)"
    Term.(const batch_resume $ batch_dir_arg $ run_settings $ workers_arg)

let batch_status dir () =
  on_run_dir (fun () -> print_string (Abg_batch.Report.status dir))

let batch_status_cmd =
  command "status" ~doc:"Summarize a run directory's progress"
    Term.(const batch_status $ batch_dir_arg)

let batch_report dir () =
  on_run_dir (fun () -> print_string (Abg_batch.Report.render dir))

let batch_report_cmd =
  command "report"
    ~doc:
      "Render the deterministic Table-2-style report of a run directory (a \
       pure function of its grid, journals, and store)"
    Term.(const batch_report $ batch_dir_arg)

let batch_gc dir () =
  on_run_dir @@ fun () ->
  let stats = Abg_batch.Runner.gc ~dir in
  Printf.printf
    "gc: %d live blob(s) kept, %d swept, %d pack(s) folded into gc.pack\n"
    stats.Abg_batch.Store.kept stats.Abg_batch.Store.swept
    stats.Abg_batch.Store.packs_folded

let batch_gc_cmd =
  command "gc"
    ~doc:
      "Offline store maintenance: verify every live blob and rewrite them into \
       one pack, dropping blobs no journal references (must not run \
       concurrently with an executing run)"
    Term.(const batch_gc $ batch_dir_arg)

let batch_cmd =
  Cmd.group
    (Cmd.info "batch"
       ~doc:
         "Crash-safe batch experiment orchestration: expand a grid, run it \
          with quarantine, resume after a kill, shard across \
          supervised worker processes, garbage-collect, and report")
    [
      batch_run_cmd;
      batch_resume_cmd;
      batch_status_cmd;
      batch_report_cmd;
      batch_gc_cmd;
    ]

(* -- fingerprint -- *)

(* Exhaustively enumerate a sub-DSL's viable sketch space and digest the
   *set* of canonical sketches (sorted, so enumeration order — and hence
   the symmetry-breaking encoding, the solver's heuristics, or the seed
   formula — cannot move it). CI pins the output in
   ci/sketch-fingerprint.txt: any encoding change that grows, shrinks or
   shifts the enumerable space fails the gate, while pure search-order
   or performance changes pass. *)
let fingerprint dsl_name cap () =
  let dsl = find_dsl dsl_name in
  let enc = Abg_enum.Encode.create dsl in
  let rec go acc n =
    if n >= cap then
      die "fingerprint: cap of %d sketches reached before exhaustion; raise --cap"
        cap
    else
      match Abg_enum.Encode.next enc with
      | Some sk -> go (Abg_dsl.Pretty.to_string sk :: acc) (n + 1)
      | None -> acc
  in
  let sketches = List.sort String.compare (go [] 0) in
  let digest = Digest.to_hex (Digest.string (String.concat "\n" sketches)) in
  Printf.printf "%s %d %s\n" dsl.Abg_dsl.Catalog.name (List.length sketches)
    digest

let fingerprint_dsl_arg =
  let doc = "Sub-DSL whose sketch space to fingerprint." in
  Arg.(value & pos 0 string "reno" & info [] ~docv:"DSL" ~doc)

let fingerprint_cap_arg =
  let doc = "Abort if exhaustion needs more than this many sketches." in
  Arg.(value & opt count_conv 100_000 & info [ "cap" ] ~doc)

let fingerprint_cmd =
  command "fingerprint"
    ~doc:
      "Exhaustively enumerate a sub-DSL and print `name count digest' of the \
       canonical sketch set (the CI completeness gate)"
    Term.(const fingerprint $ fingerprint_dsl_arg $ fingerprint_cap_arg)

(* -- serve / stream -- *)

let socket_arg =
  let doc = "Unix domain socket path to listen on (or connect to)." in
  Arg.(
    value & opt string "abagnale.sock" & info [ "socket" ] ~docv:"PATH" ~doc)

let tcp_arg =
  let doc = "Use TCP on 127.0.0.1:$(docv) instead of a Unix socket." in
  Arg.(value & opt (some port_conv) None & info [ "tcp" ] ~docv:"PORT" ~doc)

(* A window shorter than the classifier's minimum is never scored. *)
let window_arg =
  let doc = "Sliding-window capacity, in records per flow." in
  Arg.(
    value
    & opt
        (at_least_conv Abg_classifier.Online.min_points)
        Abg_serve.Engine.default_config.Abg_serve.Engine.window
    & info [ "window" ] ~doc)

let max_sessions_arg =
  let doc = "Maximum concurrent sessions across all connections." in
  Arg.(
    value
    & opt count_conv
        Abg_serve.Engine.default_config.Abg_serve.Engine.max_sessions
    & info [ "max-sessions" ] ~doc)

let no_escalate_arg =
  let doc = "Do not synthesize handlers for flows that classify Unknown." in
  Arg.(value & flag & info [ "no-escalate" ] ~doc)

let endpoint_of socket tcp =
  match tcp with
  | Some port -> Abg_serve.Daemon.Tcp port
  | None -> Abg_serve.Daemon.Unix_socket socket

let serve socket tcp window max_sessions no_escalate () =
  let log = Abg_serve.Daemon.log_line stdout in
  let escalate =
    if no_escalate then None
    else
      (* Unknown flows go to real synthesis on the escalation domain;
         the outcome lands in the daemon log. *)
      Some
        (Abg_serve.Escalate.create (fun ~sid trace ->
             log
               (match Abg_core.Synthesis.run ~name:sid [ trace ] with
               | Some o ->
                   Printf.sprintf "escalate %s: synthesized %s (distance %.3f)"
                     sid o.Abg_core.Synthesis.pretty
                     o.Abg_core.Synthesis.distance
               | None ->
                   Printf.sprintf "escalate %s: synthesis found no handler" sid)))
  in
  let config =
    {
      Abg_serve.Daemon.endpoint = endpoint_of socket tcp;
      engine = { Abg_serve.Engine.window; max_sessions; escalate };
      log;
    }
  in
  try Abg_serve.Daemon.run ~config ()
  with Abg_serve.Daemon.Endpoint_in_use msg -> die "%s" msg

let serve_cmd =
  command ~telemetry:true "serve"
    ~doc:"Run the online classifier daemon (SIGTERM drains cleanly)"
    Term.(
      const serve $ socket_arg $ tcp_arg $ window_arg $ max_sessions_arg
      $ no_escalate_arg)

let json_arg =
  let doc = "Print verdicts as a JSON array instead of raw reply lines." in
  Arg.(value & flag & info [ "json" ] ~doc)

let stream socket tcp json trace_files () =
  let flows =
    List.mapi
      (fun i (path, trace) ->
        let base = Filename.remove_extension (Filename.basename path) in
        (Printf.sprintf "s%d-%s" i base, trace))
      (List.combine trace_files (load_traces trace_files))
  in
  let lines = Abg_serve.Client.stream (endpoint_of socket tcp) flows in
  if json then begin
    let rows =
      Abg_serve.Client.verdicts lines
      |> List.map (fun (sid, window, distance, verdict) ->
             Json.Obj
               [
                 ("sid", Json.Str sid);
                 ("window", Json.Num (float_of_int window));
                 ("distance", Json.hex distance);
                 ("verdict", Json.Str verdict);
               ])
    in
    print_endline (Json.to_string (Json.List rows))
  end
  else List.iter print_endline lines

let stream_cmd =
  command ~telemetry:true "stream"
    ~doc:
      "Stream trace files to a running serve daemon as concurrent sessions \
       and report the verdicts"
    Term.(const stream $ socket_arg $ tcp_arg $ json_arg $ trace_files_arg)

(* -- fuzz -- *)

(* Adversarial scenario search (DESIGN.md §12). A fuzz run directory
   holds fuzz.json (the immutable search spec) plus one standard batch
   run directory per generation (gen-0000, gen-0001, ...), each holding
   one job that scores the whole population. There is no other on-disk
   state: populations are re-derived from the seed, so resume and report
   just re-drive the search loop and let the batch layer skip every
   settled generation. *)

let fuzz_spec_path dir = Filename.concat dir "fuzz.json"

type fuzz_spec = {
  fz_fitness : Abg_fuzz.Fitness.kind;
  fz_cca : string;
  fz_cca_b : string option;
  fz_handler : string option;  (* codec form; counterexample target *)
  fz_duration : float;  (* simulated seconds per evaluation *)
  fz_params : Abg_fuzz.Search.params;
  fz_synth_scenarios : int;  (* counterexample synthesis grid size *)
  fz_synth_duration : float;
}

let fuzz_spec_to_json s =
  let open Json in
  let p = s.fz_params in
  Obj
    [
      ("schema", Str "abagnale-fuzz/1");
      ("fitness", Str (Abg_fuzz.Fitness.kind_name s.fz_fitness));
      ("cca", Str s.fz_cca);
      ("cca_b", match s.fz_cca_b with None -> Null | Some c -> Str c);
      ("fn", match s.fz_handler with None -> Null | Some h -> Str h);
      ("duration", hex s.fz_duration);
      ("generations", Num (float_of_int p.Abg_fuzz.Search.generations));
      ("pop", Num (float_of_int p.Abg_fuzz.Search.pop));
      ("seed", Num (float_of_int p.Abg_fuzz.Search.seed));
      ("tournament", Num (float_of_int p.Abg_fuzz.Search.tournament));
      ("elite", Num (float_of_int p.Abg_fuzz.Search.elite));
      ("mutation_rate", hex p.Abg_fuzz.Search.mutation_rate);
      ("synth_scenarios", Num (float_of_int s.fz_synth_scenarios));
      ("synth_duration", hex s.fz_synth_duration);
    ]

let fuzz_spec_of_json json =
  let open Json in
  let ctx = "fuzz" in
  let fitness_token = str ~ctx (member ~ctx "fitness" json) in
  let fz_fitness =
    match Abg_fuzz.Fitness.kind_of_name fitness_token with
    | Some k -> k
    | None -> raise (Malformed ("fuzz: unknown fitness " ^ fitness_token))
  in
  let bounded valid bound field v =
    if valid v then v
    else raise (Malformed (Printf.sprintf "fuzz: %s is not %s" field bound))
  in
  let seconds f =
    bounded valid_seconds seconds_bound f (hex_float (member ~ctx f json))
  in
  let count f = bounded valid_count count_bound f (int ~ctx (member ~ctx f json)) in
  {
    fz_fitness;
    fz_cca = str ~ctx (member ~ctx "cca" json);
    fz_cca_b =
      (match member ~ctx "cca_b" json with
      | Null -> None
      | j -> Some (str ~ctx j));
    fz_handler =
      (match member ~ctx "fn" json with Null -> None | j -> Some (str ~ctx j));
    fz_duration = seconds "duration";
    fz_params =
      {
        Abg_fuzz.Search.generations = count "generations";
        pop = count "pop";
        seed = int ~ctx (member ~ctx "seed" json);
        tournament = int ~ctx (member ~ctx "tournament" json);
        elite = int ~ctx (member ~ctx "elite" json);
        mutation_rate = hex_float (member ~ctx "mutation_rate" json);
      };
    fz_synth_scenarios = count "synth_scenarios";
    fz_synth_duration = seconds "synth_duration";
  }

let write_fuzz_spec dir spec =
  Abg_batch.Durable.replace (fuzz_spec_path dir)
    (Json.to_string (fuzz_spec_to_json spec) ^ "\n")

(* The CCAs `fuzz run' checks on its flags and the handler it
   synthesizes, checked again on read: an edited fuzz.json would
   otherwise fail every generation. *)
let check_fuzz_spec spec =
  let bad fmt =
    Printf.ksprintf (fun msg -> raise (Json.Malformed ("fuzz: " ^ msg))) fmt
  in
  let registered field cca =
    if Abg_cca.Registry.find cca = None then bad "%s: unknown CCA %s" field cca
  in
  registered "cca" spec.fz_cca;
  (match spec.fz_fitness with
  | Abg_fuzz.Fitness.Divergence -> (
      match spec.fz_cca_b with
      | Some cca_b -> registered "cca_b" cca_b
      | None -> bad "cca_b is missing")
  | Abg_fuzz.Fitness.Counterexample ->
      if Option.bind spec.fz_handler Abg_fuzz.Codec.decode_num = None then
        bad "fn is not a decodable handler"
  | Abg_fuzz.Fitness.Throughput -> ());
  spec

let read_fuzz_spec dir =
  let path = fuzz_spec_path dir in
  if not (Sys.file_exists path) then
    die "%s: no fuzz run here (missing fuzz.json)" dir;
  try check_fuzz_spec (fuzz_spec_of_json (Json.of_file path))
  with Json.Malformed msg -> die "%s: %s" path msg

(* The scenario impairment seed is the search seed: one --seed pins the
   entire run. *)
let fuzz_batch_spec spec =
  {
    Abg_batch.Fuzz_batch.fitness = spec.fz_fitness;
    cca = spec.fz_cca;
    cca_b = spec.fz_cca_b;
    handler = spec.fz_handler;
    duration = spec.fz_duration;
    scenario_seed = spec.fz_params.Abg_fuzz.Search.seed;
  }

let fuzz_champion_config spec genome =
  Abg_fuzz.Genome.to_config ~duration:spec.fz_duration
    ~seed:spec.fz_params.Abg_fuzz.Search.seed genome

(* Drive the whole search. Settled generations replay from their
   journals; a missing one runs as one batch job in process. *)
let fuzz_drive ~dir ?num_domains ~verbose spec =
  let bspec = fuzz_batch_spec spec in
  Abg_fuzz.Search.run ~params:spec.fz_params ~evaluate:(fun ~gen genomes ->
      Abg_batch.Fuzz_batch.evaluate ~dir ?num_domains ~verbose bspec ~gen
        genomes)

let fuzz_gene_table genome =
  String.concat "\n"
    (Array.to_list
       (Array.mapi
          (fun i (g : Abg_fuzz.Genome.spec) ->
            Printf.sprintf "    %-16s %.6g" g.Abg_fuzz.Genome.name genome.(i))
          Abg_fuzz.Genome.genes))

(* The §3.2 grid baseline a divergence champion must beat: the same
   fitness evaluated on every testbed_grid scenario (full 25-point
   grid), at the fuzz evaluation duration. *)
let fuzz_grid_baseline spec =
  let bspec =
    {
      Abg_fuzz.Fitness.kind = spec.fz_fitness;
      cca = spec.fz_cca;
      cca_b = spec.fz_cca_b;
      handler = None;
    }
  in
  Abg_netsim.Config.testbed_grid ~duration:spec.fz_duration ~n:25 ()
  |> List.map (fun cfg -> (cfg, Abg_fuzz.Fitness.evaluate bspec cfg))
  |> List.fold_left
       (fun acc (cfg, v) ->
         match acc with
         | Some (_, best) when best >= v -> acc
         | _ -> Some (cfg, v))
       None

(* Counterexample refinement: append the champion scenario to the
   synthesis trace suite and re-run synthesis — the loop the paper's
   pipeline closes with adversarially mined scenarios. *)
let fuzz_refine spec champion_cfg =
  let configs =
    Abg_netsim.Config.testbed_grid ~duration:spec.fz_synth_duration
      ~n:spec.fz_synth_scenarios ()
    @ [ champion_cfg ]
  in
  let config =
    {
      Abg_core.Refinement.default_config with
      Abg_core.Refinement.seed = spec.fz_params.Abg_fuzz.Search.seed;
    }
  in
  Abg_core.Synthesis.run_configs ~config ~configs ~name:spec.fz_cca
    (find_cca spec.fz_cca)

let fuzz_report_doc spec (result : Abg_fuzz.Search.result) =
  let open Json in
  let champion_cfg = fuzz_champion_config spec result.Abg_fuzz.Search.champion in
  let generations =
    List.map
      (fun (s : Abg_fuzz.Search.gen_stats) ->
        Obj
          [
            ("gen", Num (float_of_int s.Abg_fuzz.Search.gen));
            ("best", hex s.Abg_fuzz.Search.best);
            ("mean", hex s.Abg_fuzz.Search.mean);
            ("fingerprint",
             Str (Abg_fuzz.Genome.fingerprint s.Abg_fuzz.Search.best_genome));
          ])
      result.Abg_fuzz.Search.history
  in
  let champion =
    Obj
      [
        ("fingerprint",
         Str (Abg_fuzz.Genome.fingerprint result.Abg_fuzz.Search.champion));
        ("fitness", hex result.Abg_fuzz.Search.champion_fitness);
        ("gen", Num (float_of_int result.Abg_fuzz.Search.champion_gen));
        ("genome", Str (Abg_fuzz.Genome.encode result.Abg_fuzz.Search.champion));
        ("scenario", Str (Abg_netsim.Config.describe champion_cfg));
        ("config", Str (Abg_netsim.Config.digest champion_cfg));
      ]
  in
  let extras =
    match spec.fz_fitness with
    | Abg_fuzz.Fitness.Divergence -> (
        match fuzz_grid_baseline spec with
        | None -> []
        | Some (grid_cfg, grid_max) ->
            [
              ("grid_max", hex grid_max);
              ("grid_max_scenario",
               Str (Abg_netsim.Config.describe grid_cfg));
              ("exceeds_grid",
               Bool (result.Abg_fuzz.Search.champion_fitness > grid_max));
            ])
    | Abg_fuzz.Fitness.Counterexample -> (
        let refined = fuzz_refine spec champion_cfg in
        match refined with
        | None -> [ ("refined_found", Bool false) ]
        | Some o ->
            let refined_after =
              Abg_fuzz.Fitness.evaluate
                {
                  Abg_fuzz.Fitness.kind = Abg_fuzz.Fitness.Counterexample;
                  cca = spec.fz_cca;
                  cca_b = None;
                  handler = Some o.Abg_core.Synthesis.handler;
                }
                champion_cfg
            in
            [
              ("refined_found", Bool true);
              ("refined_handler", Str o.Abg_core.Synthesis.pretty);
              ("refined_handler_code",
               Str (Abg_fuzz.Codec.encode_num o.Abg_core.Synthesis.handler));
              ("refined_distance", hex o.Abg_core.Synthesis.distance);
              ("champion_distance_before",
               hex result.Abg_fuzz.Search.champion_fitness);
              ("champion_distance_after", hex refined_after);
            ])
    | Abg_fuzz.Fitness.Throughput -> []
  in
  Obj
    ([
       ("schema", Str "abagnale-fuzz-report/1");
       ("spec", fuzz_spec_to_json spec);
       ("generations", List generations);
       ("champion", champion);
     ]
    @ extras)

let fuzz_render_text spec (result : Abg_fuzz.Search.result) doc =
  let open Json in
  let buf = Buffer.create 2048 in
  let p = spec.fz_params in
  Buffer.add_string buf
    (Printf.sprintf
       "Fuzz report: fitness=%s cca=%s%s pop=%d generations=%d seed=%d \
        duration=%gs\n\n"
       (Abg_fuzz.Fitness.kind_name spec.fz_fitness)
       spec.fz_cca
       (match spec.fz_cca_b with None -> "" | Some b -> "/" ^ b)
       p.Abg_fuzz.Search.pop p.Abg_fuzz.Search.generations
       p.Abg_fuzz.Search.seed spec.fz_duration);
  Buffer.add_string buf "  gen  best          mean          champion\n";
  List.iter
    (fun (s : Abg_fuzz.Search.gen_stats) ->
      Buffer.add_string buf
        (Printf.sprintf "  %3d  %-12.6g  %-12.6g  %s\n" s.Abg_fuzz.Search.gen
           s.Abg_fuzz.Search.best s.Abg_fuzz.Search.mean
           (Abg_fuzz.Genome.fingerprint s.Abg_fuzz.Search.best_genome)))
    result.Abg_fuzz.Search.history;
  let champion_cfg = fuzz_champion_config spec result.Abg_fuzz.Search.champion in
  Buffer.add_string buf
    (Printf.sprintf
       "\nchampion: fitness=%.6g gen=%d fingerprint=%s\n  scenario: %s\n%s\n"
       result.Abg_fuzz.Search.champion_fitness
       result.Abg_fuzz.Search.champion_gen
       (Abg_fuzz.Genome.fingerprint result.Abg_fuzz.Search.champion)
       (Abg_netsim.Config.describe champion_cfg)
       (fuzz_gene_table result.Abg_fuzz.Search.champion));
  let field name =
    match doc with
    | Obj fields -> List.assoc_opt name fields
    | _ -> None
  in
  (match (field "grid_max", field "grid_max_scenario") with
  | Some gm, Some (Str sc) ->
      let gm = hex_float gm in
      Buffer.add_string buf
        (Printf.sprintf
           "\ntestbed_grid baseline (25 scenarios): max=%.6g at %s\n\
            champion %s the grid (%.6g vs %.6g)\n"
           gm sc
           (if result.Abg_fuzz.Search.champion_fitness > gm then "EXCEEDS"
            else "does not exceed")
           result.Abg_fuzz.Search.champion_fitness gm)
  | _ -> ());
  (match field "refined_found" with
  | Some (Bool found) ->
      if not found then
        Buffer.add_string buf "\nrefinement: re-synthesis found no handler\n"
      else begin
        let s name = match field name with Some (Str v) -> v | _ -> "?" in
        let h name =
          match field name with Some v -> hex_float v | None -> nan
        in
        Buffer.add_string buf
          (Printf.sprintf
             "\ncounterexample refinement (champion scenario appended to \
              the trace suite):\n\
             \  handler before: %s\n\
             \  handler after:  %s\n\
             \  champion-scenario distance: %.6g -> %.6g\n"
             (match spec.fz_handler with
             | Some hc -> (
                 match Abg_fuzz.Codec.decode_num hc with
                 | Some e -> Abg_dsl.Pretty.num e
                 | None -> hc)
             | None -> "?")
             (s "refined_handler")
             (h "champion_distance_before")
             (h "champion_distance_after"))
      end
  | _ -> ());
  Buffer.contents buf

let fuzz_fitness_arg =
  let doc =
    "Fitness function: divergence (maximize CWND-trace DTW between --cca \
     and --cca-b), counterexample (synthesize a handler for --cca, then \
     maximize its distance from ground truth), or throughput (minimize \
     link utilization of --cca)."
  in
  Arg.(value & opt string "divergence" & info [ "fitness" ] ~docv:"KIND" ~doc)

let fuzz_cca_arg =
  let doc = "CCA under attack (see `abagnale list')." in
  Arg.(value & opt string "reno" & info [ "cca" ] ~docv:"CCA" ~doc)

let fuzz_cca_b_arg =
  let doc = "Second CCA of a divergence pair." in
  Arg.(value & opt string "cubic" & info [ "cca-b" ] ~docv:"CCA" ~doc)

let fuzz_generations_arg =
  let doc = "Number of generations to evolve." in
  Arg.(value & opt count_conv 4 & info [ "generations" ] ~docv:"N" ~doc)

let fuzz_pop_arg =
  let doc = "Population size per generation." in
  Arg.(value & opt count_conv 8 & info [ "pop" ] ~docv:"N" ~doc)

let fuzz_duration_arg =
  let doc = "Simulated seconds per fitness evaluation." in
  Arg.(value & opt seconds_conv 6.0 & info [ "duration" ] ~docv:"SECONDS" ~doc)

let fuzz_synth_scenarios_arg =
  let doc = "Testbed scenarios in the counterexample synthesis suite." in
  Arg.(value & opt count_conv 2 & info [ "synth-scenarios" ] ~docv:"N" ~doc)

let fuzz_synth_duration_arg =
  let doc = "Simulated seconds per counterexample synthesis trace." in
  Arg.(
    value & opt seconds_conv 6.0 & info [ "synth-duration" ] ~docv:"SECONDS" ~doc)

let fuzz_seed_arg =
  let doc =
    "Seed of the whole search: the populations, every scenario's \
     impairments and a counterexample target's synthesis."
  in
  Arg.(
    value
    & opt int Abg_core.Refinement.default_config.Abg_core.Refinement.seed
    & info [ "seed" ] ~doc)

let fuzz_json_arg =
  let doc = "Print the report as canonical JSON (what CI pins)." in
  Arg.(value & flag & info [ "json" ] ~doc)

let fuzz_finish ~dir ?num_domains ~verbose ~json spec =
  on_run_dir @@ fun () ->
  let result = fuzz_drive ~dir ?num_domains ~verbose spec in
  let doc = fuzz_report_doc spec result in
  if json then print_endline (Json.to_string doc)
  else print_string (fuzz_render_text spec result doc)

let fuzz_run dir fitness cca cca_b generations pop duration synth_scenarios
    synth_duration seed num_domains verbose json () =
  let fz_fitness =
    match Abg_fuzz.Fitness.kind_of_name fitness with
    | Some k -> k
    | None ->
        die
          "unknown fitness %s (want divergence, counterexample, or throughput)"
          fitness
  in
  List.iter
    (fun c -> ignore (find_cca c : Abg_cca.Cca_sig.constructor))
    (cca
    :: (match fz_fitness with
       | Abg_fuzz.Fitness.Divergence -> [ cca_b ]
       | _ -> []));
  if Sys.file_exists (fuzz_spec_path dir) then
    die "%s already contains a fuzz run; use `fuzz resume'" dir;
  (* The counterexample target is synthesized up front and frozen into
     the spec: every generation attacks the same handler. *)
  let fz_handler =
    match fz_fitness with
    | Abg_fuzz.Fitness.Counterexample -> (
        let configs =
          Abg_netsim.Config.testbed_grid ~duration:synth_duration
            ~n:synth_scenarios ()
        in
        match
          Abg_core.Synthesis.run_configs
            ~config:{ Abg_core.Refinement.default_config with seed }
            ~configs ~name:cca (find_cca cca)
        with
        | Some o ->
            Printf.eprintf "synthesized %s target: %s (distance %.3f)\n%!" cca
              o.Abg_core.Synthesis.pretty o.Abg_core.Synthesis.distance;
            Some (Abg_fuzz.Codec.encode_num o.Abg_core.Synthesis.handler)
        | None ->
            die
              "counterexample fuzzing needs a synthesized handler, but \
               synthesis found none for %s"
              cca)
    | _ -> None
  in
  let spec =
    {
      fz_fitness;
      fz_cca = cca;
      fz_cca_b =
        (match fz_fitness with
        | Abg_fuzz.Fitness.Divergence -> Some cca_b
        | _ -> None);
      fz_handler;
      fz_duration = duration;
      fz_params =
        {
          Abg_fuzz.Search.default_params with
          Abg_fuzz.Search.generations;
          pop;
          seed;
        };
      fz_synth_scenarios = synth_scenarios;
      fz_synth_duration = synth_duration;
    }
  in
  write_fuzz_spec dir spec;
  fuzz_finish ~dir ?num_domains ~verbose ~json spec

let fuzz_run_cmd =
  command ~telemetry:true "run"
    ~doc:
      "Start a seeded adversarial scenario search: evolve extended netsim \
       scenarios against a fitness function, evaluating each generation as \
       one batch job under DIR/gen-NNNN"
    Term.(
      const fuzz_run $ batch_dir_arg $ fuzz_fitness_arg $ fuzz_cca_arg
      $ fuzz_cca_b_arg $ fuzz_generations_arg $ fuzz_pop_arg
      $ fuzz_duration_arg $ fuzz_synth_scenarios_arg $ fuzz_synth_duration_arg
      $ fuzz_seed_arg $ domains_arg $ batch_verbose_arg $ fuzz_json_arg)

(* The search seed lives in the spec, so resuming takes no --seed. *)
let fuzz_resume dir num_domains verbose json () =
  fuzz_finish ~dir ?num_domains ~verbose ~json (read_fuzz_spec dir)

(* `fuzz resume' and `fuzz report' are one command under two names. *)
let fuzz_resume_term =
  Term.(
    const fuzz_resume $ batch_dir_arg $ domains_arg $ batch_verbose_arg
    $ fuzz_json_arg)

let fuzz_resume_cmd =
  command ~telemetry:true "resume"
    ~doc:
      "Re-drive a fuzz run from its spec: populations re-derive from the \
       seed, settled generations replay from their journals, and only \
       missing work executes (idempotent)"
    fuzz_resume_term

let fuzz_report_cmd =
  command ~telemetry:true "report"
    ~doc:
      "Render the deterministic fuzz report (per-generation best/mean, \
       champion genome and scenario, grid-baseline comparison or \
       counterexample refinement); completes any unfinished generations \
       first, so it equals the report of an uninterrupted run byte for byte"
    fuzz_resume_term

let fuzz_cmd =
  Cmd.group
    (Cmd.info "fuzz"
       ~doc:
         "Adversarial scenario search: a seeded genetic fuzzer over the \
          extended netsim scenario space (cross-traffic, bandwidth steps, \
          outages, reordering, RED), with batch-backed generations")
    [ fuzz_run_cmd; fuzz_resume_cmd; fuzz_report_cmd ]

(* -- list -- *)

let list_all () =
  Printf.printf "kernel CCAs:  %s\n"
    (String.concat " " (List.map fst Abg_cca.Registry.kernel));
  Printf.printf "student CCAs: %s\n"
    (String.concat " " (List.map fst Abg_cca.Registry.student));
  Printf.printf "sub-DSLs:     %s\n"
    (String.concat " "
       (List.map (fun d -> d.Abg_dsl.Catalog.name) Abg_dsl.Catalog.all))

let list_cmd =
  command "list" ~doc:"List available CCAs and sub-DSLs" (Term.const list_all)

let main_cmd =
  let doc = "reverse-engineer congestion control algorithm behavior" in
  let info = Cmd.info "abagnale" ~version:"1.0.0" ~doc in
  Cmd.group info
    [
      collect_cmd;
      classify_cmd;
      synth_cmd;
      distance_cmd;
      lint_cmd;
      simplify_cmd;
      fingerprint_cmd;
      batch_cmd;
      fuzz_cmd;
      serve_cmd;
      stream_cmd;
      telemetry_cmd;
      list_cmd;
    ]

let () =
  (match Sys.getenv_opt "ABAGNALE_TELEMETRY" with
  | Some ("0" | "off" | "false") -> Abg_obs.Obs.set_enabled false
  | Some _ | None -> ());
  exit (Cmd.eval main_cmd)
