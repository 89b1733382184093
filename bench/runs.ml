(* Shared state for the benchmark sections: trace suites and synthesis
   outcomes are computed once per CCA and reused by every table/figure
   that needs them (Table 2 and Table 4 consume the same refinement runs,
   exactly as in the paper). All knobs are scaled to laptop size; the
   reproduction contract is shape, not testbed-absolute numbers. *)

let scenarios = 4
let duration = 20.0

let config =
  {
    Abg_core.Refinement.default_config with
    Abg_core.Refinement.initial_samples = 16;
    completion_budget = 24;
    max_segment_records = 400;
    exhaustive_cap = 300;
  }

(* The kernel CCAs in the paper's Table 2 row order. CDG and HighSpeed are
   listed with the reason they are skipped (§5.5). *)
let kernel_rows =
  [ "bbr"; "reno"; "westwood"; "scalable"; "lp"; "hybla"; "htcp"; "illinois";
    "vegas"; "veno"; "nv"; "yeah"; "cubic"; "bic" ]

let skipped_rows =
  [ ("cdg", "randomized window reduction is outside the DSL (§5.5)");
    ("highspeed", "log-table response function is outside the DSL (§5.5)") ]

let student_rows =
  [ "student1"; "student2"; "student3"; "student4"; "student5"; "student6";
    "student7" ]

(* Suites come from the process-wide trace store (collect_suite caches by
   (cca, config digest)), so repeated calls per name — and any other
   section or example asking for the same grid — are cache hits. *)
let traces name =
  let ctor =
    match Abg_cca.Registry.find name with
    | Some c -> c
    | None -> invalid_arg ("unknown CCA " ^ name)
  in
  Abg_trace.Trace.collect_suite ~duration ~n:scenarios ~name ctor

(* Sub-DSL per CCA, following the paper's classifier-hint procedure
   (Table 3 drives §3.3): the Gordon verdict picks the family for kernel
   CCAs; the student dataset is Vegas-adjacent per CCAnalyzer. *)
let dsl_for name =
  if List.mem name student_rows then Abg_dsl.Catalog.vegas
  else if String.equal name "cubic" || String.equal name "bic" then
    Abg_dsl.Catalog.cubic
  else Abg_classifier.Dsl_hint.choose (Abg_classifier.Gordon.classify (traces name))

let synthesis_cache : (string, Abg_core.Synthesis.outcome option) Hashtbl.t =
  Hashtbl.create 31

let synthesis name =
  match Hashtbl.find_opt synthesis_cache name with
  | Some o -> o
  | None ->
      let dsl = dsl_for name in
      let o = Abg_core.Synthesis.run ~config ~dsl ~name (traces name) in
      Hashtbl.replace synthesis_cache name o;
      o

(* The segment set a synthesis run was evaluated on, rebuilt with the same
   deterministic selection — used to score the paper's fine-tuned handlers
   on identical data. *)
let segments_for name =
  let rng = Abg_util.Rng.create config.Abg_core.Refinement.seed in
  Abg_core.Synthesis.segments_of_traces rng
    ~metric:config.Abg_core.Refinement.metric ~budget:8 (traces name)
  |> List.map
       (Abg_trace.Segmentation.thin
          ~max_records:config.Abg_core.Refinement.max_segment_records)

let heading title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let timed name f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  Printf.printf "[%s: %.1fs]\n%!" name (Unix.gettimeofday () -. t0);
  r

(* -- BENCH_*.json output -- *)

let write_json path json =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Abg_util.Json.to_string_indented json ^ "\n"))

(* The flat name -> ns/run estimate map that bench/gate.ml reads. *)
let write_estimates path rows =
  write_json path
    (Abg_util.Json.Obj (List.map (fun (name, est) -> (name, Abg_util.Json.Num est)) rows))

(* Run metadata: the machine that produced the estimates, then [fields]. *)
let write_meta path fields =
  let open Abg_util.Json in
  write_json path
    (Obj
       ([
          ("schema", Str "abagnale-bench-meta/1");
          ("ocaml", Str Sys.ocaml_version);
          ("word_size", Num (float_of_int Sys.word_size));
          ("recommended_domains", Num (float_of_int (Domain.recommended_domain_count ())));
        ]
       @ fields))
