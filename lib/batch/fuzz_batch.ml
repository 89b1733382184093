(** Batch-backed population evaluation for the fuzzer.

    Each generation becomes its own batch run directory
    ([DIR/gen-NNNN]) whose grid is one {!Job.Fuzz_eval} job per
    *distinct* genome (duplicates produced by elitism or converged
    populations share one job). Running a generation is therefore
    resumable, shardable across [--workers], and inherits the
    kill-and-resume ≡ uninterrupted byte-identical contract: a settled
    generation re-runs as a pure journal read, which is also how
    [fuzz resume] and [fuzz report] re-derive a whole search without any
    mutable search state on disk. *)

type spec = {
  fitness : Abg_fuzz.Fitness.kind;
  cca : string;
  cca_b : string option;
  handler : string option;  (** codec-encoded counterexample target *)
  duration : float;  (** simulated seconds per evaluation *)
  scenario_seed : int;  (** impairment seed shared by every scenario *)
}

open Abg_util

let ( / ) = Filename.concat

let gen_dir dir gen = dir / Printf.sprintf "gen-%04d" gen

let job_of_genome spec genome =
  {
    Job.kind =
      Job.Fuzz_eval
        {
          fitness = Abg_fuzz.Fitness.kind_name spec.fitness;
          cca_b = spec.cca_b;
          handler = spec.handler;
          genome = Abg_fuzz.Genome.encode genome;
        };
    cca = spec.cca;
    seed = spec.scenario_seed;
    configs =
      [
        Abg_fuzz.Genome.to_config ~duration:spec.duration
          ~seed:spec.scenario_seed genome;
      ];
  }

(* Fitness of a quarantined evaluation: the individual loses every
   tournament but the search keeps moving. *)
let failed_fitness = neg_infinity

(* An [Ok] entry promises a result blob holding a value. A blob that is
   missing, fails its hash or has no value is a corrupt run directory,
   never a silent [failed_fitness]. *)
let fitness_of ~gdir store (e : Journal.entry) =
  match e.Journal.status with
  | Journal.Quarantined -> failed_fitness
  | Journal.Ok -> (
      match Json.member_opt "value" (Runner.result_doc ~dir:gdir store e) with
      | Some v -> Json.hex_float v
      | None ->
          raise
            (Store.Corrupt
               (Printf.sprintf "%s: job %s: result has no value" gdir
                  e.Journal.job)))

(** [evaluate ~dir ~settings spec ~gen genomes] — score one population
    as batch jobs under [gen_dir dir gen], creating the run on first
    touch and resuming it otherwise. Returns fitness per genome, in
    population order. *)
let evaluate ~dir ~settings (spec : spec) ~gen genomes =
  let gdir = gen_dir dir gen in
  let jobs =
    Array.to_list (Array.map (job_of_genome spec) genomes)
    |> List.sort_uniq Job.compare_canonical
  in
  let summary =
    if Sys.file_exists (Runner.grid_path gdir) then
      Runner.resume ~dir:gdir ~settings ()
    else Runner.run ~dir:gdir ~settings jobs
  in
  ignore summary;
  (* Join results back to genomes through the journal family; the run or
     resume above settled every job of the grid. *)
  let store = Store.open_ (Runner.store_path gdir) in
  let values = Hashtbl.create 64 in
  List.iter
    (fun (e : Journal.entry) ->
      Hashtbl.replace values e.Journal.job (fitness_of ~gdir store e))
    (Runner.settled_entries gdir);
  Array.map
    (fun genome -> Hashtbl.find values (Job.digest (job_of_genome spec genome)))
    genomes
