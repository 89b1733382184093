(** Batch-backed population evaluation. Each generation is its own
    batch run directory ([DIR/gen-NNNN]) whose grid is one
    {!Job.Fuzz_eval} job: the decoded scenarios of the population's
    distinct genomes (by {!Abg_fuzz.Genome.encode}), whose result is
    their fitness vector. A generation is thus the unit of work, of
    durability and of retry, and a settled one re-runs as a pure journal
    read, which is how resume and report re-derive a search with no
    mutable state on disk. *)

type spec = {
  fitness : Abg_fuzz.Fitness.kind;
  cca : string;
  cca_b : string option;
  handler : string option;  (** codec-encoded counterexample target *)
  duration : float;
  scenario_seed : int;
}

val gen_dir : string -> int -> string
(** [gen_dir dir g] = [DIR/gen-000g]. *)

val evaluate :
  dir:string ->
  settings:Runner.settings ->
  spec ->
  gen:int ->
  Abg_fuzz.Genome.t array ->
  float array
(** Score one population (create the generation run or resume it);
    fitness per genome in population order, every genome
    [neg_infinity] when the generation is quarantined. Raises
    {!Store.Corrupt}, with a message that starts with the generation
    directory: before any job runs, when the directory's grid is not
    this population's one job; after it, when the [Ok] result blob is
    missing, fails its hash or does not hold one value per distinct
    genome. *)
