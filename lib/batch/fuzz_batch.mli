(** Batch-backed population evaluation. Each generation is its own
    batch run directory ([DIR/gen-NNNN]) whose grid is one
    {!Job.Fuzz_eval} job: the decoded scenarios of the population's
    distinct genomes (by {!Abg_fuzz.Genome.encode}), whose result is
    their fitness vector. A generation is thus the unit of work, of
    durability and of failure, and a settled one re-runs as a pure
    journal read, which is how resume and report re-derive a search with
    no mutable state on disk. *)

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

exception Failed of string
(** A generation whose job raised. The message starts with the
    generation directory and carries the journaled error. *)

val evaluate :
  dir:string ->
  ?num_domains:int ->
  verbose:bool ->
  spec ->
  gen:int ->
  Abg_fuzz.Genome.t array ->
  float array
(** Score one population (create the generation run or resume it);
    fitness per genome in population order. The generation's job runs
    once, on at most [num_domains] domains ({!Abg_parallel.Pool.map}),
    with the runner's progress lines on stderr when [verbose].

    Raises {!Failed} when the job raised: an evaluation raises only on
    a spec error, which a retry would repeat. The quarantine is
    terminal, so evaluating the generation again raises the same
    {!Failed} and runs nothing. Raises {!Store.Corrupt}, with a message
    that starts with the generation directory: before any job runs,
    when the directory's grid is not this population's one job; after
    it, when the [Ok] result blob is missing, fails its hash or does
    not hold one value per distinct genome. *)
