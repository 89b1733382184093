(** Batch-backed population evaluation: one run directory per
    generation, one {!Job.Fuzz_eval} job per distinct genome. Settled
    generations re-run as pure journal reads, which is how resume and
    report re-derive a search with no mutable state on disk. *)

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

val job_of_genome : spec -> Abg_fuzz.Genome.t -> Job.t

val evaluate :
  dir:string ->
  settings:Runner.settings ->
  spec ->
  gen:int ->
  Abg_fuzz.Genome.t array ->
  float array
(** Score one population (create the generation run or resume it);
    fitness per genome in population order, [neg_infinity] for
    quarantined evaluations. Raises {!Store.Corrupt}, with a message
    that starts with the generation directory, when an [Ok]
    evaluation's result blob is missing, fails its hash or has no
    value. *)
