(* Batch-backed population evaluation: one batch run directory per
   generation, holding one job. See fuzz_batch.mli. *)

type spec = {
  fitness : Abg_fuzz.Fitness.kind;
  cca : string;
  cca_b : string option;
  handler : string option;  (** codec-encoded counterexample target *)
  duration : float;  (** simulated seconds per evaluation *)
  scenario_seed : int;  (** impairment seed shared by every scenario *)
}

open Abg_util

exception Failed of string

let ( / ) = Filename.concat

let gen_dir dir gen = dir / Printf.sprintf "gen-%04d" gen

(* [distinct] is the population's distinct genomes, keyed by
   [Genome.encode] and sorted on the keys. *)
let generation_job spec distinct =
  {
    Job.kind =
      Job.Fuzz_eval
        {
          fitness = Abg_fuzz.Fitness.kind_name spec.fitness;
          cca_b = spec.cca_b;
          handler = spec.handler;
        };
    cca = spec.cca;
    seed = spec.scenario_seed;
    configs =
      List.map
        (fun (_, genome) ->
          Abg_fuzz.Genome.to_config ~duration:spec.duration
            ~seed:spec.scenario_seed genome)
        distinct;
  }

(* A quarantined generation ends the search: a spec error fails every
   genome alike, so scoring on would search over garbage. An [Ok] entry
   promises a result blob holding one value per config; a blob that is
   missing, fails its hash or holds another count is a corrupt run
   directory. *)
let fitness_of ~gdir store (e : Journal.entry) ~n =
  match e.Journal.status with
  | Journal.Quarantined ->
      raise
        (Failed
           (Printf.sprintf "%s: generation failed: %s" gdir
              (Option.value ~default:"no error journaled" e.Journal.error)))
  | Journal.Ok -> (
      match Json.member_opt "values" (Runner.result_doc ~dir:gdir store e) with
      | Some (Json.List values) when List.length values = n ->
          Array.of_list (List.map Json.hex_float values)
      | _ ->
          raise
            (Store.Corrupt
               (Printf.sprintf "%s: job %s: result has no %d values" gdir
                  e.Journal.job n)))

let evaluate ~dir ?num_domains ~verbose (spec : spec) ~gen genomes =
  let gdir = gen_dir dir gen in
  (* One attempt: an evaluation raises only on a spec error, and a spec
     error repeats. The runner's verbose lines mark each generation's
     start on stderr. *)
  let settings =
    { Runner.default_settings with retries = 0; num_domains; verbose }
  in
  let keyed = Array.map (fun g -> (Abg_fuzz.Genome.encode g, g)) genomes in
  let distinct =
    List.sort_uniq
      (fun (a, _) (b, _) -> String.compare a b)
      (Array.to_list keyed)
  in
  let job = generation_job spec distinct in
  let digest = Job.digest job in
  let corrupt why = raise (Store.Corrupt (gdir ^ ": " ^ why)) in
  if Sys.file_exists (Runner.grid_path gdir) then begin
    (match Runner.jobs_of_dir ~dir:gdir with
    | [ (d, _) ] when String.equal d digest -> ()
    | _ -> corrupt "grid is not this generation's population");
    ignore (Runner.resume ~dir:gdir ~settings ())
  end
  else ignore (Runner.run ~dir:gdir ~settings [ job ]);
  let entry =
    match Runner.settled_entries gdir with
    | [ e ] when String.equal e.Journal.job digest -> e
    | _ -> corrupt "journal does not hold this generation's one outcome"
  in
  let store = Store.open_ (Runner.store_path gdir) in
  let values = fitness_of ~gdir store entry ~n:(List.length distinct) in
  let fitness = Hashtbl.create 64 in
  List.iteri (fun i (key, _) -> Hashtbl.replace fitness key values.(i)) distinct;
  Array.map (fun (key, _) -> Hashtbl.find fitness key) keyed
