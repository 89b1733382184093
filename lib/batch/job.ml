(* Job specs: serializable descriptions of every experiment in the
   evaluation grid. See job.mli. *)

open Abg_util

type kind =
  | Collect
  | Synthesize of { dsl : string option }
  | Classify
  | Noise of { stddev : float; keep : float }
  | Probe of { fail_attempts : int; sleep_ms : int }
  | Fuzz_eval of {
      fitness : string;
      cca_b : string option;
      handler : string option;
    }

type t = {
  kind : kind;
  cca : string;
  seed : int;
  configs : Abg_netsim.Config.t list;
}

type grid = {
  kinds : kind list;
  ccas : string list;
  scenarios : int;
  duration : float;
  ack_jitter : float;
  seeds : int list;
}

let kind_name = function
  | Collect -> "collect"
  | Synthesize _ -> "synth"
  | Classify -> "classify"
  | Noise _ -> "noise"
  | Probe _ -> "probe"
  | Fuzz_eval _ -> "fuzz"

let kind_of_token token =
  match String.split_on_char ':' token with
  | [ "collect" ] -> Ok Collect
  | [ "synth" ] -> Ok (Synthesize { dsl = None })
  | [ "synth"; dsl ] ->
      if Abg_dsl.Catalog.find dsl = None then
        Error (Printf.sprintf "unknown DSL in %S; try `abagnale list'" token)
      else Ok (Synthesize { dsl = Some dsl })
  | [ "classify" ] -> Ok Classify
  | [ "noise"; stddev; keep ] -> (
      match (float_of_string_opt stddev, float_of_string_opt keep) with
      | Some stddev, Some keep
        when Float.is_finite stddev && stddev >= 0.0 && keep > 0.0
             && keep <= 1.0 ->
          Ok (Noise { stddev; keep })
      | _ -> Error (Printf.sprintf "bad noise parameters in %S" token))
  | [ "probe"; fails; sleep ] -> (
      match (int_of_string_opt fails, int_of_string_opt sleep) with
      | Some fail_attempts, Some sleep_ms ->
          Ok (Probe { fail_attempts; sleep_ms })
      | _ -> Error (Printf.sprintf "bad probe parameters in %S" token))
  | _ ->
      Error
        (Printf.sprintf
           "unknown job kind %S (want collect, synth[:DSL], classify, \
            noise:STDDEV:KEEP, or probe:FAILS:SLEEP_MS; fuzz jobs are \
            built by `abagnale fuzz`, not grid tokens)"
           token)

(* Collect and Classify results do not depend on the job seed (the
   scenario configs carry their own simulation seeds), so expanding them
   per seed would only duplicate report rows; they get the first seed. *)
let seed_sensitive = function
  | Collect | Classify -> false
  | Synthesize _ | Noise _ | Probe _ | Fuzz_eval _ -> true

(* A repeated kind, CCA or seed names a job already in the grid: it is
   kept once, where it first appears, so no run performs a job twice. *)
let expand grid =
  if grid.kinds = [] then invalid_arg "Job.expand: no kinds";
  if grid.ccas = [] then invalid_arg "Job.expand: no ccas";
  if grid.seeds = [] then invalid_arg "Job.expand: no seeds";
  let configs =
    Abg_netsim.Config.testbed_grid ~duration:grid.duration
      ~ack_jitter:grid.ack_jitter ~n:grid.scenarios ()
  in
  let seen = Hashtbl.create 64 in
  List.concat_map
    (fun kind ->
      let seeds =
        if seed_sensitive kind then grid.seeds else [ List.hd grid.seeds ]
      in
      let configs = match kind with Probe _ -> [] | _ -> configs in
      List.concat_map
        (fun cca -> List.map (fun seed -> { kind; cca; seed; configs }) seeds)
        grid.ccas)
    grid.kinds
  |> List.filter (fun job ->
         (not (Hashtbl.mem seen job)) && (Hashtbl.add seen job (); true))

let describe job =
  Printf.sprintf "%s/%s (%d scenario%s, seed %d)" (kind_name job.kind) job.cca
    (List.length job.configs)
    (if List.length job.configs = 1 then "" else "s")
    job.seed

(* Canonical serialization: fixed key order, kind parameters inline,
   configs as lossless Config.digest strings. [digest] hashes these
   bytes, so any representational change here renames every job —
   version the schema tag if the format must evolve. *)
let to_json job =
  let kind_fields =
    match job.kind with
    | Collect | Classify -> []
    | Synthesize { dsl } ->
        [ ("dsl", match dsl with None -> Json.Null | Some d -> Json.Str d) ]
    | Noise { stddev; keep } ->
        [ ("stddev", Json.hex stddev); ("keep", Json.hex keep) ]
    | Probe { fail_attempts; sleep_ms } ->
        [
          ("fail_attempts", Json.Num (float_of_int fail_attempts));
          ("sleep_ms", Json.Num (float_of_int sleep_ms));
        ]
    | Fuzz_eval { fitness; cca_b; handler } ->
        [
          ("fitness", Json.Str fitness);
          ("cca_b", match cca_b with None -> Json.Null | Some c -> Json.Str c);
          ("fn", match handler with None -> Json.Null | Some h -> Json.Str h);
        ]
  in
  Json.Obj
    ([
       ("schema", Json.Str "abagnale-job/1");
       ("kind", Json.Str (kind_name job.kind));
     ]
    @ kind_fields
    @ [
        ("cca", Json.Str job.cca);
        ("seed", Json.Num (float_of_int job.seed));
        ("configs",
         Json.List
           (List.map
              (fun cfg -> Json.Str (Abg_netsim.Config.digest cfg))
              job.configs));
      ])

let of_json json =
  let ctx = "job" in
  let kind =
    match Json.str ~ctx (Json.member ~ctx "kind" json) with
    | "collect" -> Collect
    | "classify" -> Classify
    | "synth" ->
        Synthesize
          {
            dsl =
              (match Json.member ~ctx "dsl" json with
              | Json.Null -> None
              | j -> Some (Json.str ~ctx:"job.dsl" j));
          }
    | "noise" ->
        Noise
          {
            stddev = Json.hex_float (Json.member ~ctx "stddev" json);
            keep = Json.hex_float (Json.member ~ctx "keep" json);
          }
    | "probe" ->
        Probe
          {
            fail_attempts =
              Json.int ~ctx (Json.member ~ctx "fail_attempts" json);
            sleep_ms = Json.int ~ctx (Json.member ~ctx "sleep_ms" json);
          }
    | "fuzz" ->
        Fuzz_eval
          {
            fitness = Json.str ~ctx (Json.member ~ctx "fitness" json);
            cca_b =
              (match Json.member ~ctx "cca_b" json with
              | Json.Null -> None
              | j -> Some (Json.str ~ctx:"job.cca_b" j));
            handler =
              (match Json.member ~ctx "fn" json with
              | Json.Null -> None
              | j -> Some (Json.str ~ctx:"job.fn" j));
          }
    | other -> raise (Json.Malformed ("job: unknown kind " ^ other))
  in
  let configs =
    Json.list ~ctx (Json.member ~ctx "configs" json)
    |> List.map (fun j ->
           let s = Json.str ~ctx:"job.configs" j in
           match Abg_netsim.Config.of_digest s with
           | Some cfg -> cfg
           | None -> raise (Json.Malformed ("job: bad config digest " ^ s)))
  in
  let job =
    {
      kind;
      cca = Json.str ~ctx:"job.cca" (Json.member ~ctx "cca" json);
      seed = Json.int ~ctx:"job.seed" (Json.member ~ctx "seed" json);
      configs;
    }
  in
  (* The object must be exactly [to_json] of the job it describes: an
     unknown member (a job from an older format) or a missing or foreign
     schema would otherwise load as a different job, under a digest its
     journal never settled. The trees are compared, not their renderings,
     which would slow loading a 96k-job grid by a quarter. *)
  if to_json job <> json then
    raise
      (Json.Malformed
         (Printf.sprintf "job: %s is not in canonical abagnale-job/1 form"
            (describe job)));
  (* A name no job body can resolve would only quarantine the job when
     it runs: refuse it with the grid, before any job runs. *)
  let unknown field what name =
    raise
      (Json.Malformed (Printf.sprintf "job.%s: unknown %s %s" field what name))
  in
  let check_cca field name =
    if Abg_cca.Registry.find name = None then unknown field "CCA" name
  in
  check_cca "cca" job.cca;
  (match job.kind with
  | Synthesize { dsl = Some dsl } when Abg_dsl.Catalog.find dsl = None ->
      unknown "dsl" "DSL" dsl
  | Fuzz_eval { cca_b = Some b; _ } -> check_cca "cca_b" b
  | _ -> ());
  job

let digest job = Digest.to_hex (Digest.string (Json.to_string (to_json job)))

let compare_canonical a b = String.compare (digest a) (digest b)
