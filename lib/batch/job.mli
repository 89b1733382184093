(** Declarative, serializable experiment jobs.

    Every row of the paper's evaluation grid becomes one {!t}: a job
    kind (trace collection, synthesis, classification, noise
    robustness), a ground-truth CCA, an explicit list of testbed
    scenario configs, and a seed. Jobs serialize canonically
    ({!to_json} has a fixed key order, lossless hex floats, configs as
    {!Abg_netsim.Config.digest} strings), and {!digest} of that
    rendering is the job's stable identity — the journal key the
    crash-safe runner replays against, and the sharding key.

    [Probe] is a self-test kind (CI smoke, fault-containment tests): it
    does a trivial deterministic computation, optionally sleeping and
    optionally failing its first [fail_attempts] attempts. *)

type kind =
  | Collect
  | Synthesize of { dsl : string option }
  | Classify
  | Noise of { stddev : float; keep : float }
      (** observation noise then subsampling, both seeded by the job *)
  | Probe of { fail_attempts : int; sleep_ms : int }
  | Fuzz_eval of {
      fitness : string;  (** {!Abg_fuzz.Fitness.kind_name} token *)
      cca_b : string option;  (** divergence pair's second CCA *)
      handler : string option;  (** {!Abg_fuzz.Codec}-encoded handler *)
    }
      (** one fuzz generation: the configs are the decoded scenarios of
          the population's distinct genomes, and the result holds their
          fitness vector in config order *)

type t = {
  kind : kind;
  cca : string;
  seed : int;
  configs : Abg_netsim.Config.t list;
}

(** A grid description, expanded to [kinds x ccas x seeds] jobs (each
    over the same [scenarios]-point testbed grid). Seed-insensitive
    kinds ([Collect], [Classify]) expand once per CCA, with the first
    seed. *)
type grid = {
  kinds : kind list;
  ccas : string list;
  scenarios : int;
  duration : float;
  ack_jitter : float;
  seeds : int list;
}

val expand : grid -> t list
(** Each job once, at its first occurrence: a repeated kind, CCA or seed
    adds no job. Raises [Invalid_argument] on an empty
    [kinds]/[ccas]/[seeds]. *)

val kind_name : kind -> string
(** ["collect"], ["synth"], ["classify"], ["noise"], ["probe"],
    ["fuzz"]. *)

val kind_of_token : string -> (kind, string) result
(** Parse a CLI kind token: ["collect"], ["synth"], ["synth:DSL"],
    ["classify"], ["noise:STDDEV:KEEP"], ["probe:FAILS:SLEEP_MS"]. A
    DSL must be in {!Abg_dsl.Catalog}, and a noise STDDEV finite and at
    least 0 and its KEEP in (0, 1]; the [Error] names the token. *)

val describe : t -> string
(** Human one-liner: kind, cca, scenario count, seed. *)

val to_json : t -> Abg_util.Json.t
val of_json : Abg_util.Json.t -> t
(** Raises {!Abg_util.Json.Malformed} on shape errors, and on an object
    that is not exactly [to_json] of the job it describes (an unknown
    member, a missing or foreign schema). *)

val digest : t -> string
(** MD5 hex of the canonical serialization: two jobs share a digest iff
    every parameter — kind, kind arguments, CCA, seed, and every config
    field including [ack_jitter] and the per-scenario RNG seeds — is
    identical. *)

val compare_canonical : t -> t -> int
(** Order by {!digest}: the runner's dispatch and report order. *)
