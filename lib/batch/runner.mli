(** Crash-safe job runner: quarantine, sharding, durable commit,
    resume.

    A batch run lives in a directory:
    {v
      DIR/grid.json              expanded job list (written once by run)
      DIR/journal.jsonl          completion journal (unsharded runs)
      DIR/journal.wIofN.jsonl    per-shard journals ([--shard I/N] runs)
      DIR/store/                 content-addressed artifact store
    v}

    {!run} writes the grid and executes it; {!resume} replays the
    journal family and executes only the jobs without a terminal record
    — including the one a kill interrupted mid-flight, whose re-run is
    harmless because every artifact is content-addressed. The
    determinism contract: for a fixed grid and settings, a run that is
    killed at any instant and resumed produces a journal outcome set,
    report, and set of stored blobs identical to an uninterrupted run's,
    and after {!gc} a byte-identical store.

    Durability goes through {!commit}: the store runs in deferred
    (pack-file) mode, and a job is reported done — counters, verbose
    log, the returned completion — only after the fsync covering its
    journal line returns.

    Jobs run one at a time on the calling domain, in canonical (digest)
    order, each once, each making its own completion durable; only a
    fuzz generation's evaluations fan out ({!Abg_parallel.Pool.map}). A
    job is deterministic, so an error it raises would repeat: a job that
    raises is {e quarantined} at once — its error is journaled and the
    rest of the grid proceeds, so a poisoned job never takes down the
    run. Quarantine is terminal: resume skips it. With [verbose], each
    job prints one stderr line, [[batch] JOB: ok] or
    [[batch] JOB: QUARANTINED: ERROR]. There is no per-job wall-clock limit:
    OCaml domains cannot be killed, so a wedged job is the supervising
    process's to kill — SIGKILL plus [resume] is the supported path,
    and is exactly what the CI smoke job exercises.

    [shard = (i, n)] runs only the jobs at index [≡ i (mod n)] of the
    canonical order and journals into [journal.wIofN.jsonl]. The
    {!Coordinator}'s children are shards sharing one run directory and
    its store; shards run in separate directories (manual fan-out
    across machines) merge by copying their journals and
    [store/pack/*.pack] files into one. All readers ({!resume} skipping,
    {!Report}) merge the whole journal family. *)

(** A synthesis or noise job refines under
    {!Abg_core.Refinement.default_config} with the job's own seed. *)
type settings = {
  shard : (int * int) option;  (** [(i, n)], 0-based shard index *)
  num_domains : int option;  (** a fuzz generation's map's domain cap *)
  verbose : bool;  (** one [[batch]] line per job on stderr *)
}

val default_settings : settings

type status = Done | Quarantined of string

(** One executed job: it ran once, and its outcome is durable. *)
type completion = {
  job : Job.t;
  digest : string;
  status : status;
  result : string option;  (** result-blob digest *)
}

type summary = {
  completions : completion list;  (** this invocation, canonical order *)
  skipped : int;  (** jobs already journaled (resume) *)
  counters : (string * int) list;
      (** telemetry counter deltas over this invocation
          ({!Abg_obs.Obs.delta_counters}) — the per-run roll-up of the
          per-job instrumentation *)
}

val shard_select : i:int -> n:int -> 'a list -> 'a list
(** Deterministic shard partition: elements at index [≡ i (mod n)].
    Raises [Invalid_argument] unless [0 <= i < n]. *)

val grid_path : string -> string
(** [DIR/grid.json] — present iff the directory holds a run. *)

val store_path : string -> string
(** [DIR/store] — the run's content-addressed artifact store. *)

val journal_paths : dir:string -> string list
(** Every journal in the run directory ([journal*.jsonl]), sorted —
    one for an unsharded run, one per shard after a coordinator run. *)

val settled_entries : string -> Journal.entry list
(** The merged settled outcome set across the journal family
    ({!Journal.replay} of each file). A corrupt journal raises
    [Json.Malformed] with a message that starts with its path. *)

val init : dir:string -> Job.t list -> unit
(** Create a run directory and persist the grid. Raises
    [Invalid_argument] if the directory already holds a run. *)

val jobs_of_dir : dir:string -> (string * Job.t) list
(** The persisted grid as [(Job.digest job, job)] pairs, in canonical
    order ({!Job.compare_canonical}), each job hashed once. Raises
    [Sys_error] when [dir] holds no grid and [Json.Malformed], with a
    message that starts with the grid's path, when it is corrupt: when
    it is not exactly [{"schema":"abagnale-grid/1","jobs":[...]}], or
    when it lists a job twice. *)

val run : dir:string -> settings:settings -> Job.t list -> summary
(** {!init} then execute. *)

val resume : dir:string -> settings:settings -> unit -> summary
(** Execute every job the journal family does not already settle.
    Idempotent: resuming a finished run does nothing. *)

val result_doc : dir:string -> Store.t -> Journal.entry -> Abg_util.Json.t
(** The parsed result document an [Ok] entry of [dir]'s journal family
    promises. Raises {!Store.Corrupt}, naming the run's store, the job
    and the digest, when the entry has no result blob or the blob is
    missing or does not parse, and naming the pack when the blob fails
    its hash. *)

val gc : dir:string -> Store.gc_stats
(** Offline store maintenance: mark live digests (journaled result
    blobs plus every blob reference inside their result documents),
    rewrite them into one [gc.pack] ({!Store.gc}), and drop the rest.
    A missing or rotted result blob raises {!Store.Corrupt} before
    anything is deleted. Must not run concurrently with an executing
    run. *)

val commit : store:Store.t -> journal:Journal.t -> Journal.entry -> unit
(** Make one completion durable: {!Store.flush_staged} (one pack append
    and one fsync, so every staged blob, and in particular every blob
    the entry references, is durable), then {!Journal.append} (one write
    and one fsync). The order is the durability-window invariant: a
    journal line can exist on disk only if the blobs it references are
    already durable, so a crash at any instant leaves the journal
    describing only retrievable results. When [commit] returns, the
    entry survives any crash. *)

val perform :
  settings:settings -> store:Store.t -> attempt:int -> Job.t -> Abg_util.Json.t
(** Execute one job body (no journaling) and return its result document.
    The runner always passes [~attempt:1]; only a [Probe] job reads it.
    Exposed for [perfbench/replay], which times job bodies apart from
    the runner. *)
