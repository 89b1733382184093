(** Append-only, fsync'd journal of job completions, with checkpoints.

    One line per terminal job outcome, in canonical JSON
    ({!Abg_util.Json.to_string}), flushed and fsync'd before {!append} (or
    {!append_batch}, which pays one write and one fsync for a whole
    batch — the group-commit primitive) returns — after a crash the
    journal holds every completion that was acknowledged, plus at most
    one torn final line, which replay discards (the interrupted job
    simply re-runs on resume; its artifacts are content-addressed, so
    re-running cannot change the store).

    The journal records {e outcomes}, not progress: a job appears once,
    as [Ok] (with its result-blob digest) or [Quarantined] (with its
    error and attempt count). Resume = replay the journal, skip every
    job that has a line.

    {2 Checkpoints}

    Interleaved with outcome lines the journal may carry {e checkpoint
    records}: one canonical-JSON line snapshotting the whole settled
    outcome set at that point, digest-sorted, in a fixed-width packed
    encoding guarded by its own integrity hash. {!replay_checkpointed}
    locates the last valid checkpoint by scanning line prefixes from
    the end and parses only it plus the outcome lines after it, so
    resume/status cost is proportional to the work outstanding since
    the last checkpoint, not to the run's history. An invalid (torn or
    corrupted) checkpoint record makes the reader fall back to the
    previous checkpoint — checkpoints are a cache of the outcome lines,
    never the only copy of an acknowledged completion, except after
    {!compact} has rewritten the file. *)

type status = Ok | Quarantined

type entry = {
  job : string;  (** job digest ({!Job.digest}) *)
  status : status;
  attempts : int;  (** attempts consumed in the run that completed it *)
  result : string option;  (** result-blob digest ([Ok] entries) *)
  error : string option;  (** last error ([Quarantined] entries) *)
}

val entry_to_line : entry -> string
(** Canonical one-line rendering (no newline). *)

val entry_of_line : string -> entry
(** Raises {!Abg_util.Json.Malformed} on anything but a canonical line. *)

type t

val open_ : string -> t
(** Open (creating if absent) for appending. A torn final line left by a
    crash is truncated away first, so new appends never glue onto it. *)

val append : t -> entry -> unit
(** Serialize, write, fsync. Safe from concurrent domains. *)

val append_batch : t -> entry list -> unit
(** All lines in one [write] syscall, then one fsync: the per-entry
    durability cost is amortized over the batch. [[]] is a no-op. Safe
    from concurrent domains. *)

val append_checkpoint : t -> entry list -> unit
(** Append a checkpoint record snapshotting [entries] — the {e full}
    settled outcome set of this journal file, any order (the record is
    digest-sorted internally). One write, one fsync. Raises
    [Invalid_argument] if an entry does not fit the packed encoding
    (job/result digests must be 32 chars; attempts < 65536). *)

val close : t -> unit

val replay : string -> entry list
(** Parse a whole journal file: every outcome line plus every valid
    checkpoint record, deduplicated by job digest (first occurrence
    wins — a checkpoint only ever repeats lines already seen, except in
    a compacted journal where it is the only copy). A missing file is
    an empty journal; a torn final line (crash mid-append) is
    discarded, as is an invalid final checkpoint record; a malformed
    {e interior} line — outcome or checkpoint — raises
    {!Abg_util.Json.Malformed}: that is corruption, not a crash artifact. *)

val replay_checkpointed : string -> entry list
(** Same outcome set as {!replay}, but O(outstanding): scan backwards
    for the last valid checkpoint record, decode its packed snapshot,
    and parse only the outcome lines after it. An invalid checkpoint
    (torn, truncated, or failing its integrity hash) falls back to the
    previous one; with no valid checkpoint this is a full replay.
    Unlike {!replay}, interior corruption among the {e skipped} prefix
    goes unnoticed — this is the fast path, {!replay} the verifying
    one. *)

val compact : string -> unit
(** Rewrite the journal as a single checkpoint record covering its
    whole outcome set, via write-temp, fsync, rename — interrupting it
    at any instant leaves either the old or the new journal, never a
    torn one. A missing file is left missing. Offline only: must not
    run concurrently with a writer holding the journal open. *)
