(** Append-only, fsync'd journal of job completions.

    One line per terminal job outcome, in canonical JSON
    ({!Abg_util.Json.to_string}), written and fsync'd before {!append}
    returns — after a crash the journal holds every completion that was
    acknowledged, plus at most one torn final line, which replay
    discards (the interrupted job simply re-runs on resume; its
    artifacts are content-addressed, so re-running cannot change the
    store).

    The journal records {e outcomes}, not progress: a job appears once,
    as [Ok] (with its result-blob digest) or [Quarantined] (with its
    error and attempt count). Resume = replay the journal, skip every
    job that has a line. *)

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
(** The entry's line in one [write] syscall, then one fsync. Safe from
    concurrent domains. *)

val close : t -> unit

val replay : string -> entry list
(** Parse a whole journal file, in file order. A missing file is an
    empty journal; a torn final line (crash mid-append) is discarded; any
    other line that is not a canonical outcome line — including a
    checkpoint record written by an earlier build — raises
    {!Abg_util.Json.Malformed}: that is corruption, not a crash
    artifact. *)
