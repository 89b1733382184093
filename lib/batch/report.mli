(** Deterministic run reports.

    Both entry points are pure functions of the run directory's
    persisted state — the grid, the journal family's settled outcomes,
    and the store — never of this process's timing, so a
    killed-and-resumed run reports byte-identically to an uninterrupted
    one, and a coordinator run (several worker journals) byte-identically
    to a single-process one.

    Both replay every journal line ({!Runner.settled_entries}), and every
    result blob the report reads is re-hashed ({!Store.get}): a corrupt
    journal line or blob raises instead of being rendered. *)

val status : string -> string
(** One-screen progress summary: jobs total / done / quarantined /
    pending, per-kind breakdown, store blob count. *)

val render : string -> string
(** The full Table-2-style report: one section per job kind
    (synthesis, noise robustness, classification, collection, probes),
    rows in canonical job order, then quarantined jobs with their
    errors, then totals. Raises [Sys_error] if the run directory has no
    grid, and {!Store.Corrupt} if an [Ok] entry's result blob is missing
    or fails its hash ({!Runner.result_doc}). *)
