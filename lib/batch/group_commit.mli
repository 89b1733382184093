(** Group commit: one fsync per bounded window, not per job.

    Sits between concurrently completing jobs and the durable pair
    ({!Store} pack + {!Journal}). {!commit} enqueues a completion and
    blocks until an fsync {e covering that entry's journal line} has
    returned — the caller may then report the job done (pool, counters,
    CLI) knowing it survives any crash. Entries queued while a flush is
    in progress ride the next one, so n concurrent completions cost
    O(1) fsyncs, not n; the [batch.fsync_coalesced] counter records how
    many fsyncs the batching saved.

    Each flush is one leader doing, in order: {!Store.flush_staged}
    (pack append + fsync — every staged blob, and in particular every
    blob referenced by the batch's entries, becomes durable), then
    {!Journal.append_batch} (one write + one fsync). The ordering is
    the durability-window invariant: a journal line can only exist on
    disk if the blobs it references are already durable, so a crash at
    any instant leaves the journal describing only retrievable results.

    The flush window is bounded in both dimensions: at most 256
    entries per flush, and an optional [window_s] linger lets
    concurrent completions coalesce before the leader flushes (zero —
    the default — flushes whatever has queued by the time the leader
    runs, which under concurrency is already a batch). *)

type t

val create :
  ?window_s:float -> store:Store.t -> journal:Journal.t -> unit -> t
(** Default [window_s = 0.]. *)

val commit : t -> Journal.entry -> unit
(** Enqueue and block until a flush covering this entry returns. Safe
    from concurrent domains; one caller becomes the flush leader,
    the rest ride its fsync. *)

val close : t -> unit
(** Flush anything still queued (defensive — {!commit} does not return
    before its entry is flushed, so a quiesced pool leaves nothing).
    Does not close the store or journal. *)
