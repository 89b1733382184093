(** Content-addressed, crash-safe artifact store with a staged write
    path: a batch job's blobs become durable together, at its commit.

    Blobs — serialized traces, feature vectors, per-job result JSON —
    are keyed by the MD5 hex digest of their content and live in
    append-only {e pack files} under [DIR/pack/], which hold the only
    copy of every blob. A store is opened either as a {e writer}
    ([open_ ~deferred:true], what a batch run's executor uses) or as a
    {e reader} (the default: init, report, gc, fuzz evaluation). Only a
    writer may {!put}.

    A writer's {!put} only buffers the content; {!flush_staged} appends
    every buffered blob to the writer's own pack with a single write and
    a single fsync — every blob a job stored becomes durable at the
    cost of one fsync. Each writer creates its pack at its first flush,
    exclusively and under a random name: a writer that flushed nothing
    leaves no pack, no process ever appends after another one's tail,
    and packs copied in from a shard run elsewhere never collide.
    {!open_} indexes the records of every pack. A pack left by a writer
    killed mid-append ends in a torn record, which the index skips: its
    blob was never acknowledged. The pack stays until {!gc} folds it
    away.

    Re-putting existing content is a no-op (same digest, same bytes),
    which is what makes a resumed run's store hold the same blobs as an
    uninterrupted one's, and after {!gc} the same bytes. A versioned
    manifest ([DIR/manifest.json]) is written on first open and checked
    afterwards; {!get} re-hashes content and raises {!Corrupt} on
    mismatch, so disk rot is detected at read time. *)

type t

exception Corrupt of string
(** Manifest mismatch on open (a store written by an earlier build
    included), a malformed pack record on open, or content whose hash
    does not match its digest key on read. The message names the
    offending file's path, and for a malformed record its byte offset. *)

val open_ : ?deferred:bool -> string -> t
(** Create (or re-open) a store rooted at the given directory and index
    every pack. A record whose declared extent runs past the end of its
    pack is a torn tail and is skipped; any other malformed record, and
    an existing manifest carrying a different schema, raise {!Corrupt}.
    [~deferred:true] opens a writer, described above; without it the
    store is a reader. *)

val digest_hex : string -> string
(** The content digest {!put} would assign (MD5 hex). *)

val is_digest : string -> bool
(** Whether a string has the shape of a digest: 32 lowercase hex
    characters. *)

val put : t -> string -> string
(** [put t content] stores a blob, returning its digest. The blob is
    only buffered until the next {!flush_staged} covers it. Idempotent
    for content already indexed or buffered. Safe from concurrent
    domains. Raises [Invalid_argument] on a reader. *)

val flush_staged : t -> int
(** Make every blob buffered since the last flush durable: one pack
    append, one fsync. Returns the number of blobs flushed (0 on a
    reader or when nothing is staged). Safe from concurrent
    domains; concurrent {!put}s simply land in the next flush. *)

val close : t -> unit
(** Flush anything staged and close the writer's pack. Idempotent; a
    no-op for readers. Blobs stay readable through [t]. *)

val get : t -> string -> string
(** [get t digest] reads a blob back, verifying its content hash.
    Raises [Not_found] if absent, {!Corrupt} (naming the pack file) on
    a hash mismatch. *)

val list : t -> string list
(** Every digest the packs hold (as indexed at open, plus this writer's
    flushed blobs), sorted. *)

type gc_stats = {
  kept : int;  (** live blobs rewritten into [gc.pack] *)
  swept : int;  (** dead blobs dropped *)
  packs_folded : int;  (** packs other than [gc.pack] deleted *)
}

val gc : t -> live:(string -> bool) -> gc_stats
(** Mark-and-sweep maintenance, offline only (no concurrent writers):
    read every blob for which [live] is true through {!get} (so a rotted
    blob raises {!Corrupt} and nothing is deleted), rewrite them in
    digest order into [DIR/pack/gc.pack], then delete every other pack.
    Afterwards the store is that one pack, whose bytes depend only on
    the live blobs. Sweep counts land in the [batch.gc_swept] counter. *)
