(** Crash-safe file primitives for the batch layer.

    {!replace} is the one way a whole file is rewritten in place — run
    grids, fuzz specs, the store manifest, the pack [batch gc] writes:
    write a temp file, fsync it, rename it over the target, fsync the
    directory. After a crash at any instant the target holds either its
    old bytes or all of its new ones, never an empty or torn file. *)

val mkdir_p : string -> unit
(** Create a directory and its missing parents; concurrent creators
    race benignly. Raises [Sys_error] naming the path, or the ancestor,
    that exists and is not a directory. *)

val fsync_dir : string -> unit
(** Make renames and unlinks in a directory durable. Best effort: a
    directory that cannot be opened or synced is left as is. *)

val replace : string -> string -> unit
(** [replace path content] atomically and durably sets [path]'s
    content, creating its directory first. The staging file
    [path ^ ".tmp"] is gone once [replace] returns. *)
