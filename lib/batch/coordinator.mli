(** Multi-process shard coordinator: spawn n workers, supervise them,
    resume the killed ones.

    Each worker is a full child process (its own runtime, domains, and
    store pack file) running one shard of the grid; because resume is
    idempotent — settled jobs are skipped, artifacts are
    content-addressed — a worker killed by a signal is simply
    {e respawned with the same argv}, at once, and picks up where its
    journal left off. Clean exits (0, or 2 = completed with quarantined
    jobs, mirroring the CLI convention) retire the worker. Any other
    exit status is an input error or an uncaught exception, which a
    respawn would only repeat: the worker is reported failed.

    The coordinator itself holds no run state: killing it and re-running
    the same command is the same resume story one level up. *)

type outcome = {
  quarantined : bool;  (** some worker exited 2 (quarantines present) *)
  respawns : int;  (** total respawns across all workers *)
  failed : (int * string) list;
      (** workers that exited with a status other than 0 or 2, or were
          killed after 10 respawns, each with a description of how it
          ended (["exited 1"], ["killed by SIGKILL"]) *)
}

val supervise : argv:(int -> string array) -> workers:int -> unit -> outcome
(** Spawn workers [0 .. workers-1] with [argv i] (element 0 is the
    program path) and wait for all of them to retire. A worker killed
    by a signal is respawned at once, with no backoff, up to 10 times;
    killed again after that, or exiting with a status other than 0 or
    2, it is reported in [failed] and not respawned. Respawns are
    logged to stderr. *)
