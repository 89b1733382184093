(** Multi-process shard coordinator: spawn n workers, supervise them,
    resume the killed ones.

    Each worker is a full child process (its own runtime, domains, and
    store pack file) running one shard of the grid; because resume is
    idempotent — settled jobs are skipped, artifacts are
    content-addressed — a worker that dies from a signal or an abnormal
    exit is simply {e respawned with the same argv} and picks up where
    its journal left off. Clean exits (0, or 2 = completed with
    quarantined jobs, mirroring the CLI convention) retire the worker.

    The coordinator itself holds no run state: killing it and re-running
    the same command is the same resume story one level up. *)

type outcome = {
  quarantined : bool;  (** some worker exited 2 (quarantines present) *)
  respawns : int;  (** total respawns across all workers *)
  failed : (int * string) list;
      (** workers abandoned after 10 respawns, with a description of
          their last death *)
}

val supervise : argv:(int -> string array) -> workers:int -> unit -> outcome
(** Spawn workers [0 .. workers-1] with [argv i] (element 0 is the
    program path) and wait for all of them to retire. A worker killed
    by a signal or exiting with a code other than 0/2 is respawned —
    after a linear backoff of 0.2s per earlier spawn — up to 10 times;
    beyond that it is abandoned and reported in [failed]. Respawns are
    logged to stderr. *)
