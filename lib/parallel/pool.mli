(** Parallel work distribution over OCaml 5 domains — the laptop-scale
    substitute for the paper's Ray cluster (§5). It fans out a fuzz
    generation's evaluations and runs the serve daemon's escalations. A
    persistent pool of worker domains serves every job; participants
    (including the calling domain) claim item indices dynamically from a
    shared atomic counter, so imbalanced items pack tightly and per-call
    overhead is a condition broadcast, not a domain spawn. Falls back to
    sequential execution for tiny inputs or single-domain machines. *)

type t
(** A persistent pool of worker domains. *)

val create : ?size:int -> unit -> t
(** [create ()] spawns a pool of [size] worker domains (default: the
    machine's recommended domain count minus the calling domain, which
    participates in every job). [size = 0] is valid — jobs run entirely
    on the caller. *)

val shutdown : t -> unit
(** Stop and join the pool's domains. Idempotent. The pool must not be
    used afterwards. *)

val size : t -> int
(** Number of worker domains (excluding callers). *)

val map : ?pool:t -> ?num_domains:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map f xs] is [Array.map f xs] computed in parallel on [pool]
    (default: a lazily-created global pool, shut down at exit, whose size
    the [pool.workers] gauge reports). [f] must be safe to run
    concurrently on distinct elements; exceptions re-raise in the
    caller. [num_domains] caps how many domains participate, the caller
    included (default: the machine's recommended domain count). *)

val background : ?pool:t -> (unit -> unit) -> unit
(** [background task] enqueues [task] on the pool's low-priority lane
    (default: the global pool). Idle workers run background tasks only
    when no foreground job wants them, and at most [max 1 (size - 1)]
    run concurrently, so foreground {!map}s are never starved on pools
    of two or more workers. Exceptions in [task] are swallowed and
    counted ([pool.background_failures]); on a zero-worker pool tasks
    queue until {!drain_background}. *)

val drain_background : ?pool:t -> unit -> unit
(** Run every queued background task (the caller participates) and
    return once none are queued or running: the serve daemon's shutdown
    barrier. Call before {!shutdown}, which discards still-queued tasks.
    Without [?pool], drains the global pool if one exists. *)
