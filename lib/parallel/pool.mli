(** Parallel work distribution over OCaml 5 domains — the laptop-scale
    substitute for the paper's Ray cluster (§5). It fans out the
    evaluations of a fuzz generation and of the fuzz report's grid
    baseline. Each parallel {!map}
    spawns its helper domains and joins them before it returns, so no
    domain outlives a map: an idle domain would stop for every minor GC
    of the caller. Participants (the calling domain and the helpers)
    claim item indices from a shared atomic counter, so imbalanced items
    pack tightly. *)

val map : ?num_domains:int -> ('a -> 'b) -> 'a array -> 'b array
(** [map f xs] is [Array.map f xs] computed in parallel: result [i] is
    [f xs.(i)] whichever domain ran it. [f] must be safe to run
    concurrently on distinct elements. [num_domains] caps how many
    domains participate, the caller included (default: the machine's
    recommended domain count). With one domain, or fewer than four
    items, [map] runs sequentially on the caller. Otherwise it spawns
    [min num_domains n - 1] helpers, which the [pool.workers] gauge
    reports, and joins every one of them before it returns or raises.
    The first exception any participant's [f] raised is re-raised. *)
