(** Deterministic pseudo-random number generation (xoshiro256** seeded via
    splitmix64). All randomness in the pipeline flows through this module
    so that every experiment is reproducible from a seed. *)

type t

val create : int -> t

val float : t -> float
(** Uniform in [0, 1). *)

val uniform : t -> float -> float -> float
(** [uniform t lo hi] — uniform in [lo, hi). *)

val int : t -> int -> int
(** [int t n] — uniform in [0, n-1]. Requires [n > 0]. *)

val bool : t -> bool
val normal : t -> mean:float -> stddev:float -> float
val exponential : t -> rate:float -> float
val shuffle : t -> 'a array -> unit
val choice : t -> 'a array -> 'a

val split : t -> t
(** Derive an independent generator (for handing deterministic streams to
    parallel workers). *)
