(** Scenario genome: flat float vector over a fixed gene table, decoded
    into an extended {!Abg_netsim.Config.t}. All operators draw only
    from the {!Abg_util.Rng} streams passed in, so evolution is a pure
    function of its seed. *)

type spec = { name : string; lo : float; hi : float }

val genes : spec array
(** The gene table (append-only schema). *)

val length : int
(** Number of genes. *)

type t = float array

val random : Abg_util.Rng.t -> t
(** Uniform sample of the whole gene box. *)

val mutate : ?rate:float -> Abg_util.Rng.t -> t -> t
(** Per-gene Gaussian mutation (probability [rate], default 0.25; step
    stddev 15% of the gene range, clamped). *)

val crossover : Abg_util.Rng.t -> t -> t -> t
(** Uniform crossover. *)

val to_config : duration:float -> seed:int -> t -> Abg_netsim.Config.t
(** Decode into a scenario. [seed] comes from the fuzz spec, not the
    genome, so identical genomes decode to the same scenario. *)

val encode : t -> string
(** Canonical lossless rendering (hex floats); [decode] inverts it. *)

val decode : string -> t option

val fingerprint : t -> string
(** 32-hex stable identity — what CI pins for the champion. *)
