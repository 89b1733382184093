(** Low-overhead pipeline telemetry: per-domain-sharded counters, gauges,
    duration histograms, and hierarchical span timers.

    Cells are plain [int]/[float] slots owned by one domain each and
    merged only at {!snapshot} time — no atomics on hot paths. A global
    disable ({!set_enabled}) turns every record operation into a single
    load-and-branch.

    Determinism contract: counters registered without [~volatile] must
    count events whose totals depend only on the workload and seed (not
    on domain count, scheduling, or timing); their merged values are
    bit-stable across runs, which is what the CI telemetry gate diffs.
    Scheduling-dependent counts are registered [~volatile:true]; gauges,
    histograms and float cells are never part of the deterministic
    section. *)

val enabled : unit -> bool
(** Whether recording is currently on (default: on). *)

val set_enabled : bool -> unit
(** Toggle all recording. Toggle only at quiescent points: a concurrent
    domain may observe the change a few events late. *)

module Counter : sig
  type t

  val make : ?volatile:bool -> string -> t
  (** Register (or look up — [make] is idempotent by name) a counter.
      [~volatile:true] marks it scheduling-dependent: reported outside
      the deterministic section. *)

  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
  (** Merged total across all domain shards. *)

  val name : t -> string
  val reset : t -> unit
end

module Gauge : sig
  type t

  val make : string -> t
  val set : t -> float -> unit
  (** Last writer wins; set at quiescent points. *)

  val value : t -> float
  val name : t -> string
end

module Histogram : sig
  type t

  val buckets : int
  (** Number of power-of-two buckets. *)

  val make : string -> t

  val observe : t -> float -> unit
  (** Record one value (nanoseconds for durations; unit-agnostic). *)

  val bucket_of : float -> int
  (** Bucket index for a value: [b] holds [2^(b-1) <= v < 2^b]; bucket 0
      holds everything below 1 (including NaN and negatives); the top
      bucket is open-ended. *)

  val lower_bound : int -> float
  (** Inclusive lower bound of a bucket ([0.0] for bucket 0). *)

  type summary = {
    count : int;
    sum : float;
    nonzero : (int * int) list;  (** (bucket index, count), ascending *)
  }

  val summary : t -> summary

  val quantile : summary -> float -> float
  (** [quantile s q] ([q] in [0, 1]) estimated from the power-of-two
      buckets (linear interpolation within a bucket, so resolution is a
      factor of two; the open-ended top bucket reports its lower bound).
      [0.0] on an empty summary. *)

  val name : t -> string
end

module Floatcell : sig
  type t
  (** Sharded float accumulator (e.g. per-domain busy time). *)

  val make : string -> t
  val add : t -> float -> unit
  val total : t -> float

  val per_domain : t -> (int * float) list
  (** Nonzero cells as (domain slot, value), slot = shard registration
      order. A domain that starts after another exited reuses the
      exited domain's slot, so there are as many slots as the most
      domains ever alive at once, not one per domain ever spawned. *)

  val name : t -> string
end

val span : string -> (unit -> 'a) -> 'a
(** [span name f] times [f] into the duration histogram
    ["span/<path>"], where the path joins enclosing span names on the
    current domain ([span "synth" (fun () -> span "refine" f)] records
    under ["span/synth/refine"]). Disabled mode runs [f] untimed. *)

type snapshot = {
  counters : (string * int) list;  (** deterministic, sorted by name *)
  volatile : (string * int) list;  (** scheduling-dependent counters *)
  gauges : (string * float) list;
  histograms : (string * Histogram.summary) list;
  floatcells : (string * float * (int * float) list) list;
      (** (name, total, per-domain-slot breakdown) *)
}

val snapshot : unit -> snapshot
(** Merge every registered instrument, each section sorted by name.
    Intended for quiescent points (end of a run, between phases). *)

val delta_counters :
  before:snapshot -> after:snapshot -> (string * int) list
(** Per-counter increments between two snapshots (deterministic section
    only; zero deltas dropped, unseen counters count from zero). The
    batch runner's per-job telemetry scoping: exact when jobs run
    serially, attributed to the observing scope under concurrency. *)

val reset : unit -> unit
(** Zero every registered instrument (tests). *)
