(** Congestion signals available to DSL expressions (Listing 1): per-ACK
    measurements recorded by trace collection and readable by synthesized
    handlers. Signals carry units for the §4.1 dimensional-analysis
    constraint. *)

type t =
  | Mss  (** maximum segment size, bytes *)
  | Acked_bytes  (** bytes newly acknowledged by this ACK *)
  | Time_since_loss  (** seconds since the last inferred loss event *)
  | Rtt  (** round-trip-time sample, seconds *)
  | Min_rtt  (** minimum RTT observed on the connection, seconds *)
  | Max_rtt  (** maximum RTT observed on the connection, seconds *)
  | Ack_rate  (** delivery-rate estimate, bytes per second *)
  | Rtt_gradient  (** d(RTT)/dt, dimensionless *)
  | Delay_gradient  (** smoothed queueing-delay gradient, dimensionless *)
  | Wmax  (** window at the time of the last loss, bytes (Cubic-DSL) *)

val all : t list
val name : t -> string
val of_name : string -> t option
val unit_of : t -> Abg_util.Units.t

val range : t -> float * float
(** [range s] is the physical [(lo, hi)] contract for [s]: every value
    the trace substrate can record falls inside it. Deliberately
    generous; the single source of truth for the interval boxes used by
    [Simplify] and the [Abg_analysis] abstract interpreter. *)

val equal : t -> t -> bool
val compare : t -> t -> int
