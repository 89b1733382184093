(** Pre-defined macros (Table 1): recurring sub-expressions packaged as
    single AST nodes so the enumerator finds fruitful candidates within a
    small depth budget (§3.3). *)

type t =
  | Reno_inc  (** ACKed * MSS / CWND — Reno's per-ACK additive increase *)
  | Vegas_diff
      (** (RTT - minRTT) * ack-rate / MSS — estimated packets queued at
          the bottleneck *)
  | Htcp_diff  (** (RTT - minRTT) / maxRTT — H-TCP's relative RTT variation *)
  | Rtts_since_loss  (** time-since-loss / RTT — elapsed time in RTTs *)

val all : t list
val name : t -> string
val of_name : string -> t option
val unit_of : t -> Abg_util.Units.t
val eval : Env.t -> t -> float
val equal : t -> t -> bool
val compare : t -> t -> int
