(** Evaluation environment: the per-ACK snapshot a handler executes
    against. The [cwnd] field is the *candidate's own* simulated window —
    statefulness flows through it. Fields are mutable so the replay hot
    loop can reuse one scratch environment per run instead of allocating
    per ACK. *)

type t = {
  mutable cwnd : float;
  mutable mss : float;
  mutable acked_bytes : float;
  mutable time_since_loss : float;
  mutable rtt : float;
  mutable min_rtt : float;
  mutable max_rtt : float;
  mutable ack_rate : float;
  mutable rtt_gradient : float;
  mutable delay_gradient : float;
  mutable wmax : float;
}

val copy : t -> t
val signal : t -> Signal.t -> float

val example : t
(** A neutral environment for smoke-testing expressions: 1448-byte MSS on
    a 50 ms, ~10 Mbit/s path. *)
