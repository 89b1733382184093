(** Evaluation environment: the per-ACK snapshot a handler executes
    against.

    One [Env.t] is built per trace record during replay (§3.1). The [cwnd]
    field is the *candidate's own* simulated window, not the ground-truth
    one — the handler is stateful through it. *)

type t = {
  mutable cwnd : float;  (** candidate's current congestion window, bytes *)
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

(* Fields are mutable so the replay hot loop can reuse one scratch
   environment per run instead of allocating one record per ACK. *)

let copy env = { env with cwnd = env.cwnd }

let signal env = function
  | Signal.Mss -> env.mss
  | Signal.Acked_bytes -> env.acked_bytes
  | Signal.Time_since_loss -> env.time_since_loss
  | Signal.Rtt -> env.rtt
  | Signal.Min_rtt -> env.min_rtt
  | Signal.Max_rtt -> env.max_rtt
  | Signal.Ack_rate -> env.ack_rate
  | Signal.Rtt_gradient -> env.rtt_gradient
  | Signal.Delay_gradient -> env.delay_gradient
  | Signal.Wmax -> env.wmax

(** A neutral environment for smoke-testing expressions: 1448-byte MSS,
    50 ms RTT path at ~10 Mbit/s. *)
let example =
  {
    cwnd = 14480.0;
    mss = 1448.0;
    acked_bytes = 1448.0;
    time_since_loss = 0.5;
    rtt = 0.05;
    min_rtt = 0.04;
    max_rtt = 0.08;
    ack_rate = 1_250_000.0;
    rtt_gradient = 0.0;
    delay_gradient = 0.0;
    wmax = 20000.0;
  }
