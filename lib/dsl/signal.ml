(** Congestion signals available to DSL expressions (Listing 1).

    A signal is a per-ACK measurement that the trace-collection substrate
    records and that a synthesized handler may read. Signals carry units for
    the dimensional-analysis constraint of §4.1. *)

open Abg_util

type t =
  | Mss  (** maximum segment size, bytes *)
  | Acked_bytes  (** bytes newly acknowledged by this ACK *)
  | Time_since_loss  (** seconds since the last inferred loss event *)
  | Rtt  (** smoothed round-trip time sample, seconds *)
  | Min_rtt  (** minimum RTT observed on the connection, seconds *)
  | Max_rtt  (** maximum RTT observed on the connection, seconds *)
  | Ack_rate  (** delivery rate estimate, bytes per second *)
  | Rtt_gradient  (** d(RTT)/dt, dimensionless (s/s) *)
  | Delay_gradient  (** smoothed queueing-delay gradient, dimensionless *)
  | Wmax  (** window at the time of the last loss, bytes (Cubic-DSL) *)

let all =
  [ Mss; Acked_bytes; Time_since_loss; Rtt; Min_rtt; Max_rtt; Ack_rate;
    Rtt_gradient; Delay_gradient; Wmax ]

let name = function
  | Mss -> "mss"
  | Acked_bytes -> "acked"
  | Time_since_loss -> "time-since-loss"
  | Rtt -> "rtt"
  | Min_rtt -> "min-rtt"
  | Max_rtt -> "max-rtt"
  | Ack_rate -> "ack-rate"
  | Rtt_gradient -> "rtt-gradient"
  | Delay_gradient -> "delay-gradient"
  | Wmax -> "wmax"

let of_name s =
  List.find_opt (fun sig_ -> String.equal (name sig_) s) all

let unit_of = function
  | Mss | Acked_bytes | Wmax -> Units.bytes
  | Time_since_loss | Rtt | Min_rtt | Max_rtt -> Units.seconds
  | Ack_rate -> Units.rate
  | Rtt_gradient | Delay_gradient -> Units.dimensionless

(* Physical range contract for each signal: every value the trace
   substrate can record falls inside these bounds, by construction of the
   recorder. They are deliberately generous — looseness only weakens
   abstract-interpretation pruning, never its soundness — but each bound
   is justified:
   - [Mss]: IPv4 minimum-reassembly floor to 64 KiB jumbo frames.
   - [Acked_bytes]: one thinning window of deliveries; 1e9 B covers any
     window at the simulator's bandwidth grid with orders to spare.
   - [Time_since_loss]: bounded by trace duration; 1e6 s ~ 11 days.
   - RTTs: clamped positive by the recorder (samples <= 0 are dropped);
     100 s dwarfs any simulated path.
   - [Ack_rate]: an EWMA of window_bytes/span, span >= 5 ms; 1e12 B/s is
     ~8 Tbit/s.
   - Gradients: samples are d(rtt)/span with span >= 5 ms and rtt bounded
     by the RTT range, so |sample| <= 100/0.005 = 2e4; the EWMA never
     exceeds the largest sample. The delay gradient rescales by at most
     0.005/min_rtt <= 50. 1e6 bounds both with margin.
   - [Wmax]: a recorded cwnd, bounded by the replay clamp (1e12). *)
let range = function
  | Mss -> (400.0, 65536.0)
  | Acked_bytes -> (0.0, 1e9)
  | Time_since_loss -> (0.0, 1e6)
  | Rtt | Min_rtt | Max_rtt -> (1e-6, 100.0)
  | Ack_rate -> (0.0, 1e12)
  | Rtt_gradient | Delay_gradient -> (-1e6, 1e6)
  | Wmax -> (0.0, 1e12)

let equal (a : t) b = a = b
let compare (a : t) b = Stdlib.compare a b
