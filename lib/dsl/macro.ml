(** Pre-defined macros (Table 1).

    Macros package sub-expressions that recur across CCA families, so a
    single AST node can stand for a familiar quantity. Encoding them in the
    DSL lets the enumerator find fruitful candidates within a small depth
    budget (§3.3): the paper's Reno result [CWND + .7 * reno-inc] is depth 3
    only because [reno-inc] is one node. *)

open Abg_util

type t =
  | Reno_inc  (** ACKed * MSS / CWND — Reno's per-ACK additive increase *)
  | Vegas_diff
      (** (RTT - minRTT) * ack-rate / MSS — estimated packets queued at the
          bottleneck (Vegas's expected-vs-actual rate difference) *)
  | Htcp_diff  (** (RTT - minRTT) / maxRTT — H-TCP's relative RTT variation *)
  | Rtts_since_loss
      (** time-since-loss / RTT — elapsed time measured in RTTs, as used by
          BBR's cycle logic *)

let all = [ Reno_inc; Vegas_diff; Htcp_diff; Rtts_since_loss ]

let name = function
  | Reno_inc -> "reno-inc"
  | Vegas_diff -> "vegas-diff"
  | Htcp_diff -> "htcp-diff"
  | Rtts_since_loss -> "RTTs-since-loss"

let of_name s = List.find_opt (fun m -> String.equal (name m) s) all

let unit_of = function
  | Reno_inc -> Units.bytes
  | Vegas_diff -> Units.dimensionless
  | Htcp_diff -> Units.dimensionless
  | Rtts_since_loss -> Units.dimensionless

let eval (env : Env.t) = function
  | Reno_inc -> Floatx.safe_div (env.acked_bytes *. env.mss) env.cwnd
  | Vegas_diff ->
      Floatx.safe_div ((env.rtt -. env.min_rtt) *. env.ack_rate) env.mss
  | Htcp_diff -> Floatx.safe_div (env.rtt -. env.min_rtt) env.max_rtt
  | Rtts_since_loss -> Floatx.safe_div env.time_since_loss env.rtt

let equal (a : t) b = a = b
let compare (a : t) b = Stdlib.compare a b
