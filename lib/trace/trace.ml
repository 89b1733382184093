(** Trace collection: run a ground-truth CCA through the simulated testbed
    and derive the full congestion-signal record stream (§3.2).

    The derived signals mirror what a measurement tool computes from a raw
    packet capture: running min/max RTT, an EWMA delivery rate, smoothed
    RTT and queueing-delay gradients, time since the last loss event, and
    the window at that loss. *)

open Abg_netsim

type t = {
  cca_name : string;
  scenario : string;
  config : Config.t;
  records : Record.t array;
  loss_times : float array;
}

let length trace = Array.length trace.records

(** [collect cfg ~name constructor] simulates one flow and returns its
    trace. *)
let collect cfg ~name (constructor : Abg_cca.Cca_sig.constructor) =
  let records = ref [] in
  let losses = ref [] in
  let n_records = ref 0 in
  let min_rtt = ref infinity in
  let max_rtt = ref 0.0 in
  let ack_rate = ref 0.0 in
  let prev_rtt = ref nan in
  let prev_time = ref nan in
  let rtt_gradient = ref 0.0 in
  let delay_gradient = ref 0.0 in
  let last_loss = ref 0.0 in
  let wmax = ref 0.0 in
  let last_cwnd = ref 0.0 in
  let mss = cfg.Config.mss in
  (* Rate and gradient estimation over >= 5 ms windows: per-ACK
     instantaneous samples are meaningless under ACK-path jitter (two
     coalesced arrivals yield a near-zero dt), and a real measurement tool
     aggregates exactly this way. *)
  let window_start = ref nan in
  let window_bytes = ref 0.0 in
  let window_first_rtt = ref nan in
  let window_tainted = ref false in
  let on_ack_obs (obs : Sim.ack_observation) =
    let rtt = obs.Sim.rtt_sample in
    if rtt > 0.0 then begin
      min_rtt := Float.min !min_rtt rtt;
      max_rtt := Float.max !max_rtt rtt
    end;
    (if Float.is_nan !window_start then begin
       window_start := obs.Sim.time;
       window_first_rtt := rtt
     end
     else begin
       (* Cumulative jumps out of loss recovery are not delivery-rate
          evidence; a window containing one is discarded. *)
       if obs.Sim.acked_bytes > 1.5 *. mss then window_tainted := true
       else window_bytes := !window_bytes +. obs.Sim.acked_bytes;
       let span = obs.Sim.time -. !window_start in
       let min_span =
         if Float.is_finite !min_rtt then Float.max 0.005 !min_rtt else 0.005
       in
       if span >= min_span && not !window_tainted then begin
         let rate_sample = !window_bytes /. span in
         ack_rate :=
           if !ack_rate = 0.0 then rate_sample
           else (0.7 *. !ack_rate) +. (0.3 *. rate_sample);
         let grad_sample = (rtt -. !window_first_rtt) /. span in
         rtt_gradient := (0.7 *. !rtt_gradient) +. (0.3 *. grad_sample);
         (* Queueing-delay gradient, normalized by the base RTT so it is
            dimensionless and comparable across scenarios. *)
         let dg_sample =
           (rtt -. !window_first_rtt) /. span *. 1.0
           /. Float.max 1e-4 !min_rtt *. 0.005
         in
         delay_gradient := (0.7 *. !delay_gradient) +. (0.3 *. dg_sample);
         window_start := obs.Sim.time;
         window_bytes := 0.0;
         window_first_rtt := rtt
       end
       else if !window_tainted && span >= min_span then begin
         window_start := obs.Sim.time;
         window_bytes := 0.0;
         window_first_rtt := rtt;
         window_tainted := false
       end
     end);
    prev_rtt := rtt;
    prev_time := obs.Sim.time;
    last_cwnd := obs.Sim.in_flight;
    let record =
      {
        Record.time = obs.Sim.time;
        cwnd = obs.Sim.cwnd;
        in_flight = obs.Sim.in_flight;
        acked_bytes = obs.Sim.acked_bytes;
        rtt;
        min_rtt = (if Float.is_finite !min_rtt then !min_rtt else rtt);
        max_rtt = (if !max_rtt > 0.0 then !max_rtt else rtt);
        ack_rate = (if !ack_rate > 0.0 then !ack_rate else obs.Sim.acked_bytes /. Float.max 1e-3 rtt);
        rtt_gradient = !rtt_gradient;
        delay_gradient = !delay_gradient;
        time_since_loss = obs.Sim.time -. !last_loss;
        wmax = (if !wmax > 0.0 then !wmax else obs.Sim.in_flight);
        mss;
      }
    in
    records := record :: !records;
    incr n_records
  in
  let on_loss_obs ~time =
    last_loss := time;
    wmax := !last_cwnd;
    losses := time :: !losses
  in
  let cca = constructor ~mss () in
  let _stats = Sim.run ~observer:{ Sim.on_ack_obs; on_loss_obs } cfg cca in
  {
    cca_name = name;
    scenario = Config.describe cfg;
    config = cfg;
    records = Array.of_list (List.rev !records);
    loss_times = Array.of_list (List.rev !losses);
  }

(** [collect_configs ~name constructor configs] collects one trace per
    explicit scenario config, each seeded by its config, on the calling
    domain (on two, these full-record simulations took the seeded synth
    over its memory bound). Every call simulates, and the traces live
    only as long as the caller holds them: a caller that asks for the
    same suite twice keeps its own memo. This is the batch orchestrator's
    entry point: a job spec names its exact {!Config.t} list. *)
let collect_configs ~name constructor configs =
  Abg_obs.Obs.span "collect-suite" @@ fun () ->
  List.map (fun cfg -> collect cfg ~name constructor) configs

(** [collect_suite ?duration ?ack_jitter ~n ~name constructor] collects
    traces for a diverse scenario grid (§3.2's RTT x bandwidth ranges) —
    {!collect_configs} over {!Config.testbed_grid}. *)
let collect_suite ?(duration = 30.0) ?ack_jitter ~n ~name constructor =
  collect_configs ~name constructor
    (Config.testbed_grid ~duration ?ack_jitter ~n ())

(** [collect_observed cfg constructor] simulates one flow and returns
    only its observed window, one value per ACK (the bytes in flight,
    which {!Record.observed_cwnd} reads): exactly the values of
    [snd (observed_series (collect cfg ~name constructor))], without
    deriving a record per ACK. For callers that read nothing but the
    window. *)
let collect_observed cfg (constructor : Abg_cca.Cca_sig.constructor) =
  let values = ref (Array.make 1024 0.0) in
  let n = ref 0 in
  let on_ack_obs (obs : Sim.ack_observation) =
    if !n = Array.length !values then begin
      let grown = Array.make (2 * !n) 0.0 in
      Array.blit !values 0 grown 0 !n;
      values := grown
    end;
    (!values).(!n) <- obs.Sim.in_flight;
    incr n
  in
  let observer = { Sim.null_observer with Sim.on_ack_obs } in
  ignore (Sim.run ~observer cfg (constructor ~mss:cfg.Config.mss ()));
  Array.sub !values 0 !n

(** Observed (visible) CWND series and its timestamps. *)
let observed_series trace =
  let n = Array.length trace.records in
  let times = Array.make n 0.0 in
  let values = Array.make n 0.0 in
  Array.iteri
    (fun i r ->
      times.(i) <- r.Record.time;
      values.(i) <- Record.observed_cwnd r)
    trace.records;
  (times, values)
