(** Network scenario configuration.

    Matches the paper's trace-collection testbed (§3.2): a single
    bottleneck with RTTs between 10 and 100 ms and bandwidth between 5 and
    15 Mbit/s, a DropTail queue, and one bulk flow. Optional impairments
    (iid random loss, ACK-path jitter) model measurement noise.

    On top of the testbed core, the adversarial-scenario search
    (DESIGN.md §12) mutates an *extended* space: cross-traffic flows
    sharing the bottleneck, piecewise bandwidth step schedules, bursty
    link outages, packet reordering, and a RED queue discipline. All
    extended knobs default to neutral values under which the simulator
    is bit-identical to the original testbed simulator. *)

(** Queue discipline at the bottleneck. [Droptail] drops only on a full
    buffer; [Red] additionally drops probabilistically as the EWMA queue
    occupancy moves between [min_th] and [max_th] packets (drop
    probability ramping linearly from 0 to [max_p], then 1 above
    [max_th]). *)
type qdisc = Droptail | Red of { min_th : int; max_th : int; max_p : float }

(** A competing flow at the bottleneck. [Constant] offers [rate_bps]
    continuously; [On_off] alternates [on_s] seconds of offering
    [rate_bps] with [off_s] seconds of silence (square-wave bursts). *)
type cross_flow =
  | Constant of { rate_bps : float }
  | On_off of { rate_bps : float; on_s : float; off_s : float }

type t = {
  bandwidth_bps : float;  (** bottleneck rate, bits per second *)
  rtt_prop : float;  (** two-way propagation delay, seconds *)
  queue_capacity : int;  (** bottleneck buffer, packets *)
  mss : float;  (** segment size, bytes *)
  duration : float;  (** simulated seconds *)
  seed : int;  (** PRNG seed for impairments *)
  loss_rate : float;  (** iid packet drop probability at the queue *)
  ack_jitter : float;  (** stddev of Gaussian ACK-path jitter, seconds *)
  bandwidth_steps : (float * float) list;
      (** piecewise bandwidth schedule: [(t, bps)] means the link rate
          becomes [bps] at simulated time [t]. Sorted ascending; empty
          means the rate is [bandwidth_bps] throughout. *)
  cross : cross_flow list;  (** competing flows at the bottleneck *)
  outage_rate : float;
      (** mean link outages per second (Poisson arrivals); 0 = none *)
  outage_duration : float;  (** seconds the link stays dark per outage *)
  reorder_prob : float;
      (** probability a delivered data packet is held back and re-injected
          [reorder_delay] later, arriving behind its successors *)
  reorder_delay : float;  (** extra one-way delay of a reordered packet *)
  qdisc : qdisc;  (** bottleneck queue discipline *)
}

let default =
  {
    bandwidth_bps = 10e6;
    rtt_prop = 0.05;
    queue_capacity = 60;
    mss = 1448.0;
    duration = 30.0;
    seed = 42;
    loss_rate = 0.0;
    ack_jitter = 0.0;
    bandwidth_steps = [];
    cross = [];
    outage_rate = 0.0;
    outage_duration = 0.0;
    reorder_prob = 0.0;
    reorder_delay = 0.0;
    qdisc = Droptail;
  }

(** Whether every extended-scenario knob sits at its neutral default —
    i.e. the config describes a plain §3.2 testbed scenario. Neutral
    configs digest identically to the pre-extension 8-field format, so
    existing batch-job digests and pinned CI bytes are untouched. *)
let is_neutral_extension cfg =
  cfg.bandwidth_steps = [] && cfg.cross = [] && cfg.outage_rate = 0.0
  && cfg.outage_duration = 0.0 && cfg.reorder_prob = 0.0
  && cfg.reorder_delay = 0.0 && cfg.qdisc = Droptail

(** Bandwidth-delay product in bytes (at the base rate). *)
let bdp cfg = cfg.bandwidth_bps /. 8.0 *. cfg.rtt_prop

(** Receive-window clamp, bytes: no sender can have more than this
    outstanding regardless of its congestion window — as with any real TCP
    peer's advertised window. Set to 4x the path capacity (BDP plus
    buffer), generous enough never to bind for a sane CCA while bounding
    the damage a runaway window estimate can do. *)
let rwnd cfg =
  4.0 *. (bdp cfg +. (float_of_int cfg.queue_capacity *. cfg.mss))

(** [bandwidth_at cfg ~time] is the scheduled link rate at simulated
    [time]: the base rate until the first step, then the rate of the last
    step at or before [time]. *)
let bandwidth_at cfg ~time =
  List.fold_left
    (fun rate (t, bps) -> if t <= time then bps else rate)
    cfg.bandwidth_bps cfg.bandwidth_steps

(** [capacity_bytes cfg] integrates the bandwidth schedule over the full
    duration: the maximum bytes the link could carry, ignoring outages.
    The throughput-minimizing fitness normalizes against this. *)
let capacity_bytes cfg =
  let rec go t rate acc = function
    | [] -> acc +. ((cfg.duration -. t) *. rate /. 8.0)
    | (st, bps) :: rest ->
        let st = Float.min (Float.max st t) cfg.duration in
        go st bps (acc +. ((st -. t) *. rate /. 8.0)) rest
  in
  go 0.0 cfg.bandwidth_bps 0.0 cfg.bandwidth_steps

(** [make ~bandwidth_mbps ~rtt_ms ()] builds a scenario with a queue sized
    to 1.75x the BDP. Deep enough that BBR's PROBE_BW pulses (inflight up
    to 2.5x BDP at the probing gain) show up as *window* excursions rather
    than being clipped into loss storms — matching the clean pulse traces
    of the paper's Figure 4 — while still shallow enough that loss-based
    CCAs see regular congestion signals. *)
let make ?(duration = 30.0) ?(seed = 42) ?(loss_rate = 0.0)
    ?(ack_jitter = 0.0) ?queue_capacity ?(bandwidth_steps = []) ?(cross = [])
    ?(outage_rate = 0.0) ?(outage_duration = 0.0) ?(reorder_prob = 0.0)
    ?(reorder_delay = 0.0) ?(qdisc = Droptail) ~bandwidth_mbps ~rtt_ms () =
  let bandwidth_bps = bandwidth_mbps *. 1e6 in
  let rtt_prop = rtt_ms /. 1000.0 in
  let bdp_pkts =
    int_of_float (Float.ceil (bandwidth_bps /. 8.0 *. rtt_prop /. 1448.0))
  in
  let queue_capacity =
    match queue_capacity with
    | Some q -> q
    | None -> Stdlib.max 12 (bdp_pkts * 7 / 4)
  in
  {
    bandwidth_bps;
    rtt_prop;
    queue_capacity;
    mss = 1448.0;
    duration;
    seed;
    loss_rate;
    ack_jitter;
    bandwidth_steps;
    cross;
    outage_rate;
    outage_duration;
    reorder_prob;
    reorder_delay;
    qdisc;
  }

(** [perturbations cfg] returns one variant of [cfg] per field, each
    differing from [cfg] in exactly that field. Exhaustive by
    construction: the pattern binds every field, with no [; _], and each
    binding is read only by its own field's variant. A new field left
    out of the pattern is an unbound label (warning 9), and one bound
    but given no variant is an unused variable (warning 27); the dev
    profile makes both errors. The digest-coverage test asserts every
    variant digests differently. *)
let perturbations
    ({
       bandwidth_bps;
       rtt_prop;
       queue_capacity;
       mss;
       duration;
       seed;
       loss_rate;
       ack_jitter;
       bandwidth_steps;
       cross;
       outage_rate;
       outage_duration;
       reorder_prob;
       reorder_delay;
       qdisc;
     } as cfg) =
  [
    ("bandwidth_bps", { cfg with bandwidth_bps = bandwidth_bps +. 1.0 });
    ("rtt_prop", { cfg with rtt_prop = rtt_prop +. 1e-6 });
    ("queue_capacity", { cfg with queue_capacity = queue_capacity + 1 });
    ("mss", { cfg with mss = mss +. 1.0 });
    ("duration", { cfg with duration = duration +. 1.0 });
    ("seed", { cfg with seed = seed + 1 });
    ("loss_rate", { cfg with loss_rate = loss_rate +. 1e-4 });
    ("ack_jitter", { cfg with ack_jitter = ack_jitter +. 1e-5 });
    ( "bandwidth_steps",
      { cfg with bandwidth_steps = (1.0, 5e6) :: bandwidth_steps } );
    ("cross", { cfg with cross = Constant { rate_bps = 1e6 } :: cross });
    ("outage_rate", { cfg with outage_rate = outage_rate +. 0.01 });
    ( "outage_duration",
      { cfg with outage_duration = outage_duration +. 0.05 } );
    ("reorder_prob", { cfg with reorder_prob = reorder_prob +. 0.01 });
    ("reorder_delay", { cfg with reorder_delay = reorder_delay +. 0.01 });
    ( "qdisc",
      {
        cfg with
        qdisc =
          (match qdisc with
          | Droptail -> Red { min_th = 5; max_th = 15; max_p = 0.1 }
          | Red r -> Red { r with max_p = r.max_p +. 0.01 });
      } );
  ]

(** The diversity grid of §3.2: RTT x bandwidth combinations spanning the
    testbed ranges. [n] picks roughly [n] scenarios from the grid.

    The default 1 ms ACK-path jitter models the measurement noise any real
    vantage point exhibits; it is load-bearing for synthesis quality: with
    perfectly clean signals, "echo" handlers that reconstruct the window
    from instantaneous rate x delay fit every trace perfectly and drown
    out the structural handlers the search is after. *)
let testbed_grid ?(duration = 30.0) ?(ack_jitter = 0.001) ~n () =
  let rtts = [ 10.0; 25.0; 50.0; 75.0; 100.0 ] in
  let bws = [ 5.0; 8.0; 10.0; 12.0; 15.0 ] in
  let all =
    List.concat_map
      (fun rtt_ms ->
        List.map (fun bandwidth_mbps ->
            make ~duration ~ack_jitter
              ~seed:(int_of_float (rtt_ms +. (bandwidth_mbps *. 1000.0)))
              ~bandwidth_mbps ~rtt_ms ())
          bws)
      rtts
  in
  let total = List.length all in
  let keep = Stdlib.max 1 (Stdlib.min n total) in
  (* Evenly strided subset of the grid, so a small [n] still spans the
     full RTT x bandwidth ranges. *)
  List.filteri (fun i _ -> i * keep mod total < keep) all

let steps_to_string = function
  | [] -> "-"
  | steps ->
      String.concat ";"
        (List.map (fun (t, bps) -> Printf.sprintf "%h,%h" t bps) steps)

let steps_of_string = function
  | "-" -> []
  | s ->
      List.map
        (fun part ->
          match String.split_on_char ',' part with
          | [ t; bps ] -> (float_of_string t, float_of_string bps)
          | _ -> failwith "steps")
        (String.split_on_char ';' s)

let cross_to_string = function
  | [] -> "-"
  | flows ->
      String.concat ";"
        (List.map
           (function
             | Constant { rate_bps } -> Printf.sprintf "c,%h" rate_bps
             | On_off { rate_bps; on_s; off_s } ->
                 Printf.sprintf "o,%h,%h,%h" rate_bps on_s off_s)
           flows)

let cross_of_string = function
  | "-" -> []
  | s ->
      List.map
        (fun part ->
          match String.split_on_char ',' part with
          | [ "c"; rate ] -> Constant { rate_bps = float_of_string rate }
          | [ "o"; rate; on_s; off_s ] ->
              On_off
                {
                  rate_bps = float_of_string rate;
                  on_s = float_of_string on_s;
                  off_s = float_of_string off_s;
                }
          | _ -> failwith "cross")
        (String.split_on_char ';' s)

let qdisc_to_string = function
  | Droptail -> "droptail"
  | Red { min_th; max_th; max_p } ->
      Printf.sprintf "red,%d,%d,%h" min_th max_th max_p

let qdisc_of_string = function
  | "droptail" -> Droptail
  | s -> (
      match String.split_on_char ',' s with
      | [ "red"; min_th; max_th; max_p ] ->
          Red
            {
              min_th = int_of_string min_th;
              max_th = int_of_string max_th;
              max_p = float_of_string max_p;
            }
      | _ -> failwith "qdisc")

(** [digest cfg] is a canonical, collision-free rendering of every field
    (floats in lossless hex notation), so two configs share a digest iff
    every parameter, including the seed, is bit-identical. Batch job
    specs name their configs by it.

    Configs whose extended-scenario knobs all sit at their neutral
    defaults render in the original 8-field format, byte-identical to the
    pre-fuzz digest — preserving every persisted batch run directory and
    pinned CI artifact. Extended configs append a [v2] section covering
    every new field to the ULP. *)
let digest cfg =
  let base =
    Printf.sprintf "%h|%h|%d|%h|%h|%d|%h|%h" cfg.bandwidth_bps cfg.rtt_prop
      cfg.queue_capacity cfg.mss cfg.duration cfg.seed cfg.loss_rate
      cfg.ack_jitter
  in
  if is_neutral_extension cfg then base
  else
    Printf.sprintf "%s|v2|%s|%s|%h|%h|%h|%h|%s" base
      (steps_to_string cfg.bandwidth_steps)
      (cross_to_string cfg.cross)
      cfg.outage_rate cfg.outage_duration cfg.reorder_prob cfg.reorder_delay
      (qdisc_to_string cfg.qdisc)

(* A {!digest} rendering's fields, read back unchecked. *)
let parse_digest s =
  match String.split_on_char '|' s with
  | bandwidth_bps :: rtt_prop :: queue_capacity :: mss :: duration :: seed
    :: loss_rate :: ack_jitter :: rest -> (
      try
        let base =
          {
            default with
            bandwidth_bps = float_of_string bandwidth_bps;
            rtt_prop = float_of_string rtt_prop;
            queue_capacity = int_of_string queue_capacity;
            mss = float_of_string mss;
            duration = float_of_string duration;
            seed = int_of_string seed;
            loss_rate = float_of_string loss_rate;
            ack_jitter = float_of_string ack_jitter;
          }
        in
        match rest with
        | [] -> Some base
        | [ "v2"; steps; cross; outage_rate; outage_duration; reorder_prob;
            reorder_delay; qdisc ] ->
            Some
              {
                base with
                bandwidth_steps = steps_of_string steps;
                cross = cross_of_string cross;
                outage_rate = float_of_string outage_rate;
                outage_duration = float_of_string outage_duration;
                reorder_prob = float_of_string reorder_prob;
                reorder_delay = float_of_string reorder_delay;
                qdisc = qdisc_of_string qdisc;
              }
        | _ -> None
      with Failure _ -> None)
  | _ -> None

(* What the simulator's exactness rests on: every float finite (a NaN
   time would break the monotone first-send times that
   {!Sim.Scoreboard} searches), a positive bandwidth, RTT and MSS, and an
   integral MSS, for which the pipe counted in segments times the MSS
   equals a walk's sum of one MSS per segment. *)
let simulable cfg =
  let finite = Float.is_finite in
  List.for_all finite
    [ cfg.bandwidth_bps; cfg.rtt_prop; cfg.mss; cfg.duration; cfg.loss_rate;
      cfg.ack_jitter; cfg.outage_rate; cfg.outage_duration; cfg.reorder_prob;
      cfg.reorder_delay ]
  && List.for_all (fun (t, bps) -> finite t && finite bps) cfg.bandwidth_steps
  && List.for_all
       (function
         | Constant { rate_bps } -> finite rate_bps
         | On_off { rate_bps; on_s; off_s } ->
             finite rate_bps && finite on_s && finite off_s)
       cfg.cross
  && (match cfg.qdisc with Droptail -> true | Red { max_p; _ } -> finite max_p)
  && cfg.bandwidth_bps > 0.0 && cfg.rtt_prop > 0.0 && cfg.mss > 0.0
  && Float.is_integer cfg.mss

(** [of_digest s] parses a {!digest} rendering back into a config — the
    inverse the batch orchestrator uses to deserialize job grids. The hex
    float notation makes the round trip lossless:
    [of_digest (digest cfg) = Some cfg] for every [cfg] the simulator
    runs exactly. It is [None] for a config with a non-finite float, a
    bandwidth, RTT or MSS at or below 0, or a fractional MSS. *)
let of_digest s =
  Option.bind (parse_digest s) (fun cfg ->
      if simulable cfg then Some cfg else None)

let describe cfg =
  let base =
    Printf.sprintf "%.0fMbit/%.0fms/q%d" (cfg.bandwidth_bps /. 1e6)
      (cfg.rtt_prop *. 1000.0) cfg.queue_capacity
  in
  if is_neutral_extension cfg then base
  else
    let parts = ref [] in
    let add s = parts := s :: !parts in
    (match cfg.qdisc with
    | Droptail -> ()
    | Red { min_th; max_th; max_p } ->
        add (Printf.sprintf "red(%d,%d,%.2f)" min_th max_th max_p));
    if cfg.reorder_prob > 0.0 then
      add
        (Printf.sprintf "ro%.1f%%/%.0fms" (cfg.reorder_prob *. 100.0)
           (cfg.reorder_delay *. 1000.0));
    if cfg.outage_rate > 0.0 then
      add
        (Printf.sprintf "out%.2f/s*%.0fms" cfg.outage_rate
           (cfg.outage_duration *. 1000.0));
    List.iter
      (function
        | Constant { rate_bps } ->
            add (Printf.sprintf "x%.1fM" (rate_bps /. 1e6))
        | On_off { rate_bps; on_s; off_s } ->
            add
              (Printf.sprintf "x%.1fM(%.1fs/%.1fs)" (rate_bps /. 1e6) on_s
                 off_s))
      cfg.cross;
    if cfg.bandwidth_steps <> [] then
      add
        (Printf.sprintf "steps%d" (List.length cfg.bandwidth_steps));
    base ^ "+" ^ String.concat "+" (List.rev !parts)
