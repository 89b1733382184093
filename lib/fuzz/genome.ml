(** Scenario genome: the fuzzer's search representation.

    A genome is a flat float vector, one value per gene, decoded into an
    extended {!Abg_netsim.Config.t} by {!to_config}. Several genes are
    *gated*: a value below (or above) an activation threshold switches
    the corresponding scenario feature off entirely, so the search can
    discover both that a feature matters and that it does not. Operators
    ({!random}, {!mutate}, {!crossover}) draw exclusively from the
    seeded {!Abg_util.Rng} streams handed to them — no wall clock, no
    [Stdlib.Random] — which makes a whole evolution run a pure function
    of its seed. *)

open Abg_util

type spec = { name : string; lo : float; hi : float }

(* The gene table is the genome's schema: encode/decode, mutation ranges
   and the report all derive from it. Append-only — reordering or
   resizing it changes the meaning of every persisted genome. *)
let genes =
  [|
    { name = "bandwidth_mbps"; lo = 2.0; hi = 40.0 };
    { name = "rtt_ms"; lo = 5.0; hi = 200.0 };
    { name = "queue_factor"; lo = 0.5; hi = 4.0 };
    { name = "loss_rate"; lo = 0.0; hi = 0.03 };
    { name = "ack_jitter_ms"; lo = 0.0; hi = 5.0 };
    (* Bandwidth step: at step_at x duration the link rate becomes
       step_frac x base. Fractions within 5% of 1.0 decode to "no step". *)
    { name = "step_frac"; lo = 0.25; hi = 1.5 };
    { name = "step_at"; lo = 0.1; hi = 0.9 };
    (* Cross traffic, as a fraction of the bottleneck rate; below the
       activation floor there is no cross flow. off_frac below its floor
       decodes to a constant (always-on) flow. *)
    { name = "cross_frac"; lo = 0.0; hi = 0.8 };
    { name = "cross_on_s"; lo = 0.2; hi = 5.0 };
    { name = "cross_off_frac"; lo = 0.0; hi = 1.5 };
    (* Bursty outages: Poisson rate and per-outage darkness. *)
    { name = "outages_per_s"; lo = 0.0; hi = 0.5 };
    { name = "outage_ms"; lo = 10.0; hi = 400.0 };
    (* Reordering. *)
    { name = "reorder_prob"; lo = 0.0; hi = 0.2 };
    { name = "reorder_ms"; lo = 1.0; hi = 50.0 };
    (* Queue discipline: >= 0.5 decodes to RED with max_p below. *)
    { name = "red"; lo = 0.0; hi = 1.0 };
    { name = "red_max_p"; lo = 0.02; hi = 0.3 };
  |]

let length = Array.length genes

type t = float array

let clamp (g : spec) v = Float.min g.hi (Float.max g.lo v)

let random rng : t =
  Array.map (fun g -> g.lo +. (Rng.float rng *. (g.hi -. g.lo))) genes

let obs_mutations = Abg_obs.Obs.Counter.make "fuzz.mutations"

(** Per-gene Gaussian mutation: each gene moves with probability [rate],
    by a step of stddev 15% of its range, clamped back into range. *)
let mutate ?(rate = 0.25) rng (t : t) : t =
  Array.mapi
    (fun i v ->
      if Rng.float rng < rate then begin
        Abg_obs.Obs.Counter.incr obs_mutations;
        let g = genes.(i) in
        clamp g (v +. Rng.normal rng ~mean:0.0 ~stddev:(0.15 *. (g.hi -. g.lo)))
      end
      else v)
    t

(** Uniform crossover: each gene comes from either parent with equal
    probability. *)
let crossover rng (a : t) (b : t) : t =
  Array.init length (fun i -> if Rng.bool rng then a.(i) else b.(i))

(* Activation floors for the gated genes (see the table above). *)
let cross_floor = 0.05
let off_floor = 0.05
let outage_floor = 0.02
let reorder_floor = 0.005

(** [to_config ~duration ~seed t] decodes a genome into an extended
    scenario. [seed] is fixed by the fuzz spec (not evolved), so equal
    genomes decode to the same scenario, and score the same, in every
    generation. *)
let to_config ~duration ~seed (t : t) =
  let g i = t.(i) in
  let bandwidth_mbps = g 0 and rtt_ms = g 1 in
  let bandwidth_bps = bandwidth_mbps *. 1e6 in
  let bdp_pkts =
    Float.max 1.0
      (Float.ceil (bandwidth_bps /. 8.0 *. (rtt_ms /. 1000.0) /. 1448.0))
  in
  let queue_capacity = Stdlib.max 8 (int_of_float (bdp_pkts *. g 2)) in
  let bandwidth_steps =
    if Float.abs (g 5 -. 1.0) < 0.05 then []
    else [ (g 6 *. duration, g 5 *. bandwidth_bps) ]
  in
  let cross =
    if g 7 < cross_floor then []
    else begin
      let rate_bps = g 7 *. bandwidth_bps in
      if g 9 < off_floor then [ Abg_netsim.Config.Constant { rate_bps } ]
      else
        [
          Abg_netsim.Config.On_off
            { rate_bps; on_s = g 8; off_s = g 9 *. g 8 };
        ]
    end
  in
  let outage_rate, outage_duration =
    if g 10 < outage_floor then (0.0, 0.0) else (g 10, g 11 /. 1000.0)
  in
  let reorder_prob, reorder_delay =
    if g 12 < reorder_floor then (0.0, 0.0) else (g 12, g 13 /. 1000.0)
  in
  let qdisc =
    if g 14 < 0.5 then Abg_netsim.Config.Droptail
    else begin
      let min_th = Stdlib.max 2 (queue_capacity / 4) in
      let max_th = Stdlib.max (min_th + 1) (queue_capacity * 3 / 4) in
      Abg_netsim.Config.Red { min_th; max_th; max_p = g 15 }
    end
  in
  Abg_netsim.Config.make ~duration ~seed ~loss_rate:(g 3)
    ~ack_jitter:(g 4 /. 1000.0) ~queue_capacity ~bandwidth_steps ~cross
    ~outage_rate ~outage_duration ~reorder_prob ~reorder_delay ~qdisc
    ~bandwidth_mbps ~rtt_ms ()

(** Canonical lossless rendering: semicolon-joined hex floats in gene
    order. Doubles as the genome's identity for job digests and
    dedup. *)
let encode (t : t) =
  String.concat ";" (Array.to_list (Array.map (Printf.sprintf "%h") t))

let decode s =
  match String.split_on_char ';' s with
  | parts when List.length parts = length -> (
      try Some (Array.of_list (List.map float_of_string parts))
      with Failure _ -> None)
  | _ -> None

(** Stable 32-hex identity of a genome — what CI pins. *)
let fingerprint t = Digest.to_hex (Digest.string (encode t))
