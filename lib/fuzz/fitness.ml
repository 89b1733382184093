(** Fitness functions for the adversarial scenario search.

    All three are deterministic pure functions of (spec, genome): each
    evaluation runs the seeded simulator afresh, and the distance kernels
    are the same ones the paper's pipeline scores with. No trace outlives
    the evaluation that simulated it. Higher fitness = more adversarial. *)

open Abg_netsim

type kind =
  | Divergence  (** DTW between two named CCAs' CWND traces — maximize *)
  | Counterexample
      (** distance of a synthesized handler vs its ground truth —
          maximize (the search hunts scenarios the handler gets wrong) *)
  | Throughput  (** 1 - link utilization of the CCA flow — maximize *)

let kind_name = function
  | Divergence -> "divergence"
  | Counterexample -> "counterexample"
  | Throughput -> "throughput"

let kind_of_name = function
  | "divergence" -> Some Divergence
  | "counterexample" -> Some Counterexample
  | "throughput" -> Some Throughput
  | _ -> None

(** The per-evaluation inputs beyond the scenario itself. [cca] is the
    flow under test; [cca_b] names the second flow of a divergence pair;
    [handler] is the synthesized handler a counterexample search attacks. *)
type spec = {
  kind : kind;
  cca : string;
  cca_b : string option;
  handler : Abg_dsl.Expr.num option;
}

let obs_evaluations = Abg_obs.Obs.Counter.make "fuzz.evaluations"

let constructor_of cca =
  match Abg_cca.Registry.find cca with
  | Some ctor -> ctor
  | None -> failwith (Printf.sprintf "fuzz: unknown CCA %s" cca)

(* A whole trace as one segment (the synthesis fallback shape): the
   counterexample fitness scores the handler over everything the
   scenario produced, not just between losses — an adversarial scenario
   is allowed to win by provoking pathological loss patterns. *)
let whole_segment (tr : Abg_trace.Trace.t) =
  {
    Abg_trace.Segmentation.cca_name = tr.Abg_trace.Trace.cca_name;
    scenario = tr.Abg_trace.Trace.scenario;
    start_time = tr.Abg_trace.Trace.records.(0).Abg_trace.Record.time;
    records = tr.Abg_trace.Trace.records;
  }

(* Divergence reads nothing but the two observed windows, so it
   simulates straight into them: no per-ACK records. *)
let divergence ~cca_a ~cca_b cfg =
  let va = Abg_trace.Trace.collect_observed cfg (constructor_of cca_a) in
  let vb = Abg_trace.Trace.collect_observed cfg (constructor_of cca_b) in
  if Array.length va < 2 || Array.length vb < 2 then 0.0
  else Abg_distance.Metric.compute Abg_distance.Metric.default ~truth:va
      ~candidate:vb

let counterexample ~cca ~handler cfg =
  let tr = Abg_trace.Trace.collect cfg ~name:cca (constructor_of cca) in
  if Array.length tr.Abg_trace.Trace.records < 2 then 0.0
  else
    let d = Abg_core.Replay.distance handler (whole_segment tr) in
    if Float.is_nan d then 0.0 else d

let starvation ~cca cfg =
  let ctor = constructor_of cca in
  let stats = Sim.run cfg (ctor ~mss:cfg.Config.mss ()) in
  let capacity = Config.capacity_bytes cfg in
  if capacity <= 0.0 then 0.0
  else
    Float.max 0.0 (1.0 -. (stats.Sim.delivered_bytes /. capacity))

(** [evaluate spec cfg] scores one decoded scenario. Raises on a spec
    that names an unknown CCA or lacks a required field — the batch
    runner's quarantine machinery contains it. *)
let evaluate (spec : spec) cfg =
  Abg_obs.Obs.Counter.incr obs_evaluations;
  match spec.kind with
  | Divergence -> (
      match spec.cca_b with
      | Some cca_b -> divergence ~cca_a:spec.cca ~cca_b cfg
      | None -> failwith "fuzz: divergence fitness needs two CCAs")
  | Counterexample -> (
      match spec.handler with
      | Some handler -> counterexample ~cca:spec.cca ~handler cfg
      | None -> failwith "fuzz: counterexample fitness needs a handler")
  | Throughput -> starvation ~cca:spec.cca cfg
