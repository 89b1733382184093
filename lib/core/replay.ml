(** Candidate-handler replay (§3.1).

    Given a trace segment collected from the ground-truth CCA, a candidate
    cwnd-ack handler is executed in simulation over the *same* sequence of
    events and congestion signals: for every ACK record, the handler
    computes a new window from the recorded signals and its own current
    window (statefulness flows only through the window). The resulting
    series is the candidate's *synthesized trace*, compared against the
    observed trace with a distance metric.

    Two write-ups of the same loop live here. The plain
    {!synthesize}/{!distance} functions are the simple one-shot API. The
    {!prepared} API is the scoring hot path: a segment's record
    environments, ground-truth preparation ({!Abg_distance.Metric.prepare})
    and output buffer are built once, after which replaying a candidate
    costs one compiled-closure call plus one field store per record —
    no allocation, no per-record environment rebuild. A [prepared] value
    holds mutable scratch (each env's [cwnd], written before it is read,
    and the output buffer), so one replay may run on it at a time. *)

open Abg_dsl

(* Keep candidate windows in a sane numeric range: a wild handler (e.g. a
   cube of a cube) must score badly, not overflow the distance
   arithmetic. *)
let cwnd_ceiling = 1e12

type compiled = Env.t -> float
(** A handler staged by {!Compile.handler}: compile once, replay many. *)

let compile = Compile.handler

(** [synthesize_compiled f segment] — the candidate's window series over
    the segment, starting from the ground truth's initial window. *)
let synthesize_compiled (f : compiled) (segment : Abg_trace.Segmentation.segment) =
  let records = segment.Abg_trace.Segmentation.records in
  let n = Array.length records in
  let out = Array.make n 0.0 in
  let cwnd = ref (Abg_trace.Record.observed_cwnd records.(0)) in
  (* One scratch environment for the whole replay (see Env mutability). *)
  let env = Env.copy Env.example in
  for i = 0 to n - 1 do
    Abg_trace.Record.load_env env records.(i) ~cwnd:!cwnd;
    (* = Float.min cwnd_ceiling v: the handler guard rules out NaN. *)
    let v = f env in
    cwnd := if v > cwnd_ceiling then cwnd_ceiling else v;
    out.(i) <- !cwnd
  done;
  out

(** [synthesize expr segment] — {!synthesize_compiled} after staging the
    handler once (rather than interpreting it per record). *)
let synthesize expr segment = synthesize_compiled (compile expr) segment

type prepared = {
  segment : Abg_trace.Segmentation.segment;
  truth : Abg_distance.Metric.prepared;
  envs : Env.t array;  (* one env per record; only [cwnd] changes per replay *)
  cwnd0 : float;
  scratch : float array;  (* synthesized series, reused across candidates *)
}

(** [prepare ?metric ?length segment] builds a segment's replay state
    and prepares its ground truth (once per segment, not once per
    candidate). *)
let prepare ?(metric = Abg_distance.Metric.default) ?length
    (segment : Abg_trace.Segmentation.segment) =
  let truth =
    Abg_distance.Metric.prepare ?length metric
      ~truth:(Abg_trace.Segmentation.observed segment)
  in
  let records = segment.Abg_trace.Segmentation.records in
  let n = Array.length records in
  let envs =
    Array.init n (fun i -> Abg_trace.Record.to_env records.(i) ~cwnd:0.0)
  in
  let cwnd0 =
    if n = 0 then 0.0 else Abg_trace.Record.observed_cwnd records.(0)
  in
  { segment; truth; envs; cwnd0; scratch = Array.make n 0.0 }

(** [synthesize_prepared p f] replays a compiled handler over a prepared
    segment. Returns [p.scratch] — valid until the next replay on [p]. *)
let synthesize_prepared (p : prepared) (f : compiled) =
  let envs = p.envs and out = p.scratch in
  let n = Array.length envs in
  let cwnd = ref p.cwnd0 in
  for i = 0 to n - 1 do
    (* Indices are loop-bounded; unsafe access keeps the per-record cost
       to the closure call plus a handful of moves. *)
    let env = Array.unsafe_get envs i in
    env.Env.cwnd <- !cwnd;
    let v = f env in
    let v = if v > cwnd_ceiling then cwnd_ceiling else v in
    cwnd := v;
    Array.unsafe_set out i v
  done;
  out

(** [distance_prepared ?cutoff p f] — distance of a compiled candidate
    against the prepared truth of one segment. See
    {!Abg_distance.Metric.compute_prepared} for [cutoff] semantics. *)
let distance_prepared ?cutoff (p : prepared) (f : compiled) =
  let candidate = synthesize_prepared p f in
  Abg_distance.Metric.compute_prepared ?cutoff p.truth ~candidate

(** [total_distance_prepared ?acc ?cutoff ps f] — sum of per-segment
    distances, abandoning with [infinity] as soon as the running sum
    provably (strictly) exceeds [cutoff]: each segment is scored with the
    *remaining* budget [cutoff - acc], and distances are nonnegative, so
    any [infinity] below is a sound "worse than the incumbent". Results
    at or below [cutoff] are exact.

    [acc] (default [0.]) seeds the running sum: passing the exact
    distance of segments already scored continues the same left fold,
    [((acc + d1) + d2) + …], so the result is bit-identical to scoring
    those segments here first. *)
let total_distance_prepared ?(acc = 0.0) ?(cutoff = infinity) ps
    (f : compiled) =
  let rec go acc = function
    | [] -> acc
    | p :: rest ->
        if acc > cutoff then infinity
        else go (acc +. distance_prepared ~cutoff:(cutoff -. acc) p f) rest
  in
  go acc ps

(** [distance ?metric ?cutoff expr segment] — distance between the
    synthesized and observed window series of one segment. *)
let distance ?(metric = Abg_distance.Metric.default) ?cutoff expr segment =
  let truth = Abg_trace.Segmentation.observed segment in
  let candidate = synthesize expr segment in
  Abg_distance.Metric.compute ?cutoff metric ~truth ~candidate

(** [total_distance ?metric ?cutoff expr segments] — the sum used
    throughout the paper's Table 2 ("sum of DTW distances ... over the
    trace segments used to synthesize each CCA"). [cutoff] as in
    {!total_distance_prepared}. *)
let total_distance ?(metric = Abg_distance.Metric.default) ?(cutoff = infinity)
    expr segments =
  let f = compile expr in
  let rec go acc = function
    | [] -> acc
    | seg :: rest ->
        if acc > cutoff then infinity
        else
          let truth = Abg_trace.Segmentation.observed seg in
          let candidate = synthesize_compiled f seg in
          let d =
            Abg_distance.Metric.compute ~cutoff:(cutoff -. acc) metric ~truth
              ~candidate
          in
          go (acc +. d) rest
  in
  go 0.0 segments
