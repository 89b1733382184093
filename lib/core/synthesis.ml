(** End-to-end synthesis pipeline (Figure 1).

    Traces in, expression out: segment the traces at loss events, pick a
    diverse segment subset, choose a sub-DSL (from a classifier hint or
    explicitly), and run the refinement loop. *)

open Abg_util
open Abg_dsl

type outcome = {
  cca_name : string;
  dsl_name : string;
  handler : Expr.num;
  pretty : string;
  distance : float;
  refinement : Refinement.result;
  segments_used : int;
}

(** [segments_of_traces rng ~metric ~budget traces] — segmentation plus
    the §3.2 diversity selection. Falls back to whole traces as single
    segments when no loss event ever splits them. *)
let segments_of_traces rng ~metric ~budget traces =
  let segments =
    Abg_trace.Segmentation.split_all ~min_length:30 ~skip_initial:true traces
  in
  let segments =
    if segments <> [] then segments
    else
      List.filter_map
        (fun (tr : Abg_trace.Trace.t) ->
          if Array.length tr.Abg_trace.Trace.records < 10 then None
          else
            Some
              {
                Abg_trace.Segmentation.cca_name = tr.Abg_trace.Trace.cca_name;
                scenario = tr.Abg_trace.Trace.scenario;
                start_time = tr.Abg_trace.Trace.records.(0).Abg_trace.Record.time;
                records = tr.Abg_trace.Trace.records;
              })
        traces
  in
  let distance a b = Abg_distance.Metric.compute metric ~truth:a ~candidate:b in
  let selected = Abg_trace.Sampling.select rng ~distance ~n:budget segments in
  (* The refinement loop scores a growing prefix of this list; order it by
     record count (descending) so the earliest iterations see the segments
     with the most window evolution. *)
  List.sort
    (fun a b ->
      compare
        (Abg_trace.Segmentation.length b)
        (Abg_trace.Segmentation.length a))
    selected

(** [run ?config ?dsl ?segment_budget ~name traces] — synthesize a
    cwnd-ack handler from traces of CCA [name]. When [dsl] is omitted,
    the Gordon classifier picks the sub-DSL (§3.3). [segment_budget]
    bounds the diversity-selected segment subset (default 8, the
    paper's). Returns [None] only if no segment yields a finite-distance
    candidate.

    Re-entrant: all state (RNGs, enumerators, prune accounting) is local
    to the call, so concurrent runs — e.g. several batch jobs sharing
    the domain pool — do not perturb each other's results. *)
let run ?(config = Refinement.default_config) ?dsl ?(segment_budget = 8)
    ~name traces =
  Abg_obs.Obs.span "synth" @@ fun () ->
  let dsl =
    match dsl with
    | Some d -> d
    | None ->
        Abg_obs.Obs.span "classify" (fun () ->
            Abg_classifier.Dsl_hint.choose
              (Abg_classifier.Gordon.classify traces))
  in
  let rng = Rng.create config.Refinement.seed in
  let segments =
    Abg_obs.Obs.span "segments" (fun () ->
        segments_of_traces rng ~metric:config.Refinement.metric
          ~budget:segment_budget traces)
  in
  match Refinement.run ~config ~dsl segments with
  | None -> None
  | Some refinement ->
      Some
        {
          cca_name = name;
          dsl_name = dsl.Catalog.name;
          handler = refinement.Refinement.handler;
          pretty = Pretty.num refinement.Refinement.handler;
          distance = refinement.Refinement.distance;
          refinement;
          segments_used = List.length segments;
        }

(** [run_configs ?config ?dsl ~configs ~name constructor] — the batch
    orchestrator's entry point: collect one trace per explicit scenario
    config ({!Abg_trace.Trace.collect_configs}) and synthesize. The
    result is a pure function of (constructor, configs, config.seed). *)
let run_configs ?(config = Refinement.default_config) ?dsl ~configs ~name
    constructor =
  let traces = Abg_trace.Trace.collect_configs ~name constructor configs in
  run ~config ?dsl ~name traces

(** [collect_and_run ?config ?dsl ?scenarios ~name constructor] —
    convenience wrapper: generate the trace suite on the §3.2 testbed grid
    and synthesize from it. *)
let collect_and_run ?config ?dsl ?(scenarios = 4) ?(duration = 20.0) ~name
    constructor =
  run_configs ?config ?dsl ~name
    ~configs:(Abg_netsim.Config.testbed_grid ~duration ~n:scenarios ())
    constructor
