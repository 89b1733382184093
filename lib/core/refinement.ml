(** Abagnale's refinement loop — Algorithm 1 (§4.4).

    The sketch space is partitioned into buckets keyed by the exact
    operator subset a sketch uses. One persistent SAT enumerator serves
    the whole run: a bucket is selected purely via solver assumptions
    (the [used_op] pins of §4.4), its blocking clauses live in a
    retractable clause group, and dropped buckets are retired so their
    clauses are reclaimed. (The paper runs an independent Z3 instance
    per bucket; sharing one incremental solver keeps the learnt clauses
    and heuristic state across bucket switches.) Each iteration samples
    [n] sketches per surviving bucket, scores them on the current
    trace-segment subset, keeps the [k] most promising buckets,
    then grows the sample size 8x, halves [k] and adds two more segments.
    The loop ends when one bucket remains (it is then enumerated
    exhaustively) or every surviving bucket has been exhausted. The best
    handler seen at any point is retained, so an interrupted run still
    returns a result.

    Instrumentation records, per iteration, each bucket's score and rank —
    the data behind Table 4 and §6.1. *)

open Abg_util
open Abg_dsl

type config = {
  metric : Abg_distance.Metric.kind;
  initial_samples : int;  (** N in Algorithm 1; the paper uses 16 *)
  initial_keep : int;  (** k in Algorithm 1; the paper uses 5 *)
  initial_segments : int;  (** trace segments scored in iteration 1 *)
  completion_budget : int;  (** max concretizations scored per sketch *)
  max_segment_records : int;  (** replay length cap per segment *)
  max_iterations : int;
  exhaustive_cap : int;  (** bound on final exhaustive enumeration *)
  seed : int;
  verbose : bool;  (** progress logging to stderr *)
}

let default_config =
  {
    metric = Abg_distance.Metric.default;
    initial_samples = 16;
    initial_keep = 5;
    initial_segments = 2;
    completion_budget = 24;
    max_segment_records = 500;
    max_iterations = 6;
    exhaustive_cap = 2000;
    seed = 1;
    verbose = false;
  }

type bucket_state = {
  ops : Abg_enum.Buckets.bucket;
  mutable sketches : Expr.num list;  (** sampled so far, newest first *)
  mutable exhausted : bool;
  mutable score : float;
  mutable best : Score.scored option;
}

type iteration_report = {
  iteration : int;
  samples_per_bucket : int;
  segments_used : int;
  handlers_scored : int;
  bucket_ranking : (Abg_enum.Buckets.bucket * float) list;  (** sorted *)
  kept : Abg_enum.Buckets.bucket list;
}

type result = {
  handler : Expr.num;
  sketch : Expr.num;
  distance : float;
  iterations : iteration_report list;
  total_handlers_scored : int;
  total_sketches_scored : int;
  buckets_initial : int;
  pruned : (string * int) list;
      (** sketches rejected before simulation, per reason — read off this
          run's own (single, persistent) enumerator. Per-instance
          accounting, so the field is exact even when several refinement
          runs execute concurrently (batch jobs) or telemetry is
          disabled. *)
  prune_rate : float;
      (** fraction of decoded sketches pruned before simulation *)
  enumerated : int;
      (** decoded sketches: those returned plus those [pruned] *)
  solver : Abg_sat.Solver.stats;
      (** search effort of the run's persistent SAT enumerator *)
}

(* Telemetry: one span per pipeline phase, plus loop volume counters.
   [result.pruned] reads the run's own enumerator — NOT a delta of the
   process-wide telemetry counters, which would interleave arbitrarily
   when concurrent batch jobs refine at the same time. *)
let obs_iterations = Abg_obs.Obs.Counter.make "refine.iterations"
let obs_buckets_scored = Abg_obs.Obs.Counter.make "refine.buckets_scored"
let obs_candidates = Abg_obs.Obs.Counter.make "refine.candidates"

(* Long segments are thinned (stride with ACK aggregation), not truncated:
   a truncated prefix covers only a couple of RTTs of window evolution, on
   which the identity handler CWND is nearly optimal and the search
   collapses onto algebraic identities. *)
let truncate_segment max_records seg =
  Abg_trace.Segmentation.thin ~max_records seg

(* Enumerate up to [want] total sketches for a bucket (cumulative).
   [enc] is the run's shared enumerator: callers run top-ups in
   bucket-array order, which fixes the model sequence. *)
let top_up enc bucket ~want =
  let have = List.length bucket.sketches in
  let missing = want - have in
  let rec pull n acc =
    if n = 0 then acc
    else
      match Abg_enum.Encode.next ~bucket:bucket.ops enc with
      | Some sk -> pull (n - 1) (sk :: acc)
      | None ->
          bucket.exhausted <- true;
          acc
  in
  if missing > 0 then bucket.sketches <- pull missing [] @ bucket.sketches

(** [run ?config ~dsl segments] executes Algorithm 1 over the segment
    list. [segments] should already be diversity-selected ({!Abg_trace.Sampling});
    the loop consumes a growing prefix each iteration. *)
let run ?(config = default_config) ~(dsl : Catalog.t) segments =
  Abg_obs.Obs.span "refine" @@ fun () ->
  let segments =
    List.map (truncate_segment config.max_segment_records) segments
  in
  let segment_array = Array.of_list segments in
  let total_segments = Array.length segment_array in
  assert (total_segments > 0);
  (* ONE persistent enumerator for the whole run: bucket switches cost
     only a different assumption list, and the solver's learnt clauses
     and heuristic state accumulate across iterations. *)
  let enc = Abg_enum.Encode.create dsl in
  let buckets =
    Abg_enum.Buckets.all dsl
    |> List.map (fun ops ->
           {
             ops;
             sketches = [];
             exhausted = false;
             score = infinity;
             best = None;
           })
  in
  let buckets = ref (Array.of_list buckets) in
  let buckets_initial = Array.length !buckets in
  let iteration = ref 1 in
  let n = ref config.initial_samples in
  let k = ref config.initial_keep in
  let n_segments = ref (Stdlib.min config.initial_segments total_segments) in
  let reports = ref [] in
  let total_handlers = ref 0 in
  let total_sketches = ref 0 in
  (* Candidate pool: the best handler of every bucket at every iteration.
     Scores from different iterations are not comparable (each iteration
     uses a different segment subset), so the winner is decided by a final
     uniform re-scoring over all segments. *)
  let candidates : Score.scored list ref = ref [] in
  let consider (s : Score.scored) =
    if Float.is_finite s.Score.distance then begin
      Abg_obs.Obs.Counter.incr obs_candidates;
      candidates := s :: !candidates
    end
  in
  let score_bucket ~rng ~prepared bucket =
    (* Score every sampled sketch of this bucket on this iteration's
       prepared segments; returns the per-bucket minimum and best handler.
       The bucket's best score so far prunes later sketches —
       conservatively, so the minimum and its handler are exactly those
       of exhaustive scoring. *)
    let incumbent = ref infinity in
    let scored =
      List.map
        (fun sk ->
          let s =
            Score.sketch_prepared rng ~dsl ~budget:config.completion_budget
              ~cutoff:!incumbent ~prepared sk
          in
          if s.Score.distance < !incumbent then incumbent := s.Score.distance;
          s)
        bucket.sketches
    in
    let best =
      List.fold_left
        (fun acc s ->
          match acc with
          | None -> Some s
          | Some b -> if s.Score.distance < b.Score.distance then Some s else acc)
        None scored
    in
    let handlers =
      List.fold_left (fun acc s -> acc + s.Score.completions_scored) 0 scored
    in
    (best, handlers, List.length scored)
  in
  let log fmt =
    if config.verbose then Printf.eprintf fmt
    else Printf.ifprintf stderr fmt
  in
  let finished = ref false in
  while not !finished do
    let t_iter = Unix.gettimeofday () in
    log "[refine] iter %d: %d buckets, N=%d, %d segments\n%!" !iteration
      (Array.length !buckets) !n !n_segments;
    let segs =
      Array.to_list (Array.sub segment_array 0 !n_segments)
    in
    (* Segments prepared once per iteration and shared by every bucket
       and the terminal phase: a replay writes only each env's [cwnd],
       before reading it, and the output scratch. *)
    let prepared = List.map (Replay.prepare ~metric:config.metric) segs in
    (* Sample up to !n sketches per surviving bucket, each bucket with
       its own seeded RNG. *)
    let master_rng = Rng.create (config.seed + (1000 * !iteration)) in
    let worker_seeds =
      Array.map (fun _ -> Rng.int master_rng 1_000_000_000) !buckets
    in
    let want = !n in
    Abg_obs.Obs.Counter.incr obs_iterations;
    Abg_obs.Obs.Counter.add obs_buckets_scored (Array.length !buckets);
    (* Enumeration runs first, in bucket order (the shared solver's
       model sequence — hence the whole run — stays deterministic). *)
    Abg_obs.Obs.span "enumerate" (fun () ->
        Array.iter (fun bucket -> top_up enc bucket ~want) !buckets);
    let outcomes =
      Abg_obs.Obs.span "iteration" @@ fun () ->
      (* One domain: on two, a seeded vegas synth iterated 30% slower. *)
      Array.mapi
        (fun i bucket ->
          let rng = Rng.create worker_seeds.(i) in
          score_bucket ~rng ~prepared bucket)
        !buckets
    in
    log "[refine] iter %d scored in %.1fs\n%!" !iteration
      (Unix.gettimeofday () -. t_iter);
    Array.iteri
      (fun i (best, handlers, sketches) ->
        let bucket = !buckets.(i) in
        bucket.best <- best;
        bucket.score <-
          (match best with Some b -> b.Score.distance | None -> infinity);
        total_handlers := !total_handlers + handlers;
        total_sketches := !total_sketches + sketches;
        match best with Some b -> consider b | None -> ())
      outcomes;
    (* Rank buckets by score; keep the top k (ties at the k-th score are
       all retained, per only-top-k). *)
    let ranking =
      Array.to_list !buckets
      |> List.map (fun b -> (b, b.score))
      |> List.sort (fun (_, a) (_, b) -> compare a b)
    in
    (* Strict top-k. The paper's only-top-k admits score ties beyond k,
       but distance ties here are almost always *degenerate* duplicates
       (equivalent handlers reachable in several buckets), and admitting
       them defeats the 8x/0.5x growth schedule: the bucket set stops
       shrinking while N keeps multiplying. *)
    let kept =
      List.filteri (fun i _ -> i < !k) ranking
      |> List.filter (fun (_b, s) -> (not (Float.is_nan s)) && s < infinity)
      |> List.map fst
    in
    reports :=
      {
        iteration = !iteration;
        samples_per_bucket = !n;
        segments_used = !n_segments;
        handlers_scored = !total_handlers;
        bucket_ranking = List.map (fun (b, s) -> (b.ops, s)) ranking;
        kept = List.map (fun b -> b.ops) kept;
      }
      :: !reports;
    (* Dropped buckets are never enumerated again: retire their blocking
       clauses so the solver reclaims them. *)
    Array.iter
      (fun b ->
        if not (List.memq b kept) then Abg_enum.Encode.retire_bucket enc b.ops)
      !buckets;
    let all_exhausted = List.for_all (fun b -> b.exhausted) kept in
    if kept = [] then finished := true
    else if List.length kept = 1 || all_exhausted || !iteration >= config.max_iterations
    then begin
      (* Terminal phase: exhaustively enumerate the surviving bucket(s)
         (bounded), score everything, return the best. All top-ups run
         first, in kept order, so enumeration is timed as enumeration. *)
      let rng = Rng.create (config.seed + 999983) in
      let t_final = Unix.gettimeofday () in
      log "[refine] terminal phase over %d bucket(s)\n%!" (List.length kept);
      Abg_obs.Obs.span "enumerate" (fun () ->
          List.iter
            (fun bucket ->
              if not bucket.exhausted then
                top_up enc bucket
                  ~want:(List.length bucket.sketches + config.exhaustive_cap))
            kept);
      Abg_obs.Obs.span "terminal" (fun () ->
          List.iter
            (fun bucket ->
              let best, handlers, sketches =
                score_bucket ~rng ~prepared bucket
              in
              total_handlers := !total_handlers + handlers;
              total_sketches := !total_sketches + sketches;
              match best with Some b -> consider b | None -> ())
            kept);
      log "[refine] terminal phase done in %.1fs\n%!"
        (Unix.gettimeofday () -. t_final);
      finished := true
    end
    else begin
      buckets := Array.of_list kept;
      n := !n * 8;
      k := Stdlib.max 1 (!k / 2);
      n_segments := Stdlib.min total_segments (!n_segments + 2);
      incr iteration
    end
  done;
  (* Final uniform re-scoring: every candidate over the full segment
     list, deduplicated by handler. *)
  let all_segments = Array.to_list segment_array in
  let deduped =
    List.fold_left
      (fun acc (s : Score.scored) ->
        if List.exists (fun (s' : Score.scored) ->
               Abg_analysis.Canonical.equal s'.Score.handler s.Score.handler)
             acc
        then acc
        else s :: acc)
      [] !candidates
  in
  let all_prepared =
    List.map (fun seg -> Replay.prepare ~metric:config.metric seg) all_segments
  in
  (* Best-so-far cutoff: a candidate provably worse than the incumbent may
     score infinity, but every improving candidate — in particular the
     winner — gets its exact distance, so the result is unchanged. *)
  let rescore_incumbent = ref infinity in
  let rescored =
    Abg_obs.Obs.span "rescore" @@ fun () ->
    List.map
      (fun (s : Score.scored) ->
        let d =
          Replay.total_distance_prepared ~cutoff:!rescore_incumbent
            all_prepared
            (Replay.compile s.Score.handler)
        in
        if d < !rescore_incumbent then rescore_incumbent := d;
        { s with Score.distance = d })
      deduped
  in
  let winner =
    List.fold_left
      (fun acc (s : Score.scored) ->
        match acc with
        | None -> Some s
        | Some b -> if s.Score.distance < b.Score.distance then Some s else acc)
      None rescored
  in
  let pruned = Abg_enum.Encode.prune_stats enc in
  let prune_rate = Abg_enum.Encode.prune_rate enc in
  let enumerated =
    fst (Abg_enum.Encode.stats enc) + Abg_enum.Encode.skipped enc
  in
  match winner with
  | None -> None
  | Some best ->
      Some
        {
          (* Concretization can leave foldable arithmetic (x * 1, c + c);
             simplify for readability as the paper does for Table 2 — under
             the relational oracle, so each cancellation's side condition
             is proven on the DSL's own signal zone rather than assumed. *)
          handler =
            Abg_analysis.Relint.simplify
              (Abg_analysis.Relint.for_dsl dsl)
              best.Score.handler;
          sketch = best.Score.sketch;
          distance = best.Score.distance;
          iterations = List.rev !reports;
          total_handlers_scored = !total_handlers;
          total_sketches_scored = !total_sketches;
          buckets_initial;
          pruned;
          prune_rate;
          enumerated;
          solver = Abg_enum.Encode.solver_stats enc;
        }

(** [bucket_rank_of result ~target ~iteration] — the §6.2 instrumentation:
    the 1-based rank of [target]'s bucket in the given iteration's
    ranking, with the number of buckets ranked, or [None] if that bucket
    was no longer in play. *)
let bucket_rank_of (result : result) ~target ~iteration =
  let target_bucket = Abg_enum.Buckets.of_sketch target in
  match List.nth_opt result.iterations (iteration - 1) with
  | None -> None
  | Some report ->
      let ranking = report.bucket_ranking in
      let rec find i = function
        | [] -> None
        | (ops, _) :: rest ->
            if Abg_enum.Buckets.equal ops target_bucket then Some i
            else find (i + 1) rest
      in
      Option.map (fun r -> (r, List.length ranking)) (find 1 ranking)
