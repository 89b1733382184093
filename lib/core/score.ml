(** Sketch and handler scoring.

    A handler's score is its summed distance over the current segment
    subset ({!Replay.total_distance}); a sketch's score is the best score
    any of its concretizations achieves (§4.2) — that minimum is also what
    the bucket prioritization of §4.4 aggregates.

    Scoring runs on {!Replay.prepared} segments (environments, truth
    preparation and output buffer built once per segment) and prunes with
    best-so-far cutoffs: the coarse stage with [min (keep-th, incumbent)],
    the fine stage with [min (sketch best, incumbent)]. Pruning is
    strictly conservative: a distance is replaced by [infinity] only when
    it provably exceeds a threshold that already disqualifies it, so the
    selected handlers and their recorded distances are identical to
    exhaustive scoring. *)

open Abg_dsl

type scored = {
  sketch : Expr.num;
  handler : Expr.num;  (** best concretization found *)
  distance : float;
  completions_scored : int;
}

(* Telemetry: scoring volume, published once per sketch. Deterministic —
   the completion set is a pure function of (rng seed, sketch, pool,
   budget) and the finalist count of the coarse distances, which thread
   cutoffs deterministically. *)
let obs_sketches = Abg_obs.Obs.Counter.make "score.sketches"
let obs_completions = Abg_obs.Obs.Counter.make "score.completions"
let obs_finalists = Abg_obs.Obs.Counter.make "score.finalists"

(** [sketch_prepared rng ~dsl ~budget ?cutoff ~prepared sk] — score one
    sketch: concretize (bounded by [budget]), replay handlers, keep the
    best. Scoring is two-stage: every completion is scored coarsely on
    the first segment only, then the best few are scored on the full
    segment list. The coarse stage is a sound-enough filter because
    completions of one sketch differ only in constants, and a grossly
    wrong constant is visible on any single segment; the fine stage
    breaks remaining ties properly. A sketch with no plausible completion
    scores infinity.

    Pruning: the coarse stage abandons a completion once it provably
    cannot enter the top-[keep] (running keep-th-smallest threshold) *or*
    its first segment alone exceeds [cutoff] (an external incumbent, e.g.
    the best sketch of the bucket); the fine stage abandons once a
    completion provably cannot beat the sketch's own best so far or
    [cutoff]. A returned distance above [cutoff] may therefore read
    [infinity], but the minimum over sketches — all any caller
    aggregates — is exact.

    Why the coarse [cutoff] is exact: among completions whose
    first-segment distance [d1] is at most [cutoff], the [keep] smallest
    still get exact values (one is abandoned at the threshold only when
    [keep] earlier ones are exactly smaller), so they are finalists in
    the same order as without the cutoff. A completion with [d1 >
    cutoff] has a total above [cutoff] and cannot win.

    Finalist reuse: a finite coarse value is exact (DTW finishes or reads
    [infinity]; so does an LB_Keogh prune), and a finalist whose coarse
    value is [infinity] has [d1 > cutoff]. So the fine stage skips a
    finalist with [d1] above its cut and otherwise resumes the segment
    sum from [d1] ({!Replay.total_distance_prepared} [~acc]) instead of
    replaying the first segment again — the same left fold, bit for bit. *)
let sketch_prepared rng ~(dsl : Catalog.t) ~budget ?(cutoff = infinity)
    ~prepared sk =
  let handlers =
    Concretize.completions rng sk ~pool:dsl.Catalog.constant_pool ~budget
  in
  Abg_obs.Obs.Counter.incr obs_sketches;
  Abg_obs.Obs.Counter.add obs_completions (List.length handlers);
  match (handlers, prepared) with
  | [], _ | _, [] ->
      { sketch = sk; handler = sk; distance = infinity; completions_scored = 0 }
  | _, first :: rest ->
      let keep = Stdlib.max 3 (List.length handlers / 4) in
      (* Running top-[keep] coarse distances (unsorted); the threshold is
         their maximum, i.e. the keep-th smallest seen so far. *)
      let top = Array.make keep infinity in
      let threshold () =
        let mx = ref top.(0) in
        for j = 1 to keep - 1 do
          if top.(j) > !mx then mx := top.(j)
        done;
        !mx
      in
      let offer d =
        let mi = ref 0 in
        for j = 1 to keep - 1 do
          if top.(j) > top.(!mi) then mi := j
        done;
        if d < top.(!mi) then top.(!mi) <- d
      in
      let coarse =
        List.map
          (fun h ->
            let f = Replay.compile h in
            let t = threshold () in
            let d =
              Replay.distance_prepared
                ~cutoff:(if t < cutoff then t else cutoff)
                first f
            in
            offer d;
            (h, d, f))
          handlers
        |> List.sort (fun (_, a, _) (_, b, _) -> compare a b)
      in
      let finalists = List.filteri (fun i _ -> i < keep) coarse in
      Abg_obs.Obs.Counter.add obs_finalists (List.length finalists);
      let best_h, best_d =
        List.fold_left
          (fun (best_h, best_d) (h, d1, f) ->
            let cut = if best_d < cutoff then best_d else cutoff in
            (* [d1] is exact whenever [d1 <= cut] (see above). *)
            let d =
              if d1 > cut then infinity
              else Replay.total_distance_prepared ~acc:d1 ~cutoff:cut rest f
            in
            if d < best_d then (h, d) else (best_h, best_d))
          (sk, infinity) finalists
      in
      {
        sketch = sk;
        handler = best_h;
        distance = best_d;
        completions_scored = List.length handlers;
      }

(** [sketch rng ~dsl ~metric ~budget ~segments sk] — one-shot form of
    {!sketch_prepared}: prepares the segments here (once per call; batch
    callers should prepare once and share). *)
let sketch rng ~(dsl : Catalog.t) ~metric ~budget ~segments sk =
  let prepared = List.map (fun seg -> Replay.prepare ~metric seg) segments in
  sketch_prepared rng ~dsl ~budget ~prepared sk
