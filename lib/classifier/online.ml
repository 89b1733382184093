(** Online CCA classification for the serving layer.

    A long-lived daemon scores thousands of flow windows per second, so
    [Online] hoists the per-reference work to construction time: each
    reference window's observed-CWND series is resampled and normalized
    once ({!Abg_distance.Metric.prepare}), and a query window is then
    resampled once into a reused scratch buffer and scored against every
    reference with {!Abg_distance.Metric.compute_resampled}, so
    classification allocates little beyond the caller's copy of the
    window. A fixed cutoff lets hopeless references abandon early,
    bounding worst-case query latency.

    Verdicts are a pure function of the window contents — reference
    preparation is deterministic (same simulations as the offline
    classifiers) and no wall-clock time enters the decision path, so a
    replayed stream yields byte-identical verdicts. *)

(* A window shorter than this carries too little shape to say anything;
   the daemon answers "Unknown" rather than guessing from noise. *)
let min_points = 16

(* Distance thresholds, calibrated on windows of the reference grid's
   own flows: a confident match scores a mean well under
   [match_threshold]; at [report_threshold] every per-window distance
   saturates (it doubles as the DTW early-abandon cutoff), so a mean
   there means "nothing even resembles this". *)
let match_threshold = 6.0
let report_threshold = 16.0

type result = {
  verdict : Gordon.verdict;
  closest : (string * float) list;
      (** known CCAs by mean windowed DTW distance (each per-window
          term capped at [report_threshold]), closest first *)
}

type t = {
  refs : (string * Abg_distance.Metric.prepared array) array;
  scratch : float array;
}

(* A live query is a {e window} — the last W records of a flow — so the
   reference side must be windows too: scoring a 512-record suffix
   against a whole 15-second reference trace (slow start, every loss
   epoch, resampled together) compares different things and ranks every
   CCA by its global envelope instead of its steady-state shape. Each
   reference trace therefore contributes [windows_per_ref] record
   windows of the same width as the query's sliding window: evenly
   spaced, starting past the first fifth of the trace (slow start is
   governed by a different handler and would pollute every CCA's
   references with the same exponential ramp). *)
let windows_per_ref = 4

let reference_windows ~window values =
  let n = Array.length values in
  if n = 0 then []
  else if n <= window then [ values ]
  else begin
    let last = n - window in
    let first = Stdlib.min last (n / 5) in
    List.init windows_per_ref (fun i ->
        let pos = first + ((last - first) * i / (windows_per_ref - 1)) in
        Array.sub values pos window)
    |> List.sort_uniq compare
  end

(** [create ()] simulates the {!Ccanalyzer.known} CCAs on Gordon's
    reference grid and prepares their windowed references. Each flow is
    simulated by [Trace.collect_observed], which keeps only the observed
    window and never touches the trace store, so nothing but the prepared
    windows outlives the call. [window] must match the serving layer's
    sliding-window capacity so reference and query windows cover
    comparable spans. The result holds a mutable scratch buffer, so each
    [t] must be scored from one domain at a time — the serve event loop
    owns one. *)
let create ?(window = 512) () =
  let refs =
    Gordon.reference_suites Ccanalyzer.known
      (fun cfg ~name:_ ctor -> Abg_trace.Trace.collect_observed cfg ctor)
      (fun suite ->
        List.concat_map (reference_windows ~window) suite
        |> List.map (fun w ->
               Abg_distance.Metric.prepare Abg_distance.Metric.default ~truth:w)
        |> Array.of_list)
    |> List.filter (fun (_, ps) -> Array.length ps > 0)
    |> Array.of_list
  in
  { refs; scratch = Array.make Abg_distance.Series.default_length 0.0 }

(* A measured window self-normalizes to unit mean before scoring, so a
   flow's absolute bandwidth cannot dominate the shape comparison
   against unit-mean references (the truth-scale rule exists to stop
   synthesis candidates gaming their error; a query window is not a
   candidate). Non-finite samples are excluded from the mean — one nan
   must not erase the whole window's scale. *)
let window_scale values =
  let sum = ref 0.0 in
  let n = ref 0 in
  for i = 0 to Array.length values - 1 do
    let v = values.(i) in
    if Float.is_finite v then begin
      sum := !sum +. v;
      incr n
    end
  done;
  if !n = 0 then 1.0
  else begin
    let mean = !sum /. float_of_int !n in
    if mean > 1e-9 then 1.0 /. mean else 1.0
  end

(** [classify_array t values] is the verdict for a flow window's observed
    values, oldest first. Each CCA scores as the mean distance over its
    reference windows, saturated at [report_threshold]; ties break
    alphabetically so the ranking is total and deterministic. *)
let classify_array t values =
  if Array.length values < min_points then
    { verdict = Gordon.Unknown None; closest = [] }
  else begin
    (* Every reference shares the prepared length and the query's scale,
       so the resampled-and-scaled query is identical across the whole
       scoring loop: prepare it once into the scratch buffer and score
       with {!Abg_distance.Metric.compute_resampled}, not once per
       reference. *)
    Abg_distance.Series.prepare_candidate_into values
      ~scale:(window_scale values) t.scratch;
    let n = Array.length t.refs in
    let out = Array.make n ("", infinity) in
    for i = 0 to n - 1 do
      let name, prepared = t.refs.(i) in
      (* Mean over the CCA's reference windows, not min: a degenerate
         query (a flat loss-free stretch) matches {e some} window of
         almost every CCA at ~0, but only the right CCA looks similar
         from every window. Distances are capped at [report_threshold] —
         which also serves as the DTW early-abandon cutoff, bounding
         worst-case latency — so one hopeless window saturates rather
         than poisons the mean. *)
      let sum = ref 0.0 in
      Array.iter
        (fun p ->
          let dist =
            Abg_distance.Metric.compute_resampled ~cutoff:report_threshold p
              ~candidate:t.scratch
          in
          sum := !sum +. Float.min dist report_threshold)
        prepared;
      out.(i) <- (name, !sum /. float_of_int (Array.length prepared))
    done;
    let closest =
      Array.to_list out
      |> List.sort (fun (na, a) (nb, b) ->
             match compare (a : float) b with
             | 0 -> String.compare na nb
             | c -> c)
    in
    let verdict =
      match closest with
      | (best, d) :: _ when d <= match_threshold -> Gordon.Known best
      | (best, d) :: _ when d < report_threshold -> Gordon.Unknown (Some best)
      | _ -> Gordon.Unknown None
    in
    { verdict; closest }
  end
