(** Online CCA classification for the serving layer.

    A long-lived daemon scores thousands of flow windows per second, so
    [Online] hoists the per-reference work to construction time: each
    reference window's observed-CWND series is resampled and normalized
    once, with its DTW envelope ({!Abg_distance.Metric.prepare}), and a
    query window is then resampled once into a reused scratch buffer.

    A classify finds the nearest CCA exactly without scoring every
    reference window, as the UCR suite does for nearest-neighbour DTW
    (Rakthanmanon et al., KDD 2012). Each reference window gets a lower
    bound on its distance ({!Abg_distance.Metric.lower_bound}, LB_Keogh
    taken both ways); CCAs are visited in ascending order of their mean
    bound; a CCA whose mean bound exceeds the best mean so far is
    settled without DTW; and every other window runs DTW with the
    largest cutoff under which its CCA could still tie the best. The
    nearest CCA's windows all fall under their cutoffs, so its mean is
    computed exactly as a full scan computes it. Bounds, envelope and
    visiting order live in per-[t] scratch arrays, so classification
    allocates little beyond the caller's copy of the window.

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
   saturates (it is also the largest DTW early-abandon cutoff), so a
   mean there means "nothing even resembles this". *)
let match_threshold = 6.0
let report_threshold = 16.0

type result = {
  verdict : Gordon.verdict;
  distance : float;
      (** the nearest known CCA's mean windowed DTW distance (each
          per-window term capped at [report_threshold]; ties break by
          name); [infinity] for a window too short to score *)
}

type t = {
  refs : (string * Abg_distance.Metric.prepared array) array;
  (* Scratch for one classify at a time, sized to [refs]: *)
  scratch : float array;  (* the query, resampled and scaled *)
  lo : float array;  (* the query's envelope *)
  hi : float array;
  bounds : float array array;  (* [bounds.(i).(w)]: window [w] of CCA [i] *)
  bound_sum : float array;  (* per CCA: its capped bounds, summed *)
  order : int array;  (* CCA indices, ascending mean bound *)
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

(** [of_refs refs] is a classifier over prepared DTW reference windows,
    one non-empty array per CCA, each prepared at
    {!Abg_distance.Series.default_length}. *)
let of_refs refs =
  let n = Array.length refs and len = Abg_distance.Series.default_length in
  {
    refs;
    scratch = Array.make len 0.0;
    lo = Array.make len 0.0;
    hi = Array.make len 0.0;
    bounds = Array.map (fun (_, ps) -> Array.make (Array.length ps) 0.0) refs;
    bound_sum = Array.make n 0.0;
    order = Array.make n 0;
  }

(** [create ()] simulates the {!Ccanalyzer.known} CCAs on Gordon's
    reference grid and prepares their windowed references. Each flow is
    simulated by [Trace.collect_observed], which keeps only the observed
    window, so nothing but the prepared windows outlives the call.
    [window] must match the serving layer's sliding-window capacity so
    reference and query windows cover comparable spans. The result
    holds mutable scratch buffers, so each [t] must be scored from one
    domain at a time — the serve event loop owns one. *)
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
  of_refs refs

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

let obs_lb_pruned = Abg_obs.Obs.Counter.make "distance.dtw.lb_pruned"

(* The relative slack on a CCA's budget. Bound sums and DTW sums add in
   different orders, so a budget taken exactly could cut off a CCA that
   ties the best by a rounding; 1e-9 dwarfs that rounding (about 1e-14
   relative) and costs no pruning worth counting. *)
let budget_slack = 1.0 +. 1e-9

let rec all_finite a i =
  i >= Array.length a || (Float.is_finite a.(i) && all_finite a (i + 1))

(** [classify_array t values] is the verdict for a flow window's observed
    values, oldest first. Each CCA scores as the mean distance over its
    reference windows, each saturated at [report_threshold]; the verdict
    and distance are the lowest mean's, ties broken alphabetically —
    exactly what scoring every window and sorting the CCAs would give,
    for a fraction of the DTW work.

    Exactness. A window's bound is at most its capped distance, bit for
    bit, so a CCA's mean bound is at most its mean, and a CCA whose mean
    bound exceeds the best mean cannot tie it. A CCA [i] with [k]
    windows that ties or beats the best mean keeps its distance sum
    within the budget [best * k] (plus [budget_slack]); with [s] the
    exact sum of its scored windows and [rest] the capped bounds of its
    unscored ones, each window's distance is then at most
    [min report_threshold (budget - s - rest)], so DTW under that cutoff
    returns it exactly. A window beyond its cutoff below
    [report_threshold] proves its CCA loses; one beyond
    [report_threshold] contributes the cap, as in a full scan.

    DTW over a non-finite sample is no metric, so no bound holds: a
    query with a non-finite sample after preparation gets zero bounds
    and the cutoff [report_threshold] on every window, which is the full
    scan; a [nan] mean sorts first under [Float.compare].

    Every reference window is either scored by DTW or counted in
    [distance.dtw.lb_pruned], so [distance.dtw.calls] plus
    [distance.dtw.lb_pruned] grows by the reference window count on
    each classify. *)
let classify_array t values =
  if Array.length values < min_points then
    { verdict = Gordon.Unknown None; distance = infinity }
  else begin
    (* Every reference shares the prepared length and the query's scale,
       so the resampled-and-scaled query is identical across the whole
       scoring loop: prepare it once into the scratch buffer and score
       with {!Abg_distance.Metric.compute_resampled}, not once per
       reference. *)
    let q = t.scratch in
    Abg_distance.Series.prepare_candidate_into values
      ~scale:(window_scale values) q;
    let bounded = all_finite q 0 in
    if bounded then Abg_distance.Metric.envelopes q ~lo:t.lo ~hi:t.hi;
    let n = Array.length t.refs in
    for i = 0 to n - 1 do
      let prepared = snd t.refs.(i) and bounds = t.bounds.(i) in
      let sum = ref 0.0 in
      for w = 0 to Array.length prepared - 1 do
        let b =
          if bounded then
            Abg_distance.Metric.lower_bound ~cap:report_threshold
              prepared.(w) ~candidate:q ~lo:t.lo ~hi:t.hi
          else 0.0
        in
        bounds.(w) <- b;
        sum := !sum +. Float.min b report_threshold
      done;
      t.bound_sum.(i) <- !sum;
      t.order.(i) <- i
    done;
    let mean_bound i =
      t.bound_sum.(i) /. float_of_int (Array.length (snd t.refs.(i)))
    in
    Array.sort
      (fun a b ->
        match Float.compare (mean_bound a) (mean_bound b) with
        | 0 -> Int.compare a b
        | c -> c)
      t.order;
    let best = ref infinity and best_name = ref "" in
    for o = 0 to n - 1 do
      let i = t.order.(o) in
      let name, prepared = t.refs.(i) in
      let k = Array.length prepared in
      (* Mean over the CCA's reference windows, not min: a degenerate
         query (a flat loss-free stretch) matches {e some} window of
         almost every CCA at ~0, but only the right CCA looks similar
         from every window. Distances are capped at [report_threshold],
         so one hopeless window saturates rather than poisons the
         mean. *)
      if mean_bound i > !best then Abg_obs.Obs.Counter.add obs_lb_pruned k
      else begin
        let bounds = t.bounds.(i) in
        let budget = !best *. float_of_int k *. budget_slack in
        let s = ref 0.0 and rest = ref t.bound_sum.(i) in
        let lost = ref false and w = ref 0 in
        while (not !lost) && !w < k do
          let b = bounds.(!w) in
          rest := !rest -. Float.min b report_threshold;
          let cutoff =
            if bounded then Float.min report_threshold (budget -. !s -. !rest)
            else report_threshold
          in
          let d =
            if b > cutoff then begin
              Abg_obs.Obs.Counter.incr obs_lb_pruned;
              infinity
            end
            else
              Abg_distance.Metric.compute_resampled ~cutoff prepared.(!w)
                ~candidate:q
          in
          if d > cutoff && cutoff < report_threshold then begin
            lost := true;
            Abg_obs.Obs.Counter.add obs_lb_pruned (k - !w - 1)
          end
          else s := !s +. Float.min d report_threshold;
          incr w
        done;
        if not !lost then begin
          let mean = !s /. float_of_int k in
          match Float.compare mean !best with
          | c when c < 0 || (c = 0 && String.compare name !best_name < 0) ->
              best := mean;
              best_name := name
          | _ -> ()
        end
      end
    done;
    let verdict =
      if !best <= match_threshold then Gordon.Known !best_name
      else if !best < report_threshold then Gordon.Unknown (Some !best_name)
      else Gordon.Unknown None
    in
    { verdict; distance = !best }
  end
