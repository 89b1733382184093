(** Unified distance-metric dispatch (§4.3).

    All metrics consume raw (unequal-length) value series; preparation —
    resampling to a common length and normalizing by the ground truth's
    mean — happens here so every call site gets identical semantics. DTW
    is the default; the paper selects it for its tolerance to constant
    error (Figure 3) and accepts its extra cost.

    The ground-truth side of that preparation is identical for every
    candidate scored against a segment, so it is cached: {!prepare} does
    the truth-side resample + normalize once, and {!compute_prepared}
    scores any number of candidates against it. A {!prepared} value is
    immutable and safe to share across domains. *)

type kind = Dtw | Euclidean | Manhattan | Frechet

let all = [ Dtw; Euclidean; Manhattan; Frechet ]

let name = function
  | Dtw -> "dtw"
  | Euclidean -> "euclidean"
  | Manhattan -> "manhattan"
  | Frechet -> "frechet"

let of_name s =
  List.find_opt (fun k -> String.equal (name k) s) all

(* Sakoe-Chiba band for the warping metrics (DTW, Fréchet): 10% of the
   series length, the standard default. *)
let dtw_band length = Stdlib.max 2 (length / 10)

type prepared = {
  kind : kind;
  length : int;
  reference : float array;  (* truth, resampled to [length] and normalized *)
  scale : float;  (* multiplier that maps candidates into the same space *)
  env_lo : float array;  (* DTW only: banded min-envelope of [reference] *)
  env_hi : float array;  (* DTW only: banded max-envelope; else [||] *)
}

(* Sakoe-Chiba envelopes of a prepared series, at the band {!dtw_band}
   gives its length: [lo.(i)]/[hi.(i)] bound every value a banded
   warping path may match against position [i] of the other series.
   O(length * band); written into the caller's arrays, so the serving
   layer builds a query's envelope without allocating. *)
let envelopes series ~lo ~hi =
  let n = Array.length series in
  let band = dtw_band n in
  for i = 0 to n - 1 do
    let l = ref infinity and h = ref neg_infinity in
    for j = Stdlib.max 0 (i - band) to Stdlib.min (n - 1) (i + band) do
      let v = series.(j) in
      if v < !l then l := v;
      if v > !h then h := v
    done;
    lo.(i) <- !l;
    hi.(i) <- !h
  done

(** [prepare ?length kind ~truth] does the truth-side preparation once,
    for reuse across every candidate scored against this segment. *)
let prepare ?(length = Series.default_length) kind ~truth =
  let reference, scale = Series.prepare_truth ~length truth in
  let env_lo, env_hi =
    match kind with
    | Dtw ->
        let lo = Array.make length 0.0 and hi = Array.make length 0.0 in
        envelopes reference ~lo ~hi;
        (lo, hi)
    | Euclidean | Manhattan | Frechet -> ([||], [||])
  in
  { kind; length; reference; scale; env_lo; env_hi }

(* LB_Keogh lower bound (Keogh & Ratanamahatana, KAIS '05) for the L1
   banded DTW: every warping path matches candidate position [i] against
   some reference value inside the band, contributing at least the
   candidate's distance to the envelope there; the row sums are
   independent, so their total bounds the true distance from below. A
   candidate whose bound already exceeds the cutoff is rejected in
   O(length) without touching the O(length * band) DP lattice — on the
   serving layer's scoring loop (hundreds of references per query, most
   hopeless) this prunes the bulk of the work. NaN samples contribute
   nothing, which only weakens the bound — never a wrong prune. *)
let obs_lb_pruned = Abg_obs.Obs.Counter.make "distance.dtw.lb_pruned"

(* How far [v] lies outside the envelope band [lo, hi]: one row's term
   of an LB_Keogh sum. *)
let[@inline] excess v lo hi =
  if v > hi then v -. hi else if v < lo then lo -. v else 0.0

let lb_keogh ~env_lo ~env_hi candidate =
  let acc = ref 0.0 in
  for i = 0 to Array.length candidate - 1 do
    acc := !acc +. excess candidate.(i) env_lo.(i) env_hi.(i)
  done;
  !acc

(* Both LB_Keogh sums of one (reference, candidate) pair, in one pass:
   the candidate against the reference's envelope, and the reference
   against the candidate's. A banded warping path visits every row and
   every column in order, each cell costing at least the row's (and the
   column's) term, and rounding to nearest is monotone, so each sum,
   accumulated in index order as here, is at most the DTW value
   {!Dtw.distance} computes, bit for bit, not only in real arithmetic.
   The pass stops once either sum passes [cap]; the partial sum it then
   returns still exceeds [cap]. *)
let lower_bound ~cap { reference; env_lo; env_hi; _ } ~candidate ~lo ~hi =
  let n = Array.length candidate in
  if n <> Array.length env_lo then
    invalid_arg
      (Printf.sprintf "Metric.lower_bound: candidate length %d <> %d" n
         (Array.length env_lo));
  let fwd = ref 0.0 and rev = ref 0.0 and i = ref 0 in
  while !i < n && !fwd <= cap && !rev <= cap do
    let k = !i in
    fwd := !fwd +. excess candidate.(k) env_lo.(k) env_hi.(k);
    rev := !rev +. excess reference.(k) lo.(k) hi.(k);
    i := k + 1
  done;
  Float.max !fwd !rev

(* Kernel dispatch shared by the materialized and windowed entry points:
   [candidate'] is already resampled and scaled into the prepared truth's
   normalized space. *)
let dispatch ?cutoff { kind; length; reference; env_lo; env_hi; _ } candidate'
    =
  match kind with
  | Dtw -> (
      match cutoff with
      | Some c
        when Array.length env_lo > 0
             && Array.length candidate' = Array.length env_lo
             && lb_keogh ~env_lo ~env_hi candidate' > c ->
          Abg_obs.Obs.Counter.incr obs_lb_pruned;
          infinity
      | _ -> Dtw.distance ~band:(dtw_band length) ?cutoff reference candidate')
  | Euclidean -> Pointwise.euclidean ?cutoff reference candidate'
  | Manhattan -> Pointwise.manhattan ?cutoff reference candidate'
  | Frechet ->
      Frechet.distance ~band:(dtw_band length) ?cutoff reference candidate'

(** [compute_prepared ?cutoff prepared ~candidate] is the distance of a
    candidate series against a prepared ground truth. With [?cutoff],
    the metric abandons early once the distance provably (strictly)
    exceeds it and returns [infinity]; results at or below the cutoff
    are exact, so a best-so-far fold keeps the same winner. *)
let compute_prepared ?cutoff ({ length; scale; _ } as prepared) ~candidate =
  dispatch ?cutoff prepared (Series.prepare_candidate ~length ~scale candidate)

(** [compute_resampled ?cutoff prepared ~candidate] scores a candidate
    that is {e already} in the prepared space — resampled to
    [prepared.length] and scaled (e.g. by {!Series.prepare_candidate_into}).
    The serving layer's scoring loop compares one query window against
    hundreds of same-length references; resampling once and dispatching
    here removes a redundant per-reference resample. Raises
    [Invalid_argument] on a length mismatch — a misprepared candidate
    would otherwise score garbage silently. *)
let compute_resampled ?cutoff prepared ~candidate =
  if Array.length candidate <> prepared.length then
    invalid_arg
      (Printf.sprintf "Metric.compute_resampled: candidate length %d <> %d"
         (Array.length candidate) prepared.length);
  dispatch ?cutoff prepared candidate

(** [compute kind ~truth ~candidate] is the distance between the
    ground-truth and candidate visible-CWND value series. Lower is a
    better match. One-shot form of {!prepare} + {!compute_prepared}. *)
let compute ?(length = Series.default_length) ?cutoff kind ~truth ~candidate =
  compute_prepared ?cutoff (prepare ~length kind ~truth) ~candidate

(** Default metric used by the synthesis pipeline. *)
let default = Dtw
