(** Unified distance-metric dispatch (§4.3).

    All metrics consume raw (possibly unequal-length) value series;
    resampling to a common length and normalization by the ground truth's
    mean happen inside {!compute}, so every call site gets identical
    semantics. The truth-side half of that preparation can be cached with
    {!prepare} and reused across every candidate scored against the same
    segment ({!compute_prepared}). *)

type kind = Dtw | Euclidean | Manhattan | Frechet

val all : kind list
val name : kind -> string
val of_name : string -> kind option

type prepared
(** A ground-truth series resampled and normalized once, plus the metric
    and scale needed to score candidates against it. Immutable — safe to
    share across domains. *)

val prepare : ?length:int -> kind -> truth:float array -> prepared
(** [prepare kind ~truth] caches the truth-side preparation (resample to
    [length], default {!Series.default_length}, and normalize by the
    truth's mean) for reuse across candidates. *)

val compute_prepared :
  ?cutoff:float -> prepared -> candidate:float array -> float
(** [compute_prepared prepared ~candidate] is the distance of a candidate
    series against a prepared truth; equals
    [compute kind ~truth ~candidate] for the prepared truth and kind.
    [cutoff] abandons early with [infinity] once the distance provably
    (strictly) exceeds it; results at or below the cutoff are exact. *)

val compute_resampled :
  ?cutoff:float -> prepared -> candidate:float array -> float
(** [compute_resampled prepared ~candidate] scores a candidate already in
    the prepared space (resampled to the prepared length and scaled —
    e.g. by {!Series.prepare_candidate_into}). Lets a scoring loop that
    compares one query against many same-length references resample
    once instead of once per reference. Raises [Invalid_argument] on a
    length mismatch. Same [?cutoff] contract as {!compute_prepared}. *)

val envelopes : float array -> lo:float array -> hi:float array -> unit
(** [envelopes series ~lo ~hi] writes the Sakoe-Chiba envelope of a
    prepared-space series into [lo] and [hi] (each as long as [series]):
    the minimum and maximum of [series] within the DTW band of its
    length around each position. {!prepare} builds every DTW reference's
    envelope with it. *)

val lower_bound :
  cap:float ->
  prepared ->
  candidate:float array ->
  lo:float array ->
  hi:float array ->
  float
(** [lower_bound ~cap prepared ~candidate ~lo ~hi] bounds the DTW
    distance [compute_resampled prepared ~candidate] computes from
    below, bit for bit: the larger of the two LB_Keogh sums, [candidate]
    against [prepared]'s envelope and [prepared]'s reference against
    [candidate]'s envelope [lo]/[hi] (from {!envelopes}). It stops
    once either sum passes [cap] and returns a value above [cap]. Meant
    for a finite candidate in the prepared space (see
    {!compute_resampled}); a non-finite sample voids the bound. Raises
    [Invalid_argument] unless [prepared] is a DTW preparation as long
    as [candidate], and [lo] and [hi] must be that long too. *)

val compute :
  ?length:int ->
  ?cutoff:float ->
  kind ->
  truth:float array ->
  candidate:float array ->
  float
(** [compute kind ~truth ~candidate] is the distance between a
    ground-truth and a candidate visible-CWND series, after resampling
    both to [length] points (default {!Series.default_length}) and
    normalizing by the truth's mean. Lower is a better match. See
    {!compute_prepared} for [cutoff]. *)

val default : kind
(** The metric the synthesis pipeline uses unless told otherwise: DTW,
    per the paper's Figure 3 error-tolerance comparison. *)
