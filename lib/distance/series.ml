(** Preparation of CWND series for distance computation.

    Distances compare a ground-truth visible-CWND series against a
    synthesized one. Both are resampled to a fixed length and normalized to
    a common scale so that a distance of "10" means comparable things
    across scenarios with different bandwidths. Normalization divides by
    the ground-truth series' mean (never by the candidate's: a candidate
    must not be able to shrink its own error by inflating its output).

    The truth side of this work is identical for every candidate scored
    against a segment, so it is split out: {!prepare_truth} runs once per
    segment and its result (the prepared reference plus the scale it
    implies) is reused by {!prepare_candidate} for each candidate. *)

let default_length = 128

(* Index-based linear interpolation of [get 0 .. get (len-1)] onto
   [Array.length dst] points, which handles both up- and down-sampling;
   an equal length copies and an empty input gives zeros. *)
let resample_into ~get ~len dst =
  let n = Array.length dst in
  if len = n then
    for i = 0 to n - 1 do
      dst.(i) <- get i
    done
  else if len = 0 then Array.fill dst 0 n 0.0
  else Abg_util.Resample.linear_fn_into ~time:float_of_int ~value:get ~len ~dst

let resample ~length xs =
  let dst = Array.make length 0.0 in
  resample_into ~get:(Array.get xs) ~len:(Array.length xs) dst;
  dst

(** [prepare_truth ?length truth] resamples and normalizes the
    ground-truth series once, returning [(reference, scale)] where
    [scale] is the multiplier candidates must be scaled by to live in the
    same normalized space. *)
let prepare_truth ?(length = default_length) truth =
  let reference = resample ~length truth in
  let n = Array.length reference in
  assert (n > 0);
  let mean = Array.fold_left ( +. ) 0.0 reference /. float_of_int n in
  let scale = if mean > 1e-9 then 1.0 /. mean else 1.0 in
  Array.map_inplace (fun v -> v *. scale) reference;
  (reference, scale)

(** [prepare_candidate_into ~get ~len ~scale dst] is {!prepare_candidate}
    reading the candidate through an accessor ([get i], [i] in
    [0 .. len-1]) and writing into [dst] (whose length is the prepared
    length) — the windowed, zero-allocation variant the serving layer
    uses to score a sliding window's ring buffer without materializing
    it. *)
let prepare_candidate_into ~get ~len ~scale dst =
  resample_into ~get ~len dst;
  Array.map_inplace (fun v -> v *. scale) dst

(** [prepare_candidate ?length ~scale candidate] resamples a candidate
    series and scales it by a truth-derived [scale]. *)
let prepare_candidate ?(length = default_length) ~scale candidate =
  let dst = Array.make length 0.0 in
  prepare_candidate_into ~get:(Array.get candidate)
    ~len:(Array.length candidate) ~scale dst;
  dst
