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

(** [prepare_candidate_into src ~scale dst] resamples [src] by index onto
    [Array.length dst] points and multiplies each by [scale], in one loop
    that reads the arrays directly. Each sample is bit for bit
    [Abg_util.Resample.linear] over the index times [0 .. len-1] (index
    neighbours are exactly one apart, so the fraction is [t - j]) times
    [scale]: an equal length copies, a single sample fills, and an empty
    input gives zeros. *)
let prepare_candidate_into src ~scale dst =
  let len = Array.length src and n = Array.length dst in
  if len = n then
    for i = 0 to n - 1 do
      dst.(i) <- src.(i) *. scale
    done
  else if len = 0 then Array.fill dst 0 n 0.0
  else if len = 1 then Array.fill dst 0 n (src.(0) *. scale)
  else begin
    let span = float_of_int (len - 1) in
    let j = ref 0 in
    for i = 0 to n - 1 do
      let t =
        if n = 1 then 0.0 else span *. float_of_int i /. float_of_int (n - 1)
      in
      while !j < len - 2 && float_of_int (!j + 1) < t do
        incr j
      done;
      let va = src.(!j) and vb = src.(!j + 1) in
      let frac = Float.max 0.0 (Float.min 1.0 (t -. float_of_int !j)) in
      dst.(i) <- (va +. (frac *. (vb -. va))) *. scale
    done
  end

let resample ~length xs =
  let dst = Array.make length 0.0 in
  prepare_candidate_into xs ~scale:1.0 dst;
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

(** [prepare_candidate ?length ~scale candidate] resamples a candidate
    series and scales it by a truth-derived [scale]. *)
let prepare_candidate ?(length = default_length) ~scale candidate =
  let dst = Array.make length 0.0 in
  prepare_candidate_into candidate ~scale dst;
  dst
