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

let resample ~length xs =
  let n = Array.length xs in
  if n = length then Array.copy xs
  else if n = 0 then Array.make length 0.0
  else begin
    (* Index-based linear interpolation handles both up- and
       down-sampling. *)
    let times = Array.init n float_of_int in
    Abg_util.Resample.linear ~times ~values:xs ~n:length
  end

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
  (Array.map (fun v -> v *. scale) reference, scale)

(** [prepare_candidate ?length ~scale candidate] resamples a candidate
    series and scales it by a truth-derived [scale]. *)
let prepare_candidate ?(length = default_length) ~scale candidate =
  Array.map (fun v -> v *. scale) (resample ~length candidate)

(** [prepare_candidate_into ~get ~len ~scale dst] is {!prepare_candidate}
    reading the candidate through an accessor ([get i], [i] in
    [0 .. len-1]) and writing into [dst] (whose length is the prepared
    length) — the windowed, zero-allocation variant the serving layer
    uses to score a sliding window's ring buffer without materializing
    it. Bit-identical to [prepare_candidate ~length:(Array.length dst)
    ~scale (Array.init len get)]. *)
let prepare_candidate_into ~get ~len ~scale dst =
  let n = Array.length dst in
  if len = n then
    for i = 0 to n - 1 do
      dst.(i) <- get i *. scale
    done
  else if len = 0 then Array.fill dst 0 n 0.0
  else begin
    Abg_util.Resample.linear_fn_into ~time:float_of_int ~value:get ~len ~dst;
    for i = 0 to n - 1 do
      dst.(i) <- dst.(i) *. scale
    done
  end
