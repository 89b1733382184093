(** Preparation of CWND series for distance computation: resampling to a
    fixed length and normalization by the ground-truth mean, so a
    candidate cannot shrink its own error by inflating its output. The
    truth-side work is exposed separately ({!prepare_truth}) so it can be
    done once per segment and shared across all candidates. *)

val default_length : int
(** Points per prepared series (128). *)

val resample : length:int -> float array -> float array
(** [resample ~length xs] interpolates [xs] linearly by index onto
    [length] points (a copy when [xs] already has [length], zeros when
    it is empty): the resampling {!prepare_truth} and
    {!prepare_candidate} do before they scale. *)

val prepare_truth : ?length:int -> float array -> float array * float
(** [prepare_truth truth] resamples and normalizes the ground-truth
    series, returning [(reference, scale)]. [scale] is the multiplier a
    candidate series must be scaled by to be comparable to [reference];
    feed it to {!prepare_candidate}. *)

val prepare_candidate :
  ?length:int -> scale:float -> float array -> float array
(** [prepare_candidate ~scale candidate] resamples a candidate series and
    scales it into the normalized space of the truth that produced
    [scale]. *)

val prepare_candidate_into : float array -> scale:float -> float array -> unit
(** [prepare_candidate_into src ~scale dst] resamples [src] by index onto
    [Array.length dst] points and scales them by [scale], in one loop with
    no intermediate allocation: {!prepare_candidate} into a caller-owned
    buffer, and the one resample {!resample}, {!prepare_truth} and
    {!prepare_candidate} run. *)
