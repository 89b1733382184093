(** Dynamic Time Warping distance (Berndt & Clifford, KDD '94) — the
    paper's primary trace-comparison metric (§4.3). *)

val distance : ?band:int -> ?cutoff:float -> float array -> float array -> float
(** [distance ?band ?cutoff a b] is the minimum total cost of a monotone
    alignment between the two series, with pairwise cost [|a.(i) - b.(j)|].
    [band] is an optional Sakoe–Chiba constraint [|i - j| <= band] (it is
    widened automatically to at least the length difference); omitting it
    computes the exact unconstrained distance. Empty input yields
    [infinity].

    [cutoff] enables early abandonment: if the distance provably
    (strictly) exceeds [cutoff], the scan stops and the result is
    [infinity]. Whenever the true distance is at or below [cutoff], the
    result is exact — so folding with a best-so-far cutoff selects the
    same winner as cutoff-free scoring. *)
