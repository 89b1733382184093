(** Point-to-point distances: cheap but phase-sensitive (the weakness
    Figure 3 quantifies against DTW). Both require equal-length series —
    use {!Series.prepare_truth}. With [?cutoff], a distance that provably
    (strictly) exceeds the cutoff is reported as [infinity] without
    finishing the scan; results at or below the cutoff are exact. *)

val euclidean : ?cutoff:float -> float array -> float array -> float
(** L2 distance. Empty input yields [infinity]. *)

val manhattan : ?cutoff:float -> float array -> float array -> float
(** L1 distance. Empty input yields [infinity]. *)
