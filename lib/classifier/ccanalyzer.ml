(** A CCAnalyzer-style distance classifier (Ware et al., SIGCOMM '24).

    CCAnalyzer compares the measured window evolution directly against
    reference traces of known CCAs with a time-series distance, and
    reports "Unknown" plus the closest known algorithms when nothing
    matches well — the behavior the paper relies on for the student CCA
    dataset (§5.1, Table 3). This substitute uses the same DTW metric as
    the rest of the pipeline over per-scenario reference traces. *)

type result = {
  verdict : Gordon.verdict;
  closest : (string * float) list;  (** all known CCAs, closest first *)
}

(* The two CCAs CCAnalyzer knows beyond Gordon's set: CDG and NV, the
   closest matches the paper reports for student CCAs. *)
let beyond_gordon = [ "cdg"; "nv" ]

(** The CCAs CCAnalyzer and {!Online} can name: CDG and NV, then
    Gordon's set. *)
let known = beyond_gordon @ Gordon.known_set

(* Every known CCA's references in {!known} order, each flow in
   {!Gordon.prepared_window} form, so [classify] prepares only the query
   side of the DTW. Gordon's reference pass already simulated and
   prepared its 11 CCAs, so only CDG and NV are simulated here, and
   observed-only. *)
let references =
  Abg_parallel.Once.make (fun () ->
      Gordon.reference_suites beyond_gordon
        (fun cfg ~name:_ ctor -> Abg_trace.Trace.collect_observed cfg ctor)
        (List.map Gordon.prepared_window)
      @ List.map
          (fun (name, r) -> (name, r.Gordon.windows))
          (Abg_parallel.Once.get Gordon.references))

let match_threshold = 4.0

(** [classify traces] ranks every known CCA by the mean DTW distance
    over every (query trace, reference trace) pair, each query as the
    truth side; a pair with an empty trace is infinitely far. *)
let classify traces =
  let queries =
    List.map
      (fun tr ->
        match Abg_trace.Trace.observed_series tr with
        | _, [||] -> None
        | _, v ->
            Some (Abg_distance.Metric.prepare Abg_distance.Metric.Dtw ~truth:v))
      traces
  in
  let pair q r =
    match (q, r) with
    | Some q, Some r -> Abg_distance.Metric.compute_prepared q ~candidate:r
    | _ -> infinity
  in
  let mean_distance refs =
    match (queries, refs) with
    | [], _ | _, [] -> infinity
    | _ ->
        let sum =
          List.fold_left
            (fun acc q -> List.fold_left (fun acc r -> acc +. pair q r) acc refs)
            0.0 queries
        in
        sum /. float_of_int (List.length queries * List.length refs)
  in
  let ranked =
    Abg_parallel.Once.get references
    |> List.map (fun (name, refs) -> (name, mean_distance refs))
    |> List.sort (fun (_, a) (_, b) -> compare a b)
  in
  let verdict =
    match ranked with
    | (best, d) :: _ when d <= match_threshold -> Gordon.Known best
    | (best, _) :: _ -> Gordon.Unknown (Some best)
    | [] -> Gordon.Unknown None
  in
  { verdict; closest = ranked }

(** The two closest known CCAs, as the paper reports for the student
    dataset ("Unknown (CDG, Vegas)"). *)
let closest_two result =
  match result.closest with
  | (a, _) :: (b, _) :: _ -> Some (a, b)
  | _ -> None
