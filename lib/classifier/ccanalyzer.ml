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

let reference_traces =
  lazy (Gordon.reference_suites ("cdg" :: "nv" :: Gordon.known_set) Fun.id)

let trace_distance a b =
  let _, va = Abg_trace.Trace.observed_series a in
  let _, vb = Abg_trace.Trace.observed_series b in
  if Array.length va = 0 || Array.length vb = 0 then infinity
  else Abg_distance.Metric.compute Abg_distance.Metric.Dtw ~truth:va ~candidate:vb

(* Mean distance between a query suite and one reference suite: every
   query trace against every reference trace, not paired by scenario. *)
let suite_distance queries references =
  let ds =
    List.concat_map
      (fun q -> List.map (fun r -> trace_distance q r) references)
      queries
  in
  match ds with
  | [] -> infinity
  | _ -> List.fold_left ( +. ) 0.0 ds /. float_of_int (List.length ds)

let match_threshold = 4.0

(** [classify traces] ranks every known CCA by DTW distance to the query
    suite. *)
let classify traces =
  let ranked =
    Lazy.force reference_traces
    |> List.map (fun (name, refs) -> (name, suite_distance traces refs))
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
