(** A Gordon-style CCA classifier (Mishra et al., SIGMETRICS '20).

    Gordon probes a server and matches the visible-CWND evolution against
    its set of known CCAs. This substitute is passive and works from
    collected traces: it generates reference traces for each known CCA on
    a small scenario grid, extracts the feature vector of {!Features}, and
    classifies a query by nearest centroid with a confidence threshold —
    beyond the threshold the verdict is "Unknown", with the closest match
    reported in parentheses as the paper's Table 3 does. *)

(** Gordon's known-CCA set (§5.1). *)
let known_set =
  [ "bbr"; "cubic"; "bic"; "htcp"; "scalable"; "yeah"; "vegas"; "veno";
    "reno"; "illinois"; "westwood" ]

type verdict =
  | Known of string
  | Unknown of string option  (** closest known CCA, if any stands out *)

let verdict_to_string = function
  | Known name -> name
  | Unknown (Some close) -> Printf.sprintf "Unknown (%s)" close
  | Unknown None -> "Unknown"

(* Gordon actively probes the server through its own bottleneck settings,
   so references live on the same RTT x bandwidth grid the tool probes
   with — but with different seeds and durations than any query run, so a
   classification is never a comparison of two identical simulations. *)
let reference_scenarios () =
  [ Abg_netsim.Config.make ~bandwidth_mbps:5.0 ~rtt_ms:10.0 ~duration:15.0
      ~ack_jitter:0.001 ~seed:201 ();
    Abg_netsim.Config.make ~bandwidth_mbps:10.0 ~rtt_ms:25.0 ~duration:15.0
      ~ack_jitter:0.001 ~seed:202 ();
    Abg_netsim.Config.make ~bandwidth_mbps:12.0 ~rtt_ms:50.0 ~duration:15.0
      ~ack_jitter:0.001 ~seed:203 ();
    Abg_netsim.Config.make ~bandwidth_mbps:15.0 ~rtt_ms:75.0 ~duration:15.0
      ~ack_jitter:0.001 ~seed:204 () ]

(** [reference_suites names collect f] pairs each registered CCA in
    [names] with [f] of its flows on {!reference_scenarios}, each
    simulated by [collect cfg ~name ctor] — the reference side of both
    offline classifiers and of {!Online}. Gordon passes [Trace.collect];
    CCAnalyzer, for the two CCAs Gordon does not know, and {!Online}
    pass [Trace.collect_observed] and keep no records. [f] runs on each
    suite before the next is simulated: Gordon reduces each suite as it
    goes, and reducing only after every simulation raises peak RSS. *)
let reference_suites names collect f =
  List.filter_map
    (fun name ->
      Option.map
        (fun ctor ->
          ( name,
            f
              (Abg_parallel.Pool.map_list
                 (fun cfg -> collect cfg ~name ctor)
                 (reference_scenarios ())) ))
        (Abg_cca.Registry.find name))
    names

(** CCAnalyzer's prepared form of one reference flow: its observed
    window resampled to {!Abg_distance.Series.default_length}, [None]
    for an empty flow. *)
let prepared_window = function
  | [||] -> None
  | v -> Some Abg_distance.Series.(resample ~length:default_length v)

type reference = {
  vector : float array;  (** the suite's feature vector *)
  windows : float array option list;
      (** each flow's {!prepared_window}, which CCAnalyzer scores against *)
}

(* One simulation per reference flow per process: each suite is reduced
   to its feature vector and to the prepared windows CCAnalyzer takes
   from here, so the records go as soon as the suite is reduced. *)
let references =
  Abg_parallel.Once.make (fun () ->
      reference_suites known_set Abg_trace.Trace.collect (fun traces ->
          let window tr =
            prepared_window (snd (Abg_trace.Trace.observed_series tr))
          in
          {
            vector = Features.to_vector (Features.extract traces);
            windows = List.map window traces;
          }))

let vector_distance a b =
  let acc = ref 0.0 in
  for i = 0 to Array.length a - 1 do
    let d = a.(i) -. b.(i) in
    acc := !acc +. (d *. d)
  done;
  sqrt !acc

(** [rank traces] — known CCAs ordered by feature distance to the query
    traces, closest first. *)
let rank traces =
  let query = Features.to_vector (Features.extract traces) in
  Abg_parallel.Once.get references
  |> List.map (fun (name, r) -> (name, vector_distance query r.vector))
  |> List.sort (fun (_, a) (_, b) -> compare a b)

(* Confidence thresholds, calibrated on the reference grid: a match is
   confident when clearly closer than the typical inter-CCA gap. *)
let match_threshold = 0.5
let closest_report_threshold = 6.0

(** [classify traces] — the Table 3 verdict for a suite of traces from one
    (possibly unknown) CCA. *)
let classify traces =
  match rank traces with
  | [] -> Unknown None
  | (best, d) :: _ ->
      if d <= match_threshold then Known best
      else if d <= closest_report_threshold then Unknown (Some best)
      else Unknown None
