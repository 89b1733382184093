(* Tests for the serving layer: sliding-window state (qcheck equivalence
   against batch recompute), incremental line framing and trace
   streaming, the wire protocol, the engine's session lifecycle and
   determinism, escalation dedupe/backpressure and its escalation
   domain, and an end-to-end daemon run over a real unix socket. *)

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let contains_sub ~sub s =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  m = 0 || at 0

(* -- Sliding window: streaming state == batch recompute -- *)

(* Build a record whose observed window is [v] at time [t]; every other
   field is irrelevant to the sliding window. *)
let record ~time v =
  {
    Abg_trace.Record.time; cwnd = v; in_flight = v;
    acked_bytes = 0.0; rtt = 0.05; min_rtt = 0.05; max_rtt = 0.05;
    ack_rate = 1e6; rtt_gradient = 0.0; delay_gradient = 0.0;
    time_since_loss = 0.0; wmax = v; mss = 1448.0;
  }

let records_of_values values =
  Array.mapi (fun i v -> record ~time:(0.01 *. float_of_int i) v) values

(* The batch reference model: the window is the last [cap] records; the
   in-window losses are the full-stream pairwise detections (the
   {!Abg_trace.Segmentation.infer_loss_times} rule) whose detecting
   index still lies inside the window. *)
let batch_window ~cap values =
  let n = Array.length values in
  let len = Stdlib.min n cap in
  let window = Array.sub values (n - len) len in
  let losses = ref [] in
  for i = 1 to n - 1 do
    let prev = values.(i - 1) and cur = values.(i) in
    if prev > 0.0 && cur < 0.8 *. prev && i >= n - len then
      losses := (0.01 *. float_of_int i) :: !losses
  done;
  (window, Array.of_list (List.rev !losses))

(* Observations: positive values, zeros, and occasional nan/inf — the
   detection comparison must treat non-finite samples as "no loss"
   identically on the streaming and batch sides. *)
let arb_observations =
  QCheck.(
    make
      ~print:(fun (cap, vs) ->
        Printf.sprintf "cap=%d [%s]" cap
          (String.concat ";" (List.map string_of_float (Array.to_list vs))))
      Gen.(
        pair (int_range 2 12)
          (map Array.of_list
             (list_size (int_range 0 60)
                (frequency
                   [
                     (8, float_range 0.0 5000.0);
                     (1, return 0.0);
                     (1, oneofl [ Float.nan; Float.infinity ]);
                   ])))))

let prop_sliding_equals_batch =
  QCheck.Test.make ~name:"sliding state == batch recompute" ~count:500
    arb_observations (fun (cap, values) ->
      let s = Abg_serve.Sliding.create ~capacity:cap in
      Array.iter (fun r -> Abg_serve.Sliding.push s r) (records_of_values values);
      let window, losses = batch_window ~cap values in
      let streamed =
        Array.init (Abg_serve.Sliding.length s) (Abg_serve.Sliding.observed s)
      in
      (* nan <> nan, so compare windows positionally with nan-equality. *)
      let same_window =
        Array.length streamed = Array.length window
        && Array.for_all2
             (fun a b -> a = b || (Float.is_nan a && Float.is_nan b))
             streamed window
      in
      same_window && Abg_serve.Sliding.loss_times s = losses)

(* Window boundaries by hand: a loss detected exactly at the oldest
   in-window index survives; one index older is evicted. *)
let test_sliding_loss_eviction () =
  let s = Abg_serve.Sliding.create ~capacity:3 in
  (* Index:    0      1     2      3      4
     Values: 100 -> 10 -> 100 -> 100 -> 100
     Loss detected at index 1 (10 < 80). Window after 4 pushes covers
     indices [1, 4) = {1,2,3}: loss at 1 is the oldest in-window index.
     After the 5th push the window is {2,3,4}: evicted. *)
  let vs = [| 100.0; 10.0; 100.0; 100.0 |] in
  Array.iter (fun r -> Abg_serve.Sliding.push s r) (records_of_values vs);
  Alcotest.(check int) "loss on boundary survives" 1
    (Array.length (Abg_serve.Sliding.loss_times s));
  Abg_serve.Sliding.push s (record ~time:0.04 100.0);
  Alcotest.(check int) "loss evicted one past boundary" 0
    (Array.length (Abg_serve.Sliding.loss_times s))

let test_sliding_to_trace () =
  let s = Abg_serve.Sliding.create ~capacity:4 in
  let vs = [| 50.0; 60.0; 70.0; 10.0; 20.0; 30.0 |] in
  Array.iter (fun r -> Abg_serve.Sliding.push s r) (records_of_values vs);
  let t = Abg_serve.Sliding.to_trace ~cca_name:"x" ~scenario:"y" s in
  Alcotest.(check int) "trace length = window" 4 (Abg_trace.Trace.length t);
  Alcotest.(check (float 1e-9)) "oldest in-window record" 70.0
    (Abg_trace.Record.observed_cwnd t.Abg_trace.Trace.records.(0));
  Alcotest.(check int) "in-window loss carried" 1
    (Array.length t.Abg_trace.Trace.loss_times)

(* -- Io.Lines: framing is independent of chunk boundaries -- *)

let prop_lines_chunking_invariant =
  (* Any split of the byte stream into chunks yields the same emitted
     lines as feeding it whole. *)
  QCheck.Test.make ~name:"Io.Lines invariant under chunk splits" ~count:300
    QCheck.(
      pair
        (small_list (string_gen_of_size Gen.(int_range 0 8) Gen.printable))
        (small_list small_nat))
    (fun (lines_in, cuts) ->
      let payload = String.concat "\n" lines_in in
      let collect feed_chunks =
        let t = Abg_trace.Io.Lines.create () in
        let out = ref [] in
        let emit n l = out := (n, l) :: !out in
        List.iter (fun c -> Abg_trace.Io.Lines.feed t c emit) feed_chunks;
        Abg_trace.Io.Lines.flush t emit;
        List.rev !out
      in
      let whole = collect [ payload ] in
      let chunks =
        let rec split s = function
          | [] -> [ s ]
          | k :: rest ->
              let k = Stdlib.min k (String.length s) in
              String.sub s 0 k
              :: split (String.sub s k (String.length s - k)) rest
        in
        split payload cuts
      in
      collect chunks = whole)

let test_lines_crlf_and_tail () =
  let t = Abg_trace.Io.Lines.create () in
  let out = ref [] in
  let emit n l = out := (n, l) :: !out in
  Abg_trace.Io.Lines.feed t "a\r\nb\nc" emit;
  Alcotest.(check int) "tail buffered" 1 (Abg_trace.Io.Lines.buffered t);
  Abg_trace.Io.Lines.flush t emit;
  Alcotest.(check int) "tail flushed" 0 (Abg_trace.Io.Lines.buffered t);
  Alcotest.(check (list (pair int string)))
    "CR stripped, lines numbered"
    [ (1, "a"); (2, "b"); (3, "c") ]
    (List.rev !out)

(* A line one byte over the cap, between a line exactly at it and a
   ping, split anywhere: the framer reports it once by its number, keeps
   the numbers of the lines after it, and never holds more than the cap
   of it. *)
let prop_lines_cap =
  let cap = Abg_trace.Io.Lines.max_line in
  let at_cap = String.make cap 'a' in
  let payload = at_cap ^ "\n" ^ String.make (cap + 1) 'b' ^ "\nping\n" in
  QCheck.Test.make ~name:"Io.Lines reports an over-long line once" ~count:40
    QCheck.(list_of_size Gen.(0 -- 4) (int_bound (String.length payload)))
    (fun cuts ->
      let t = Abg_trace.Io.Lines.create () in
      let events = ref [] and held = ref 0 in
      let emit n l = events := `Line (n, l) :: !events in
      let too_long n = events := `Too_long n :: !events in
      let feed a b =
        Abg_trace.Io.Lines.feed ~too_long t (String.sub payload a (b - a)) emit;
        held := Stdlib.max !held (Abg_trace.Io.Lines.buffered t)
      in
      let last =
        List.fold_left
          (fun a b -> feed a b; b)
          0 (List.sort compare cuts)
      in
      feed last (String.length payload);
      Abg_trace.Io.Lines.flush t emit;
      List.rev !events = [ `Line (1, at_cap); `Too_long 2; `Line (3, "ping") ]
      && !held <= cap)

(* -- Io.Stream: incremental parse == batch parse -- *)

let sample_trace =
  lazy
    (let cfg =
       Abg_netsim.Config.make ~duration:2.0 ~bandwidth_mbps:8.0 ~rtt_ms:40.0 ()
     in
     Abg_trace.Trace.collect cfg ~name:"reno" (fun ~mss () ->
         Abg_cca.Reno.create ~mss ()))

let test_stream_matches_batch_parse () =
  let t = Lazy.force sample_trace in
  let text = Abg_trace.Io.to_string t in
  let s = Abg_trace.Io.Stream.create () in
  String.split_on_char '\n' text
  |> List.iter (fun line -> ignore (Abg_trace.Io.Stream.push s line));
  let streamed = Abg_trace.Io.Stream.to_trace s in
  let batch = Abg_trace.Io.of_string text in
  Alcotest.(check string) "cca" batch.Abg_trace.Trace.cca_name
    streamed.Abg_trace.Trace.cca_name;
  Alcotest.(check int) "records"
    (Abg_trace.Trace.length batch)
    (Abg_trace.Trace.length streamed);
  Alcotest.(check bool) "records identical" true
    (batch.Abg_trace.Trace.records = streamed.Abg_trace.Trace.records);
  Alcotest.(check (option string)) "cca_name meta" (Some "reno")
    (Abg_trace.Io.Stream.cca_name s)

let test_stream_error_position () =
  let s = Abg_trace.Io.Stream.create () in
  ignore (Abg_trace.Io.Stream.push s "# cca: reno");
  ignore (Abg_trace.Io.Stream.push s "");
  match Abg_trace.Io.Stream.push s "not a record" with
  | _ -> Alcotest.fail "malformed line accepted"
  | exception Invalid_argument msg ->
      (* 1-based position in this session's stream: third line pushed. *)
      Alcotest.(check bool)
        (Printf.sprintf "error names line 3: %s" msg)
        true (String.contains msg '3')

(* -- Protocol -- *)

let test_protocol_parse () =
  let open Abg_serve.Protocol in
  Alcotest.(check bool) "open" true (parse "open s1" = Ok (Open "s1"));
  Alcotest.(check bool) "obs keeps payload whitespace" true
    (parse "obs s1 1.0\t2.0\t3.0" = Ok (Obs ("s1", "1.0\t2.0\t3.0")));
  Alcotest.(check bool) "classify" true (parse "classify s1" = Ok (Classify "s1"));
  Alcotest.(check bool) "close" true (parse "close s1" = Ok (Close "s1"));
  Alcotest.(check bool) "stats" true (parse "stats" = Ok Stats);
  Alcotest.(check bool) "ping" true (parse "ping" = Ok Ping);
  Alcotest.(check bool) "crlf tolerated" true (parse "ping\r" = Ok Ping);
  Alcotest.(check bool) "blank is silent" true (parse "   " = Error "");
  (match parse "open" with
  | Error msg -> Alcotest.(check bool) "missing sid is an error" true (msg <> "")
  | Ok _ -> Alcotest.fail "open without sid accepted");
  match parse "frobnicate s1" with
  | Error msg ->
      Alcotest.(check bool) "unknown command named" true
        (contains_sub ~sub:"frobnicate" msg)
  | Ok _ -> Alcotest.fail "unknown command accepted"

(* The request parser before the in-place one, kept as its oracle: strip
   one CR, split off the command word, then the session id. *)
let oracle_parse line =
  let open Abg_serve.Protocol in
  let split_first s =
    match String.index_opt s ' ' with
    | None -> (s, "")
    | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  in
  let valid_sid sid =
    sid <> "" && String.for_all (fun c -> c <> ' ' && c <> '\t' && c <> '\r') sid
  in
  let line = Abg_trace.Io.strip_cr line in
  if String.trim line = "" then Error ""
  else begin
    let cmd, rest = split_first line in
    let with_sid k =
      if valid_sid rest then Ok (k rest)
      else Error (Printf.sprintf "%s: missing or malformed session id" cmd)
    in
    match cmd with
    | "open" -> with_sid (fun sid -> Open sid)
    | "classify" -> with_sid (fun sid -> Classify sid)
    | "close" -> with_sid (fun sid -> Close sid)
    | "obs" ->
        let sid, payload = split_first rest in
        if valid_sid sid then Ok (Obs (sid, payload))
        else Error "obs: missing or malformed session id"
    | "stats" -> Ok Stats
    | "ping" -> Ok Ping
    | _ ->
        let echo = if String.length cmd > 64 then String.sub cmd 0 64 else cmd in
        Error (Printf.sprintf "unknown command: %s" echo)
  end

(* Lines built from command words, session-id-like tokens and the
   separators the parser splits or rejects on. *)
let arbitrary_request_line =
  let piece =
    QCheck.Gen.oneofl
      [ "obs"; "open"; "classify"; "close"; "stats"; "ping"; "s1"; "x"; "1.5";
        String.make 40 'w'; " "; " "; "\t"; "\r"; "\012"; "" ]
  in
  QCheck.(make ~print:(Printf.sprintf "%S")
            Gen.(map (String.concat "") (list_size (0 -- 6) piece)))

let prop_protocol_parse_matches_oracle =
  QCheck.Test.make ~name:"Protocol.parse = split parser" ~count:5000
    arbitrary_request_line (fun line ->
      Abg_serve.Protocol.parse line = oracle_parse line)

(* The daemon acts on the request the parser read: only a parsed stats
   request gets the latency line. *)
let prop_latency_line_iff_stats =
  let engine = Abg_serve.Engine.create () in
  QCheck.Test.make ~name:"latency line iff a parsed stats" ~count:1000
    arbitrary_request_line (fun line ->
      let latency =
        List.exists
          (String.starts_with ~prefix:"ok latency ")
          (Abg_serve.Daemon.answer engine line)
      in
      latency = (Abg_serve.Protocol.parse line = Ok Abg_serve.Protocol.Stats))

(* Only a parsed classify or close request is timed into the classify
   histogram: lines the parser rejects for their session id leave the
   [classify_count] of the stats reply where it was, and a real classify
   moves it. *)
let test_daemon_classify_count () =
  let before = Abg_obs.Obs.enabled () in
  Abg_obs.Obs.set_enabled true;
  Fun.protect ~finally:(fun () -> Abg_obs.Obs.set_enabled before)
  @@ fun () ->
  let engine = Abg_serve.Engine.create () in
  let answer = Abg_serve.Daemon.answer engine in
  let classify_count () =
    match List.rev (answer "stats") with
    | latency :: _ ->
        Scanf.sscanf latency "ok latency classify_count=%d" Fun.id
    | [] -> Alcotest.fail "no reply to stats"
  in
  let n = classify_count () in
  List.iter
    (fun line ->
      match answer line with
      | [ reply ] ->
          Alcotest.(check bool) (Printf.sprintf "%S is refused" line) true
            (contains_sub ~sub:"missing or malformed session id" reply)
      | other ->
          Alcotest.failf "unexpected replies: %s" (String.concat "|" other))
    [ "classify  s1"; "close  s1"; "classify \t" ];
  Alcotest.(check int) "refused lines are not timed" n (classify_count ());
  ignore (answer "open s1");
  ignore (answer "classify s1");
  Alcotest.(check int) "a parsed classify is" (n + 1) (classify_count ())

(* -- Engine -- *)

let trace_lines t =
  String.split_on_char '\n' (Abg_trace.Io.to_string t)
  |> List.filter (fun l -> l <> "")

let feed_trace engine sid t =
  List.iter
    (fun l ->
      Alcotest.(check (list string))
        "obs lines are not acked" []
        (Abg_serve.Engine.handle_line engine ("obs " ^ sid ^ " " ^ l)))
    (trace_lines t)

let test_engine_session_lifecycle () =
  let engine = Abg_serve.Engine.create () in
  Alcotest.(check (list string)) "open" [ "ok open a" ]
    (Abg_serve.Engine.handle_line engine "open a");
  (match Abg_serve.Engine.handle_line engine "open a" with
  | [ reply ] ->
      Alcotest.(check bool) "duplicate open is an error" true
        (String.length reply >= 5 && String.sub reply 0 5 = "err a")
  | other ->
      Alcotest.failf "unexpected replies: %s" (String.concat "|" other));
  (match Abg_serve.Engine.handle_line engine "classify nosuch" with
  | [ reply ] ->
      Alcotest.(check bool) "classify unknown sid errors" true
        (String.length reply >= 3 && String.sub reply 0 3 = "err")
  | other ->
      Alcotest.failf "unexpected replies: %s" (String.concat "|" other));
  Alcotest.(check int) "one session" 1 (Abg_serve.Engine.session_count engine);
  (match Abg_serve.Engine.handle_line engine "close a" with
  | [ verdict; ok ] ->
      Alcotest.(check bool) "close reports a verdict" true
        (String.sub verdict 0 7 = "verdict");
      Alcotest.(check string) "close acked" "ok close a" ok
  | other ->
      Alcotest.failf "unexpected replies: %s" (String.concat "|" other));
  Alcotest.(check int) "no sessions" 0 (Abg_serve.Engine.session_count engine)

let test_engine_session_limit () =
  let config =
    { Abg_serve.Engine.default_config with max_sessions = 2 }
  in
  let engine = Abg_serve.Engine.create ~config () in
  ignore (Abg_serve.Engine.handle_line engine "open a");
  ignore (Abg_serve.Engine.handle_line engine "open b");
  match Abg_serve.Engine.handle_line engine "open c" with
  | [ reply ] ->
      Alcotest.(check bool) "session limit enforced" true
        (contains_sub ~sub:"limit" reply)
  | other -> Alcotest.failf "unexpected replies: %s" (String.concat "|" other)

let test_engine_obs_error_has_position () =
  let engine = Abg_serve.Engine.create () in
  ignore (Abg_serve.Engine.handle_line engine "open a");
  ignore (Abg_serve.Engine.handle_line engine "obs a # cca: reno");
  match Abg_serve.Engine.handle_line engine "obs a garbage" with
  | [ reply ] ->
      Alcotest.(check bool) "err echoes sid" true
        (String.sub reply 0 5 = "err a");
      Alcotest.(check bool) "err carries 1-based stream position" true
        (String.contains reply '2')
  | other -> Alcotest.failf "unexpected replies: %s" (String.concat "|" other)

let test_engine_session_memory_bounded () =
  (* A long-lived flow's session holds its sliding window, not its
     history: once the window is full, another 100k records leave live
     memory within one window's footprint. *)
  let engine = Abg_serve.Engine.create () in
  let window = Abg_serve.Engine.default_config.Abg_serve.Engine.window in
  ignore (Abg_serve.Engine.handle_line engine "open a");
  let obs i =
    let v = 1e4 +. float_of_int (i mod 7) in
    let r = record ~time:(0.01 *. float_of_int i) v in
    ignore
      (Abg_serve.Engine.handle_line engine
         ("obs a " ^ Abg_trace.Io.record_to_line r))
  in
  for i = 0 to window - 1 do
    obs i
  done;
  Gc.full_major ();
  let before = (Gc.stat ()).Gc.live_words in
  for i = window to window + 99_999 do
    obs i
  done;
  Gc.full_major ();
  let grown = (Gc.stat ()).Gc.live_words - before in
  let footprint =
    window * Obj.reachable_words (Obj.repr (record ~time:0.0 1.0))
  in
  Alcotest.(check bool)
    (Printf.sprintf "live words grew by %d, one window is %d" grown footprint)
    true (grown < footprint);
  Alcotest.(check int) "session still open" 1
    (Abg_serve.Engine.session_count engine)

let test_engine_short_window_unknown () =
  let engine = Abg_serve.Engine.create () in
  ignore (Abg_serve.Engine.handle_line engine "open a");
  match Abg_serve.Engine.handle_line engine "classify a" with
  | [ verdict ] ->
      Alcotest.(check bool) "empty window classifies Unknown" true
        (contains_sub ~sub:"Unknown" verdict)
  | other -> Alcotest.failf "unexpected replies: %s" (String.concat "|" other)

let test_engine_verdicts_deterministic () =
  (* Same request stream, two fresh engines: byte-identical replies. *)
  let t = Lazy.force sample_trace in
  let run () =
    let engine = Abg_serve.Engine.create () in
    ignore (Abg_serve.Engine.handle_line engine "open a");
    feed_trace engine "a" t;
    Abg_serve.Engine.handle_line engine "close a"
  in
  Alcotest.(check (list string)) "replayed verdicts identical" (run ()) (run ())

let test_engine_drain_sorted () =
  let engine = Abg_serve.Engine.create () in
  List.iter
    (fun sid -> ignore (Abg_serve.Engine.handle_line engine ("open " ^ sid)))
    [ "zeta"; "alpha"; "mid" ];
  let drained = Abg_serve.Engine.drain engine in
  Alcotest.(check int) "all sessions closed" 0
    (Abg_serve.Engine.session_count engine);
  let closes =
    List.filter_map
      (fun l ->
        if String.length l > 9 && String.sub l 0 9 = "ok close " then
          Some (String.sub l 9 (String.length l - 9))
        else None)
      drained
  in
  Alcotest.(check (list string)) "drain closes in sorted sid order"
    [ "alpha"; "mid"; "zeta" ] closes

(* -- Escalation -- *)

let window_trace values =
  let w = Abg_serve.Sliding.create ~capacity:8 in
  Array.iter (fun r -> Abg_serve.Sliding.push w r) (records_of_values values);
  Abg_serve.Sliding.to_trace w

let submitted esc sid trace =
  Abg_serve.Escalate.submit esc ~sid trace = Abg_serve.Escalate.Submitted

(* The runner holds every escalation on a latch, so [pending] stays
   observable until the test releases it. *)
let test_escalate_dedupe_and_cap () =
  let release = Atomic.make false in
  let ran = ref [] in
  let esc =
    Abg_serve.Escalate.create ~max_pending:2 (fun ~sid _trace ->
        while not (Atomic.get release) do
          Unix.sleepf 0.001
        done;
        ran := sid :: !ran)
  in
  Fun.protect ~finally:(fun () ->
      Atomic.set release true;
      Abg_serve.Escalate.drain esc)
  @@ fun () ->
  let tr1 = window_trace [| 1.0; 2.0; 3.0 |] in
  let tr2 = window_trace [| 9.0; 8.0; 7.0 |] in
  Alcotest.(check bool) "first submit accepted" true (submitted esc "a" tr1);
  Alcotest.(check bool) "identical window deduped" true
    (Abg_serve.Escalate.submit esc ~sid:"b" tr1 = Abg_serve.Escalate.Duplicate);
  Alcotest.(check bool) "second distinct accepted" true (submitted esc "c" tr2);
  Alcotest.(check bool) "over budget dropped" true
    (Abg_serve.Escalate.submit esc ~sid:"d" (window_trace [| 4.0; 5.0; 6.0 |])
    = Abg_serve.Escalate.Dropped);
  Alcotest.(check int) "two pending" 2 (Abg_serve.Escalate.pending esc);
  Atomic.set release true;
  Abg_serve.Escalate.drain esc;
  Alcotest.(check int) "drain runs everything" 0
    (Abg_serve.Escalate.pending esc);
  Alcotest.(check (list string)) "runner saw both, in order" [ "c"; "a" ] !ran

let test_escalate_failure_counted () =
  let failed =
    Abg_obs.Obs.Counter.make ~volatile:true "serve.escalations_failed"
  in
  let before = Abg_obs.Obs.Counter.value failed in
  let ran = ref [] in
  let esc =
    Abg_serve.Escalate.create (fun ~sid _trace ->
        if sid = "boom" then failwith "boom";
        ran := sid :: !ran)
  in
  List.iteri
    (fun i sid ->
      Alcotest.(check bool) sid true
        (submitted esc sid (window_trace [| float_of_int i; 1.0; 2.0 |])))
    [ "a"; "boom"; "c" ];
  Abg_serve.Escalate.drain esc;
  Alcotest.(check int) "failure counted" 1
    (Abg_obs.Obs.Counter.value failed - before);
  Alcotest.(check (list string)) "later escalations ran" [ "c"; "a" ] !ran

(* Each escalation finishes at once. Every other submit waits until
   nothing is pending, so it lands while the escalation domain leaves or
   after it left; the others queue behind a running domain. None of the
   200 may be stranded. *)
let test_escalate_all_run_before_drain () =
  let n = 200 in
  let ran = Atomic.make 0 in
  let esc =
    Abg_serve.Escalate.create ~max_pending:n (fun ~sid:_ _trace ->
        Atomic.incr ran)
  in
  for i = 1 to n do
    if i mod 2 = 0 then begin
      let deadline = Unix.gettimeofday () +. 10.0 in
      while Abg_serve.Escalate.pending esc > 0 do
        if Unix.gettimeofday () > deadline then
          Alcotest.failf "escalation %d stranded" (i - 1);
        Domain.cpu_relax ()
      done
    end;
    if not (submitted esc (string_of_int i)
              (window_trace [| float_of_int i; 1.0; 2.0 |]))
    then Alcotest.failf "window %d not submitted" i
  done;
  Abg_serve.Escalate.drain esc;
  Alcotest.(check int) "every escalation ran" n (Atomic.get ran);
  Alcotest.(check int) "none pending" 0 (Abg_serve.Escalate.pending esc)

(* Drain with no escalation domain alive: before any submit, and after
   a drain has joined the last one. A later submit must start a fresh
   domain, and drain must wait for it rather than return on the empty
   state the previous drain left. *)
let test_escalate_zero_worker_drain () =
  let ran = ref [] in
  let esc =
    Abg_serve.Escalate.create (fun ~sid _trace ->
        Unix.sleepf 0.02;
        ran := sid :: !ran)
  in
  Abg_serve.Escalate.drain esc;
  Alcotest.(check int) "nothing pending without a domain" 0
    (Abg_serve.Escalate.pending esc);
  List.iteri
    (fun i sid ->
      Alcotest.(check bool) sid true
        (submitted esc sid (window_trace [| float_of_int i; 3.0; 4.0 |]));
      Abg_serve.Escalate.drain esc;
      Alcotest.(check int) (sid ^ " drained") 0
        (Abg_serve.Escalate.pending esc))
    [ "a"; "b" ];
  Alcotest.(check (list string)) "each drain waited for its escalation"
    [ "b"; "a" ] !ran

(* -- Daemon end-to-end over a unix socket -- *)

(* The daemon runs in a thread, not a forked child: earlier tests spawn
   domains, and forking a multi-domain process is unsupported. Process-level semantics (SIGTERM, exit code) are the CI
   smoke test's job, against the real binary; here {!Daemon.request_stop}
   plays the signal's role and a returned [run] plays the clean exit. *)
let test_daemon_end_to_end () =
  let dir = Filename.temp_file "abg-serve" "" in
  Unix.unlink dir;
  Unix.mkdir dir 0o700;
  let socket = Filename.concat dir "d.sock" in
  let endpoint = Abg_serve.Daemon.Unix_socket socket in
  let drained = ref false in
  let config =
    { Abg_serve.Daemon.default_config with endpoint; log = (fun _ -> ()) }
  in
  let daemon =
    Thread.create
      (fun () ->
        Abg_serve.Daemon.run ~config ();
        drained := true)
      ()
  in
  Fun.protect ~finally:(fun () ->
      Abg_serve.Daemon.request_stop ();
      Thread.join daemon;
      (try Unix.unlink socket with Unix.Unix_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
  @@ fun () ->
  (* Wait for the socket to appear (warm-up precedes listen). *)
  let deadline = Unix.gettimeofday () +. 120.0 in
  while (not (Sys.file_exists socket)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.05
  done;
  Alcotest.(check bool) "daemon came up" true (Sys.file_exists socket);
  let t = Lazy.force sample_trace in
  let replies = Abg_serve.Client.stream endpoint [ ("f1", t); ("f2", t) ] in
  let vs = Abg_serve.Client.verdicts replies in
  Alcotest.(check int) "one verdict per flow" 2 (List.length vs);
  (match vs with
  | (sid1, n1, d1, v1) :: (sid2, n2, d2, v2) :: _ ->
      Alcotest.(check string) "flow order" "f1" sid1;
      Alcotest.(check string) "flow order" "f2" sid2;
      Alcotest.(check bool) "windows filled" true (n1 > 0 && n1 = n2);
      (* Identical input streams must classify identically. *)
      Alcotest.(check string) "same trace, same verdict" v1 v2;
      Alcotest.(check (float 1e-12)) "same trace, same distance" d1 d2
  | _ -> Alcotest.fail "missing verdicts");
  (* Liveness plus stats shape. *)
  let stats =
    Abg_serve.Client.execute endpoint ~request:"stats\nping\n"
      ~stop_line:(fun l -> l = "ok pong")
  in
  Alcotest.(check bool) "stats line present" true
    (List.exists (fun l -> has_prefix ~prefix:"ok stats " l) stats);
  Alcotest.(check bool) "latency line present" true
    (List.exists (fun l -> has_prefix ~prefix:"ok latency " l) stats);
  (* A request line over the framer's cap is answered once, by its line
     number, and the connection goes on serving. *)
  let cap = Abg_trace.Io.Lines.max_line in
  Alcotest.(check (list string))
    "over-long line answered once"
    [ Printf.sprintf "err - line 1: longer than %d bytes" cap; "ok pong" ]
    (Abg_serve.Client.execute endpoint
       ~request:(String.make (cap + 1) 'a' ^ "\nping\n")
       ~stop_line:(fun l -> l = "ok pong"));
  (* A command word as long as a line may be is echoed by a short
     prefix: the error reply stays far below the cap. *)
  (match
     Abg_serve.Client.execute endpoint
       ~request:(String.make cap 'a' ^ "\nping\n")
       ~stop_line:(fun l -> l = "ok pong")
   with
  | [ err; "ok pong" ] ->
      Alcotest.(check bool) "unknown command answered" true
        (has_prefix ~prefix:"err - unknown command: aaaa" err);
      Alcotest.(check bool)
        (Printf.sprintf "1 MiB word, %d-byte reply" (String.length err))
        true
        (String.length err < 128)
  | replies ->
      Alcotest.failf "1 MiB word: %d replies" (List.length replies));
  (* Graceful shutdown: stop request drains, removes the socket file,
     and [run] returns. *)
  Abg_serve.Daemon.request_stop ();
  Thread.join daemon;
  Alcotest.(check bool) "run returned cleanly" true !drained;
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists socket)

(* -- Claiming the socket path -- *)

let with_socket_dir f =
  let dir = Filename.temp_file "abg-sock" "" in
  Unix.unlink dir;
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "s.sock" in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f path)

let listen path =
  Abg_serve.Daemon.listen_on (Abg_serve.Daemon.Unix_socket path)

let accepts path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error _ -> false)

let refused_with path msg =
  match listen path with
  | fd ->
      Unix.close fd;
      Alcotest.fail "listen_on took the path"
  | exception Abg_serve.Daemon.Endpoint_in_use m ->
      Alcotest.(check string) "one line naming the path" (path ^ msg) m

let test_socket_path_absent () =
  with_socket_dir @@ fun path ->
  let fd = listen path in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Alcotest.(check bool) "listening" true (accepts path)

(* A dead daemon's socket refuses connections: it is replaced. *)
let test_socket_path_stale () =
  with_socket_dir @@ fun path ->
  Unix.close (listen path);
  Alcotest.(check bool) "stale socket refuses" false (accepts path);
  let fd = listen path in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  Alcotest.(check bool) "listening again" true (accepts path)

(* A live daemon keeps its socket: same inode, still answering. *)
let test_socket_path_live () =
  with_socket_dir @@ fun path ->
  let fd = listen path in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let inode = (Unix.lstat path).Unix.st_ino in
  refused_with path ": another daemon is listening";
  Alcotest.(check int) "same socket file" inode (Unix.lstat path).Unix.st_ino;
  Alcotest.(check bool) "first daemon still answers" true (accepts path)

(* A daemon refuses a live socket's path before it warms up: no
   reference flow is simulated. *)
let test_daemon_refuses_before_warm_up () =
  with_socket_dir @@ fun path ->
  let fd = listen path in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let runs = Abg_obs.Obs.Counter.make "sim.runs" in
  let before = Abg_obs.Obs.Counter.value runs in
  let config =
    {
      Abg_serve.Daemon.default_config with
      endpoint = Abg_serve.Daemon.Unix_socket path;
      log = (fun _ -> ());
    }
  in
  (match Abg_serve.Daemon.run ~config () with
  | () -> Alcotest.fail "run served on a path in use"
  | exception Abg_serve.Daemon.Endpoint_in_use m ->
      Alcotest.(check string) "one line naming the path"
        (path ^ ": another daemon is listening") m);
  Alcotest.(check int) "no reference simulated" before
    (Abg_obs.Obs.Counter.value runs)

(* A socket path whose directory is missing, or is a regular file,
   cannot be bound: the daemon refuses it, naming the path, before it
   warms up. *)
let test_daemon_refuses_missing_dir_before_warm_up () =
  with_socket_dir @@ fun path ->
  let dir = Filename.dirname path in
  let nodir = Filename.concat dir "nodir" in
  Out_channel.with_open_bin path (fun oc -> output_string oc "data\n");
  let runs = Abg_obs.Obs.Counter.make "sim.runs" in
  let before = Abg_obs.Obs.Counter.value runs in
  List.iter
    (fun (socket, why) ->
      let config =
        {
          Abg_serve.Daemon.default_config with
          endpoint = Abg_serve.Daemon.Unix_socket socket;
          log = (fun _ -> ());
        }
      in
      match Abg_serve.Daemon.run ~config () with
      | () -> Alcotest.fail "run served on an unbindable path"
      | exception Abg_serve.Daemon.Endpoint_in_use m ->
          Alcotest.(check string) "one line naming the path" (socket ^ why) m)
    [
      (Filename.concat nodir "x.sock",
       ": " ^ nodir ^ ": No such file or directory");
      (Filename.concat path "x.sock", ": " ^ path ^ " is not a directory");
    ];
  Alcotest.(check int) "no reference simulated" before
    (Abg_obs.Obs.Counter.value runs)

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

(* A connect that fails leaves no descriptor behind. *)
let test_client_connect_failure_closes () =
  with_socket_dir @@ fun path ->
  let before = open_fds () in
  for _ = 1 to 16 do
    match Abg_serve.Client.connect (Abg_serve.Daemon.Unix_socket path) with
    | fd ->
        Unix.close fd;
        Alcotest.fail "connected to a missing socket"
    | exception Unix.Unix_error (Unix.ENOENT, "connect", _) -> ()
  done;
  Alcotest.(check int) "no descriptor leaked" before (open_fds ())

let test_socket_path_not_a_socket () =
  with_socket_dir @@ fun path ->
  Out_channel.with_open_bin path (fun oc -> output_string oc "data\n");
  refused_with path ": exists and is not a socket";
  Alcotest.(check string) "file untouched" "data\n"
    (In_channel.with_open_bin path In_channel.input_all)

(* A TCP port another socket listens on is refused naming the endpoint,
   and the daemon's own socket is closed; the daemon refuses it before it
   warms up, simulating no reference flow. *)
let test_tcp_port_in_use () =
  let holder = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close holder) @@ fun () ->
  Unix.bind holder (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen holder 1;
  let port =
    match Unix.getsockname holder with
    | Unix.ADDR_INET (_, port) -> port
    | Unix.ADDR_UNIX _ -> Alcotest.fail "not an inet socket"
  in
  let expected =
    Printf.sprintf "127.0.0.1:%d: %s" port (Unix.error_message Unix.EADDRINUSE)
  in
  let before = open_fds () in
  (match Abg_serve.Daemon.listen_on (Abg_serve.Daemon.Tcp port) with
  | fd ->
      Unix.close fd;
      Alcotest.fail "listen_on took a port in use"
  | exception Abg_serve.Daemon.Endpoint_in_use m ->
      Alcotest.(check string) "one line naming the endpoint" expected m);
  Alcotest.(check int) "no descriptor leaked" before (open_fds ());
  let runs = Abg_obs.Obs.Counter.make "sim.runs" in
  let runs_before = Abg_obs.Obs.Counter.value runs in
  let config =
    {
      Abg_serve.Daemon.default_config with
      endpoint = Abg_serve.Daemon.Tcp port;
      log = (fun _ -> ());
    }
  in
  (match Abg_serve.Daemon.run ~config () with
  | () -> Alcotest.fail "run served on a port in use"
  | exception Abg_serve.Daemon.Endpoint_in_use m ->
      Alcotest.(check string) "run names the endpoint" expected m);
  Alcotest.(check int) "no reference simulated" runs_before
    (Abg_obs.Obs.Counter.value runs);
  Alcotest.(check int) "no descriptor leaked by run" before (open_fds ())

(* Two domains log through one channel at once: every line reads back
   whole, each exactly once. *)
let test_log_lines_whole () =
  let path = Filename.temp_file "abg-log" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let lines = 10_000 in
  let line d i =
    Printf.sprintf "domain %d line %05d %s" d i (String.make 40 'x')
  in
  Out_channel.with_open_bin path (fun oc ->
      let log d () =
        for i = 1 to lines do
          Abg_serve.Daemon.log_line oc (line d i)
        done
      in
      let other = Domain.spawn (log 1) in
      log 0 ();
      Domain.join other);
  let got =
    In_channel.with_open_bin path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
    |> List.sort compare
  in
  let want =
    List.concat_map (fun d -> List.init lines (fun i -> line d (i + 1))) [ 0; 1 ]
    |> List.sort compare
  in
  Alcotest.(check int) "line count" (2 * lines) (List.length got);
  Alcotest.(check bool) "every line whole" true (got = want)

let qsuite = List.map QCheck_alcotest.to_alcotest

let suites =
  [
    ( "serve-sliding",
      [
        Alcotest.test_case "loss eviction at boundary" `Quick
          test_sliding_loss_eviction;
        Alcotest.test_case "to_trace materializes window" `Quick
          test_sliding_to_trace;
      ]
      @ qsuite [ prop_sliding_equals_batch ] );
    ( "serve-framing",
      [
        Alcotest.test_case "crlf + unterminated tail" `Quick
          test_lines_crlf_and_tail;
        Alcotest.test_case "stream == batch parse" `Quick
          test_stream_matches_batch_parse;
        Alcotest.test_case "stream error position" `Quick
          test_stream_error_position;
      ]
      @ qsuite [ prop_lines_chunking_invariant; prop_lines_cap ] );
    ( "serve-engine",
      [
        Alcotest.test_case "protocol parse" `Quick test_protocol_parse;
        Alcotest.test_case "session lifecycle" `Quick
          test_engine_session_lifecycle;
        Alcotest.test_case "session limit" `Quick test_engine_session_limit;
        Alcotest.test_case "obs error position" `Quick
          test_engine_obs_error_has_position;
        Alcotest.test_case "short window is Unknown" `Quick
          test_engine_short_window_unknown;
        Alcotest.test_case "session memory bounded" `Slow
          test_engine_session_memory_bounded;
        Alcotest.test_case "verdicts deterministic" `Slow
          test_engine_verdicts_deterministic;
        Alcotest.test_case "drain in sorted sid order" `Quick
          test_engine_drain_sorted;
        Alcotest.test_case "classify count follows the parse" `Quick
          test_daemon_classify_count;
      ]
      @ qsuite
          [ prop_protocol_parse_matches_oracle; prop_latency_line_iff_stats ]
    );
    ( "serve-escalate",
      [
        Alcotest.test_case "dedupe + pending cap" `Quick
          test_escalate_dedupe_and_cap;
        Alcotest.test_case "failure counted, later escalations run" `Quick
          test_escalate_failure_counted;
        Alcotest.test_case "200 windows all run before drain" `Quick
          test_escalate_all_run_before_drain;
        Alcotest.test_case "zero-worker drain" `Quick
          test_escalate_zero_worker_drain;
      ] );
    ( "serve-daemon",
      [ Alcotest.test_case "end-to-end over unix socket" `Slow
          test_daemon_end_to_end;
        Alcotest.test_case "socket path absent" `Quick test_socket_path_absent;
        Alcotest.test_case "stale socket replaced" `Quick test_socket_path_stale;
        Alcotest.test_case "live socket refused" `Quick test_socket_path_live;
        Alcotest.test_case "refused before warm-up" `Quick
          test_daemon_refuses_before_warm_up;
        Alcotest.test_case "missing directory refused before warm-up" `Quick
          test_daemon_refuses_missing_dir_before_warm_up;
        Alcotest.test_case "failed connect closes its socket" `Quick
          test_client_connect_failure_closes;
        Alcotest.test_case "non-socket path kept" `Quick
          test_socket_path_not_a_socket;
        Alcotest.test_case "TCP port in use refused" `Quick
          test_tcp_port_in_use;
        Alcotest.test_case "log lines whole across domains" `Quick
          test_log_lines_whole ] );
  ]
