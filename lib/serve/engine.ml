(** The serving engine: protocol requests in, response lines out.

    Pure session bookkeeping — no sockets, no clocks, no threads. The
    daemon owns exactly one engine and feeds it complete lines; tests
    drive it directly. Everything observable in a response is a
    deterministic function of the request sequence: replaying a stream
    yields byte-identical verdicts (the wall clock only ever surrounds
    the engine, in the daemon's latency histograms, never inside it).

    A session is one flow: an incremental trace parser (so [obs]
    payloads are trace-file lines, with 1-based per-session line errors)
    plus a sliding window over its records. Classification scores the
    window against the prepared reference set ({!Online}); an "Unknown"
    verdict on a sufficiently full window escalates the materialized
    window to background synthesis ({!Escalate}). *)

(* Telemetry. All non-volatile counters here count protocol events —
   functions of the request stream alone — so a pinned serve run diffs
   byte-exact in CI. *)
let obs_opened = Abg_obs.Obs.Counter.make "serve.sessions_opened"
let obs_closed = Abg_obs.Obs.Counter.make "serve.sessions_closed"
let obs_records = Abg_obs.Obs.Counter.make "serve.records"
let obs_meta = Abg_obs.Obs.Counter.make "serve.meta_lines"
let obs_classify = Abg_obs.Obs.Counter.make "serve.classifications"
let obs_known = Abg_obs.Obs.Counter.make "serve.verdicts_known"
let obs_unknown = Abg_obs.Obs.Counter.make "serve.verdicts_unknown"
let obs_errors = Abg_obs.Obs.Counter.make "serve.request_errors"

type config = {
  window : int;  (** sliding-window capacity, records per flow *)
  max_sessions : int;  (** concurrent session cap, across connections *)
  escalate : Escalate.t option;  (** [None]: unknowns are only reported *)
}

let default_config = { window = 512; max_sessions = 4096; escalate = None }

type session = {
  sid : string;
  stream : Abg_trace.Io.Stream.t;
  window : Sliding.t;
}

type t = {
  config : config;
  online : Abg_classifier.Online.t Lazy.t;
      (* lazy: reference preparation simulates traces; tests that only
         exercise parsing and session bookkeeping never pay for it *)
  sessions : (string, session) Hashtbl.t;
  (* Engine-local stats for the [stats] reply — plain fields, not the
     global Obs counters, so concurrent engines (tests) don't bleed into
     each other's replies. *)
  mutable n_records : int;
  mutable n_classifications : int;
  mutable n_escalated : int;
  mutable n_errors : int;
}

let create ?(config = default_config) () =
  {
    config;
    online = lazy (Abg_classifier.Online.create ~window:config.window ());
    sessions = Hashtbl.create 256;
    n_records = 0;
    n_classifications = 0;
    n_escalated = 0;
    n_errors = 0;
  }

let session_count t = Hashtbl.length t.sessions

(** [warm_up t] forces the reference preparation now (it simulates the
    52 reference flows, observed windows only — about 0.3 s of work on a
    release build). The daemon calls this before announcing itself so the
    first classify request pays milliseconds like every other, instead of
    absorbing the whole preparation into its latency. *)
let warm_up t = ignore (Lazy.force t.online : Abg_classifier.Online.t)

let error t ?sid msg =
  Abg_obs.Obs.Counter.incr obs_errors;
  t.n_errors <- t.n_errors + 1;
  [ Protocol.err ?sid msg ]

let find t sid =
  match Hashtbl.find_opt t.sessions sid with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "no such session: %s" sid)

let open_session t sid =
  if Hashtbl.mem t.sessions sid then
    error t ~sid (Printf.sprintf "session already open: %s" sid)
  else if Hashtbl.length t.sessions >= t.config.max_sessions then
    error t ~sid
      (Printf.sprintf "session limit reached (%d)" t.config.max_sessions)
  else begin
    Hashtbl.replace t.sessions sid
      {
        sid;
        stream = Abg_trace.Io.Stream.create ();
        window = Sliding.create ~capacity:t.config.window;
      };
    Abg_obs.Obs.Counter.incr obs_opened;
    [ Protocol.ok ("open " ^ sid) ]
  end

let observe t sid payload =
  match find t sid with
  | Error msg -> error t ~sid msg
  | Ok s -> (
      match Abg_trace.Io.Stream.step s.stream payload with
      | None ->
          Abg_obs.Obs.Counter.incr obs_meta;
          []
      | Some r ->
          Sliding.push s.window r;
          Abg_obs.Obs.Counter.incr obs_records;
          t.n_records <- t.n_records + 1;
          []
      | exception Invalid_argument msg -> error t ~sid msg)

(* Classify [s]'s current window; escalate confirmed unknowns (windows
   deep enough to have meant something). Returns the verdict line. *)
let classify_session t s =
  let w = s.window in
  let len = Sliding.length w in
  let result =
    Abg_classifier.Online.classify_array (Lazy.force t.online)
      (Array.init len (Sliding.observed w))
  in
  Abg_obs.Obs.Counter.incr obs_classify;
  t.n_classifications <- t.n_classifications + 1;
  (match result.Abg_classifier.Online.verdict with
  | Abg_classifier.Gordon.Known _ -> Abg_obs.Obs.Counter.incr obs_known
  | Abg_classifier.Gordon.Unknown _ ->
      Abg_obs.Obs.Counter.incr obs_unknown;
      if len >= Abg_classifier.Online.min_points then
        Option.iter
          (fun esc ->
            let cca_name =
              Option.value ~default:"unknown"
                (Abg_trace.Io.Stream.cca_name s.stream)
            in
            let trace = Sliding.to_trace ~cca_name ~scenario:s.sid w in
            match Escalate.submit esc ~sid:s.sid trace with
            | Escalate.Submitted -> t.n_escalated <- t.n_escalated + 1
            | Escalate.Duplicate | Escalate.Dropped -> ())
          t.config.escalate);
  Protocol.verdict ~sid:s.sid ~window:len
    ~distance:result.Abg_classifier.Online.distance
    result.Abg_classifier.Online.verdict

let classify t sid =
  match find t sid with
  | Error msg -> error t ~sid msg
  | Ok s -> [ classify_session t s ]

let close t sid =
  match find t sid with
  | Error msg -> error t ~sid msg
  | Ok s ->
      let verdict = classify_session t s in
      Hashtbl.remove t.sessions sid;
      Abg_obs.Obs.Counter.incr obs_closed;
      [ verdict; Protocol.ok ("close " ^ sid) ]

let stats t =
  [
    Protocol.ok
      (Printf.sprintf "stats sessions=%d records=%d classifications=%d \
                       escalated=%d errors=%d"
         (Hashtbl.length t.sessions) t.n_records t.n_classifications
         t.n_escalated t.n_errors);
  ]

(** [handle t parsed] — execute one request line as {!Protocol.parse}
    read it; the response lines to send back, in order (empty for
    accepted [obs] lines and blank input). *)
let handle t = function
  | Error "" -> []
  | Error msg -> error t msg
  | Ok (Protocol.Open sid) -> open_session t sid
  | Ok (Protocol.Obs (sid, payload)) -> observe t sid payload
  | Ok (Protocol.Classify sid) -> classify t sid
  | Ok (Protocol.Close sid) -> close t sid
  | Ok Protocol.Stats -> stats t
  | Ok Protocol.Ping -> [ Protocol.ok "pong" ]

(** [handle_line t line] — parse and execute one request line. *)
let handle_line t line = handle t (Protocol.parse line)

(** [drain t] closes every remaining session in sid order (sorted, so
    shutdown output is deterministic regardless of hash layout) and
    returns their final verdict lines — the SIGTERM flush. *)
let drain t =
  let sids =
    Hashtbl.fold (fun sid _ acc -> sid :: acc) t.sessions []
    |> List.sort String.compare
  in
  List.concat_map (fun sid -> close t sid) sids
