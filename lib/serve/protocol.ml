(** The serve wire protocol: line-oriented, multiplexed sessions.

    A single connection carries many flows ("sessions"), each named by a
    client-chosen id, so thousands of concurrent flows fit under the
    [Unix.select] descriptor limit. One request per line:

    {v
    open <sid>              start a session
    obs <sid> <line>        feed one trace-format line (record or # meta)
    classify <sid>          classify the session's current window
    close <sid>             classify, report, and discard the session
    stats                   daemon-wide counters and latency quantiles
    ping                    liveness probe
    v}

    [<sid>] is any non-empty token without whitespace. The [obs] payload
    is {e exactly} a line of the {!Abg_trace.Io} trace file format —
    data row or [#]-comment — so a client streams a capture file
    verbatim, one [obs] prefix per line; malformed rows are rejected
    with their 1-based position in that session's stream, mirroring the
    file loader's errors.

    Responses (one line each): [ok <detail>] for accepted state changes,
    [verdict <sid> <n> <distance> <verdict>] for classifications
    ([n] = window length, [distance] = best reference distance,
    ["%.17g"]), and [err <sid|-> <message>]. [obs] lines are {e not}
    acked — an ack per observation would double the traffic of exactly
    the hot path — errors only. *)

type request =
  | Open of string
  | Obs of string * string  (* sid, raw trace-format payload line *)
  | Classify of string
  | Close of string
  | Stats
  | Ping

(* First token, rest-of-line split. The payload keeps its internal
   whitespace (a record line is tab-separated). *)
let split_first s =
  match String.index_opt s ' ' with
  | None -> (s, "")
  | Some i ->
      (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))

let valid_sid sid =
  sid <> ""
  && String.for_all (fun c -> c <> ' ' && c <> '\t' && c <> '\r') sid

(** [parse line] — the request on [line], or [Error message]. Blank
    lines are [Error ""] (callers skip them silently). *)
let parse line =
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
    | _ -> Error (Printf.sprintf "unknown command: %s" cmd)
  end

(* Response formatters — every daemon reply goes through these, so the
   wire format is defined in exactly one place. *)

let ok detail = "ok " ^ detail

let err ?sid msg =
  Printf.sprintf "err %s %s" (Option.value ~default:"-" sid) msg

let verdict ~sid ~window ~distance v =
  Printf.sprintf "verdict %s %d %s %s" sid window
    (Abg_util.G17.to_string distance)
    (Abg_classifier.Gordon.verdict_to_string v)
