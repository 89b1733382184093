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
    the hot path — errors only. A line longer than
    {!Abg_trace.Io.Lines.max_line} bytes is never parsed: the daemon
    answers [err - line <n>: longer than <max_line> bytes], [<n>] its
    1-based number on the connection. *)

type request =
  | Open of string
  | Obs of string * string  (* sid, raw trace-format payload line *)
  | Classify of string
  | Close of string
  | Stats
  | Ping

(* The request line is read in place, between bounds, so that a request
   copies only its session id and, for [obs], its payload. *)

let is_space c = c = ' ' || c = '\012' || c = '\n' || c = '\r' || c = '\t'
let rec blank line i n = i >= n || (is_space line.[i] && blank line (i + 1) n)

(* A session id is non-empty and holds no space, tab or CR. *)
let rec valid_sid line i j =
  i < j
  && (match line.[i] with ' ' | '\t' | '\r' -> false | _ -> true)
  && (i + 1 = j || valid_sid line (i + 1) j)

let space_from line i n =
  match String.index_from line i ' ' with j -> j | exception Not_found -> n

(* The command word [line.[0 .. c-1]] is [word]. *)
let word_is line c word =
  c = String.length word && String.starts_with ~prefix:word line

let with_sid line a n cmd k =
  if valid_sid line a n then Ok (k (String.sub line a (n - a)))
  else Error (cmd ^ ": missing or malformed session id")

(* An unknown command is echoed by its first [max_echo] bytes at most,
   so an error reply stays far below the 1 MiB line cap that clients
   apply to replies, however long the word. *)
let max_echo = 64

(** [parse line] — the request on [line], or [Error message]. Blank
    lines are [Error ""] (callers skip them silently). *)
let parse line =
  (* [line.[0 .. n-1]] is the line without one trailing CR. Its first
     word, the command, is [line.[0 .. c-1]]; the rest starts at [a]. *)
  let len = String.length line in
  let n = if len > 0 && line.[len - 1] = '\r' then len - 1 else len in
  if blank line 0 n then Error ""
  else begin
    let c = space_from line 0 n in
    let a = Int.min (c + 1) n in
    if word_is line c "obs" then begin
      let j = space_from line a n in
      if valid_sid line a j then
        Ok
          (Obs
             ( String.sub line a (j - a),
               if j < n then String.sub line (j + 1) (n - j - 1) else "" ))
      else Error "obs: missing or malformed session id"
    end
    else if word_is line c "open" then
      with_sid line a n "open" (fun sid -> Open sid)
    else if word_is line c "classify" then
      with_sid line a n "classify" (fun sid -> Classify sid)
    else if word_is line c "close" then
      with_sid line a n "close" (fun sid -> Close sid)
    else if word_is line c "stats" then Ok Stats
    else if word_is line c "ping" then Ok Ping
    else
      Error ("unknown command: " ^ String.sub line 0 (Int.min c max_echo))
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
