(** A deterministic serve client: stream trace files as concurrent
    sessions over one connection and collect the daemon's replies.

    Used by [abagnale stream] and the CI smoke test, and built for
    reproducibility rather than throughput: flows are interleaved
    record-by-record in a fixed round-robin over a single connection, so
    the daemon — which processes each connection's lines strictly in
    order — sees one canonical request sequence and produces one
    canonical reply sequence. Two runs against a fresh daemon yield
    byte-identical verdict lines, which is exactly what the smoke test
    pins. (The load generator in [bench/serve.ml] is the opposite
    trade-off: many connections, wall-clock latency sampling.)

    Single-threaded: one [select] loop both feeds the request bytes and
    drains replies, so a daemon blocked on its send buffer can never
    deadlock against a client blocked on its own. *)

(** [script flows] is the full request byte sequence for streaming
    [flows] (sid, trace) concurrently: open every session, round-robin
    one trace-format line per flow per turn ([# meta] comments
    included), then close every session in order. *)
let script flows =
  let buf = Buffer.create 65536 in
  let request line =
    Buffer.add_string buf line;
    Buffer.add_char buf '\n'
  in
  List.iter (fun (sid, _) -> request ("open " ^ sid)) flows;
  let lines =
    List.map
      (fun (sid, trace) ->
        let all = String.split_on_char '\n' (Abg_trace.Io.to_string trace) in
        (sid, Array.of_list (List.filter (fun l -> l <> "") all)))
      flows
  in
  let longest =
    List.fold_left (fun acc (_, ls) -> Stdlib.max acc (Array.length ls)) 0 lines
  in
  for k = 0 to longest - 1 do
    List.iter
      (fun (sid, ls) ->
        if k < Array.length ls then request ("obs " ^ sid ^ " " ^ ls.(k)))
      lines
  done;
  List.iter (fun (sid, _) -> request ("close " ^ sid)) flows;
  Buffer.contents buf

(* A socket whose connect fails is closed before the error goes on. *)
let connect endpoint =
  let domain, addr =
    match endpoint with
    | Daemon.Unix_socket path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
    | Daemon.Tcp port ->
        (Unix.PF_INET, Unix.ADDR_INET (Unix.inet_addr_loopback, port))
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (try Unix.connect fd addr
   with e ->
     Daemon.close_noerr fd;
     raise e);
  fd

(** [execute ?timeout endpoint ~request ~stop_line] sends [request] and
    collects reply lines until one satisfies [stop_line] (or the daemon
    hangs up). Raises [Failure] after [timeout] seconds (default 30) of
    no progress. *)
let execute ?(timeout = 30.0) endpoint ~request ~stop_line =
  let fd = connect endpoint in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.set_nonblock fd;
  let n = String.length request in
  let sent = ref 0 in
  let lines = Abg_trace.Io.Lines.create () in
  let out = ref [] in
  let finished = ref false in
  let buf = Bytes.create 65536 in
  while not !finished do
    let wants_write = if !sent < n then [ fd ] else [] in
    match Unix.select [ fd ] wants_write [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], [], _ -> failwith "Serve.Client: daemon unresponsive"
    | readable, writable, _ ->
        if writable <> [] then begin
          match Unix.write_substring fd request !sent (n - !sent) with
          | k -> sent := !sent + k
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
            ->
              ()
        end;
        if readable <> [] then begin
          match Unix.read fd buf 0 (Bytes.length buf) with
          | 0 -> finished := true
          | k ->
              Abg_trace.Io.Lines.feed lines (Bytes.sub_string buf 0 k)
                (fun _ line ->
                  out := line :: !out;
                  if stop_line line then finished := true)
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
            ->
              ()
        end
  done;
  List.rev !out

(** [stream endpoint flows] streams [flows] concurrently and returns
    every reply line in daemon order. The last flow's [ok close] reply
    is the completion sentinel. *)
let stream ?timeout endpoint flows =
  match flows with
  | [] -> []
  | _ ->
      let last_sid = fst (List.nth flows (List.length flows - 1)) in
      execute ?timeout endpoint ~request:(script flows)
        ~stop_line:(fun l -> l = "ok close " ^ last_sid)

(** Verdict lines only, as [(sid, window, distance, verdict)] rows. *)
let verdicts lines =
  List.filter_map
    (fun line ->
      match String.split_on_char ' ' line with
      | "verdict" :: sid :: window :: distance :: rest ->
          Some
            ( sid,
              int_of_string window,
              float_of_string distance,
              String.concat " " rest )
      | _ -> None)
    lines
