(** The [abagnale serve] daemon: a single-threaded [Unix.select] event
    loop around one {!Engine}.

    Concurrency model: flows are multiplexed over connections by the
    protocol's session ids, so "thousands of concurrent flows" costs
    tens of descriptors, well under [select]'s limit — and one thread
    suffices because per-request work is bounded (ring-buffer ingest is
    O(1); a windowed classification is a few hundred microseconds).
    Connections are serviced in descriptor order each tick; within a
    connection, requests execute strictly in arrival order, which is
    what makes verdicts replayable.

    The wall clock appears only {e around} the engine — latency
    histograms ([serve.request_ns], [serve.classify_ns]) — never inside
    it, so timing jitter cannot change any verdict.

    Shutdown (SIGTERM/SIGINT, or [stats]-side idle tests): stop
    accepting, flush buffered responses, close every remaining session
    through {!Engine.drain} (final verdicts to the daemon log), run
    queued escalations to completion, unlink the socket file, return.
    Exit is the caller's (the CLI wraps {!run} and exits 0), which is
    what the CI smoke test asserts. *)

let obs_connections = Abg_obs.Obs.Gauge.make "serve.connections"

let obs_accepted =
  Abg_obs.Obs.Counter.make ~volatile:true "serve.connections_accepted"

let obs_refused =
  Abg_obs.Obs.Counter.make ~volatile:true "serve.connections_refused"

let obs_request_ns = Abg_obs.Obs.Histogram.make "serve.request_ns"
let obs_classify_ns = Abg_obs.Obs.Histogram.make "serve.classify_ns"

type endpoint = Unix_socket of string | Tcp of int

let endpoint_to_string = function
  | Unix_socket path -> "unix:" ^ path
  | Tcp port -> Printf.sprintf "tcp:127.0.0.1:%d" port

type config = {
  endpoint : endpoint;
  engine : Engine.config;
  log : string -> unit;  (* daemon log lines (drain verdicts, summary) *)
}

(** [log_line oc line] writes [line] and its newline in one channel
    write, which no other domain's write can split, then flushes. *)
let log_line oc line =
  output_string oc (line ^ "\n");
  flush oc

let default_config =
  {
    endpoint = Unix_socket "abagnale.sock";
    engine = Engine.default_config;
    log = log_line stdout;
  }

(* Stay far under the select FD_SETSIZE ceiling; sessions multiplex, so
   this does not bound concurrent flows. *)
let max_connections = 256

(* One client connection: an incremental line framer for input and a
   byte buffer for output. [out_pos] tracks how much of [out] the socket
   has taken; partial writes are the norm under load. *)
type conn = {
  fd : Unix.file_descr;
  lines : Abg_trace.Io.Lines.t;
  out : Buffer.t;
  mutable out_pos : int;
}

let stop_requested = ref false

let request_stop () = stop_requested := true

let install_signal_handlers () =
  stop_requested := false;
  let handle = Sys.Signal_handle (fun _ -> request_stop ()) in
  (try Sys.set_signal Sys.sigterm handle with Invalid_argument _ -> ());
  (try Sys.set_signal Sys.sigint handle with Invalid_argument _ -> ());
  (* A client vanishing mid-write must be an [EPIPE] error, not death. *)
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ -> ()

let close_noerr fd = try Unix.close fd with Unix.Unix_error _ -> ()

(** An endpoint the daemon will not or cannot take; the message starts
    with the socket path or [127.0.0.1:PORT]. *)
exception Endpoint_in_use of string

(* Only a socket that refuses connections (a dead daemon's) is replaced;
   a live daemon's socket or any other file stops this daemon, and so
   does a path whose directory is missing or is not a directory, which
   [bind] would refuse only after the warm-up. *)
let claim_socket_path path =
  let refuse why = raise (Endpoint_in_use (path ^ ": " ^ why)) in
  match (Unix.lstat path).Unix.st_kind with
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ENOTDIR), _, _) -> (
      let dir = Filename.dirname path in
      match (Unix.stat dir).Unix.st_kind with
      | Unix.S_DIR -> ()
      | _ -> refuse (dir ^ " is not a directory")
      | exception Unix.Unix_error (e, _, _) ->
          refuse (dir ^ ": " ^ Unix.error_message e))
  | Unix.S_SOCK -> (
      let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect ~finally:(fun () -> close_noerr probe) @@ fun () ->
      match Unix.connect probe (Unix.ADDR_UNIX path) with
      | () -> refuse "another daemon is listening"
      | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> Unix.unlink path)
  | _ -> refuse "exists and is not a socket"

(* A bound TCP socket that does not listen yet refuses every connect. *)
let bind_tcp port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  (try Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
   with Unix.Unix_error (e, _, _) ->
     close_noerr fd;
     raise
       (Endpoint_in_use
          (Printf.sprintf "127.0.0.1:%d: %s" port (Unix.error_message e))));
  fd

let listen_on = function
  | Unix_socket path ->
      claim_socket_path path;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 128;
      fd
  | Tcp port ->
      let fd = bind_tcp port in
      Unix.listen fd 128;
      fd

(* Flush as much of [c.out] as the socket accepts right now. Returns
   [false] when the connection is dead. *)
let flush_conn c =
  let len = Buffer.length c.out in
  if c.out_pos >= len then true
  else begin
    match
      Unix.write_substring c.fd (Buffer.contents c.out) c.out_pos
        (len - c.out_pos)
    with
    | n ->
        c.out_pos <- c.out_pos + n;
        if c.out_pos >= Buffer.length c.out then begin
          Buffer.clear c.out;
          c.out_pos <- 0
        end;
        true
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        true
    | exception Unix.Unix_error _ -> false
  end

let ns_of_s s = s *. 1e9

let latency_line () =
  let s = Abg_obs.Obs.Histogram.summary obs_classify_ns in
  Protocol.ok
    (Printf.sprintf "latency classify_count=%d p50_ns=%.0f p99_ns=%.0f"
       s.Abg_obs.Obs.Histogram.count
       (Abg_obs.Obs.Histogram.quantile s 0.5)
       (Abg_obs.Obs.Histogram.quantile s 0.99))

let respond c responses =
  List.iter
    (fun r ->
      Buffer.add_string c.out r;
      Buffer.add_char c.out '\n')
    responses

(* Execute one request line against the engine, timed, and return its
   responses. The request the parser read decides the rest: a classify
   or close request feeds the classify latency histogram, and a stats
   request gets the latency line. *)
let answer engine line =
  let t0 = Unix.gettimeofday () in
  let request = Protocol.parse line in
  let responses = Engine.handle engine request in
  let elapsed = ns_of_s (Unix.gettimeofday () -. t0) in
  Abg_obs.Obs.Histogram.observe obs_request_ns elapsed;
  match request with
  | Ok (Protocol.Classify _ | Protocol.Close _) ->
      Abg_obs.Obs.Histogram.observe obs_classify_ns elapsed;
      responses
  | Ok Protocol.Stats -> responses @ [ latency_line () ]
  | Ok (Protocol.Open _ | Protocol.Obs _ | Protocol.Ping) | Error _ -> responses

(* A request line longer than the framer keeps is answered once, by its
   1-based line number on the connection, and never executed. *)
let too_long engine c lineno =
  respond c
    (Engine.error engine
       (Printf.sprintf "line %d: longer than %d bytes" lineno
          Abg_trace.Io.Lines.max_line))

(** [run ?config ()] serves until SIGTERM/SIGINT (or {!request_stop}),
    then drains and returns. Installs signal handlers; call from the
    process's main thread. *)
let run ?(config = default_config) () =
  install_signal_handlers ();
  let engine = Engine.create ~config:config.engine () in
  (* An endpoint in use is refused before the warm-up is paid for. A TCP
     port is bound now and listened on after it, so no client gets in
     early. A socket path is only claimed now: the bind still waits, so
     the socket file marks a warmed daemon, and [listen_on] claims the
     path again against a daemon that started meanwhile. *)
  let bound =
    match config.endpoint with
    | Unix_socket path ->
        claim_socket_path path;
        None
    | Tcp port -> Some (bind_tcp port)
  in
  (* Reference preparation simulates 52 flows; pay it before "listening"
     so no client's first classify absorbs it. *)
  Engine.warm_up engine;
  let listener =
    match bound with
    | Some fd ->
        Unix.listen fd 128;
        fd
    | None -> listen_on config.endpoint
  in
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 64 in
  config.log
    (Printf.sprintf "abagnale-serve listening on %s"
       (endpoint_to_string config.endpoint));
  let buf = Bytes.create 65536 in
  let drop fd =
    (match Hashtbl.find_opt conns fd with
    | Some c -> ignore (flush_conn c)
    | None -> ());
    Hashtbl.remove conns fd;
    close_noerr fd;
    Abg_obs.Obs.Gauge.set obs_connections
      (float_of_int (Hashtbl.length conns))
  in
  let accept_one () =
    match Unix.accept listener with
    | fd, _ ->
        if Hashtbl.length conns >= max_connections then begin
          Abg_obs.Obs.Counter.incr obs_refused;
          (try
             ignore
               (Unix.write_substring fd "err - connection limit reached\n" 0 31)
           with Unix.Unix_error _ -> ());
          close_noerr fd
        end
        else begin
          Unix.set_nonblock fd;
          Hashtbl.replace conns fd
            {
              fd;
              lines = Abg_trace.Io.Lines.create ();
              out = Buffer.create 256;
              out_pos = 0;
            };
          Abg_obs.Obs.Counter.incr obs_accepted;
          Abg_obs.Obs.Gauge.set obs_connections
            (float_of_int (Hashtbl.length conns))
        end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  let read_conn c =
    match Unix.read c.fd buf 0 (Bytes.length buf) with
    | 0 ->
        (* EOF: parse any unterminated tail, then hang up. Sessions are
           daemon-scoped, not connection-scoped — they survive. *)
        Abg_trace.Io.Lines.flush c.lines (fun _ line ->
            respond c (answer engine line));
        drop c.fd
    | n ->
        Abg_trace.Io.Lines.feed ~too_long:(too_long engine c) c.lines
          (Bytes.sub_string buf 0 n)
          (fun _ line -> respond c (answer engine line))
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error _ -> drop c.fd
  in
  while not !stop_requested do
    let fds = Hashtbl.fold (fun fd _ acc -> fd :: acc) conns [] in
    let wfds =
      Hashtbl.fold
        (fun fd c acc -> if Buffer.length c.out > 0 then fd :: acc else acc)
        conns []
    in
    match Unix.select (listener :: fds) wfds [] 1.0 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, writable, _ ->
        List.iter
          (fun fd ->
            match Hashtbl.find_opt conns fd with
            | Some c -> if not (flush_conn c) then drop fd
            | None -> ())
          writable;
        List.iter
          (fun fd ->
            if fd == listener then accept_one ()
            else
              match Hashtbl.find_opt conns fd with
              | Some c -> read_conn c
              | None -> ())
          readable
  done;
  (* Drain. Stop accepting first so the remaining work is finite. *)
  close_noerr listener;
  let remaining = Engine.session_count engine in
  List.iter (fun line -> config.log ("drain: " ^ line)) (Engine.drain engine);
  (match config.engine.Engine.escalate with
  | Some esc -> Escalate.drain esc
  | None -> ());
  (* Best-effort flush of queued responses, then hang up. *)
  let deadline = Unix.gettimeofday () +. 2.0 in
  let rec flush_all () =
    let pending =
      Hashtbl.fold
        (fun fd c acc ->
          if Buffer.length c.out - c.out_pos > 0 then (fd, c) :: acc else acc)
        conns []
    in
    if pending <> [] && Unix.gettimeofday () < deadline then begin
      (match
         Unix.select [] (List.map fst pending) [] 0.1
       with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | _, writable, _ ->
          List.iter
            (fun fd ->
              match Hashtbl.find_opt conns fd with
              | Some c -> if not (flush_conn c) then drop fd
              | None -> ())
            writable);
      flush_all ()
    end
  in
  flush_all ();
  Hashtbl.iter (fun fd _ -> close_noerr fd) conns;
  Hashtbl.reset conns;
  (match config.endpoint with
  | Unix_socket path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ());
  let s = Abg_obs.Obs.Histogram.summary obs_classify_ns in
  config.log
    (Printf.sprintf
       "abagnale-serve drained: %d session(s) flushed, %d classification(s), \
        p50=%.0fns p99=%.0fns"
       remaining s.Abg_obs.Obs.Histogram.count
       (Abg_obs.Obs.Histogram.quantile s 0.5)
       (Abg_obs.Obs.Histogram.quantile s 0.99))
