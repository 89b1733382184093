(* Serve load generator: one daemon, >= 1000 concurrent flows
   multiplexed over a unix socket, wall-clock latency sampled on the
   client side.

   Phases: open every session (one [ok] each), stream every flow's trace
   lines round-robin ([obs] is unacked — a [ping] barrier bounds the
   phase), then classify each session sequentially on a persistent
   connection, timing each request from write to verdict. The sequential
   classify loop is deliberate: it measures the daemon's per-request
   service latency — the number the "p99 in the low milliseconds" target
   is about — without the generator's own queueing inflating the tail.

   Results go to BENCH_serve.json (same flat name -> number schema as
   BENCH_micro.json; latency entries in ns) with run metadata in
   BENCH_serve.meta.json, so the CI bench gate can hold both files
   against the committed baseline. *)

let sessions_target = 1024

(* Flow corpus: the reference grid's own suites ({!Trace.collect_suite}
   output) across three CCAs — real traces, cached in the trace store, so
   the generator's cost is the wire and the daemon, not simulation. *)
let corpus () =
  [ "reno"; "cubic"; "vegas" ]
  |> List.concat_map (fun name ->
         let ctor = Option.get (Abg_cca.Registry.find name) in
         Abg_trace.Trace.collect_suite ~duration:3.0 ~n:2 ~name ctor)

let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(Stdlib.min (n - 1) (int_of_float (q *. float_of_int n)))

(* Blocking single-request helper for the classify loop: send one line,
   read until [stop_line]. The connection is blocking and the daemon
   always answers, so no select machinery is needed here. *)
let sync_request fd lines line_buf ~request ~stop_line =
  let n = String.length request in
  let sent = ref 0 in
  while !sent < n do
    sent := !sent + Unix.write_substring fd request !sent (n - !sent)
  done;
  let found = ref None in
  while !found = None do
    match Unix.read fd line_buf 0 (Bytes.length line_buf) with
    | 0 -> failwith "serve bench: daemon hung up"
    | k ->
        Abg_trace.Io.Lines.feed lines
          (Bytes.sub_string line_buf 0 k)
          (fun _ line -> if stop_line line then found := Some line)
  done;
  Option.get !found

let run () =
  Runs.heading
    (Printf.sprintf "Serve load (%d concurrent flows, one daemon)"
       sessions_target);
  let traces = Array.of_list (corpus ()) in
  Printf.printf "corpus: %d traces, %s records each\n%!" (Array.length traces)
    (String.concat "/"
       (List.map string_of_int
          (Array.to_list (Array.map Abg_trace.Trace.length traces))));
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "abagnale-bench-serve.%d" (Unix.getpid ()))
  in
  Unix.mkdir dir 0o700;
  let socket = Filename.concat dir "bench.sock" in
  let endpoint = Abg_serve.Daemon.Unix_socket socket in
  let config =
    { Abg_serve.Daemon.default_config with endpoint; log = (fun _ -> ()) }
  in
  let daemon = Thread.create (fun () -> Abg_serve.Daemon.run ~config ()) () in
  let deadline = Unix.gettimeofday () +. 120.0 in
  while (not (Sys.file_exists socket)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.05
  done;
  if not (Sys.file_exists socket) then failwith "serve bench: daemon not up";
  let sids =
    Array.init sessions_target (fun i ->
        Printf.sprintf "f%04d-%s" i
          traces.(i mod Array.length traces).Abg_trace.Trace.cca_name)
  in
  let trace_of i = traces.(i mod Array.length traces) in
  (* Phase 1: open every session; the trailing ping bounds the phase. *)
  let open_req = Buffer.create 65536 in
  Array.iter (fun sid -> Buffer.add_string open_req ("open " ^ sid ^ "\n")) sids;
  Buffer.add_string open_req "ping\n";
  let t0 = Unix.gettimeofday () in
  let replies =
    Abg_serve.Client.execute endpoint
      ~request:(Buffer.contents open_req)
      ~stop_line:(fun l -> l = "ok pong")
  in
  let open_ns =
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int sessions_target
  in
  let errs =
    List.length
      (List.filter (fun l -> String.length l >= 3 && String.sub l 0 3 = "err")
         replies)
  in
  if errs > 0 then failwith (Printf.sprintf "serve bench: %d open errors" errs);
  (* Phase 2: stream every flow, round-robin, through one connection. *)
  let obs_req = Buffer.create (1 lsl 24) in
  let obs_lines = ref 0 in
  let flow_lines =
    Array.mapi
      (fun i sid ->
        let all =
          String.split_on_char '\n' (Abg_trace.Io.to_string (trace_of i))
          |> List.filter (fun l -> l <> "")
        in
        (sid, Array.of_list all))
      sids
  in
  let longest =
    Array.fold_left
      (fun acc (_, ls) -> Stdlib.max acc (Array.length ls))
      0 flow_lines
  in
  for k = 0 to longest - 1 do
    Array.iter
      (fun (sid, ls) ->
        if k < Array.length ls then begin
          Buffer.add_string obs_req ("obs " ^ sid ^ " " ^ ls.(k) ^ "\n");
          incr obs_lines
        end)
      flow_lines
  done;
  Buffer.add_string obs_req "ping\n";
  let t0 = Unix.gettimeofday () in
  let replies =
    Abg_serve.Client.execute endpoint
      ~request:(Buffer.contents obs_req)
      ~stop_line:(fun l -> l = "ok pong")
  in
  let obs_elapsed = Unix.gettimeofday () -. t0 in
  let obs_line_ns = obs_elapsed *. 1e9 /. float_of_int !obs_lines in
  let errs =
    List.length
      (List.filter (fun l -> String.length l >= 3 && String.sub l 0 3 = "err")
         replies)
  in
  if errs > 0 then failwith (Printf.sprintf "serve bench: %d obs errors" errs);
  Printf.printf "streamed %d obs lines over %d sessions in %.2fs (%.0f ns/line)\n%!"
    !obs_lines sessions_target obs_elapsed obs_line_ns;
  (* Phase 3: classify every session sequentially, sampling wall-clock
     latency per request on a persistent connection. *)
  let fd = Abg_serve.Client.connect endpoint in
  let samples =
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        let lines = Abg_trace.Io.Lines.create () in
        let line_buf = Bytes.create 65536 in
        Array.map
          (fun sid ->
            let prefix = "verdict " ^ sid ^ " " in
            let t0 = Unix.gettimeofday () in
            let reply =
              sync_request fd lines line_buf
                ~request:("classify " ^ sid ^ "\n")
                ~stop_line:(fun l ->
                  String.length l >= String.length prefix
                  && String.sub l 0 (String.length prefix) = prefix)
            in
            ignore reply;
            (Unix.gettimeofday () -. t0) *. 1e9)
          sids)
  in
  Array.sort compare samples;
  let p50 = quantile samples 0.50
  and p90 = quantile samples 0.90
  and p99 = quantile samples 0.99 in
  let mean =
    Array.fold_left ( +. ) 0.0 samples /. float_of_int (Array.length samples)
  in
  Printf.printf
    "classify over %d sessions: p50 %.2fms  p90 %.2fms  p99 %.2fms  mean \
     %.2fms\n\
     %!"
    (Array.length samples) (p50 /. 1e6) (p90 /. 1e6) (p99 /. 1e6)
    (mean /. 1e6);
  (* Shutdown: the drain closes (and classifies) every open session. *)
  let t0 = Unix.gettimeofday () in
  Abg_serve.Daemon.request_stop ();
  Thread.join daemon;
  let drain_s = Unix.gettimeofday () -. t0 in
  Printf.printf "drained %d sessions in %.2fs\n%!" sessions_target drain_s;
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  (try Unix.rmdir dir with Unix.Unix_error _ -> ());
  let rows =
    [
      ("serve: sessions", float_of_int sessions_target);
      ("serve: open-ns", open_ns);
      ("serve: obs-line-ns", obs_line_ns);
      ("serve: classify-p50-ns", p50);
      ("serve: classify-p90-ns", p90);
      ("serve: classify-p99-ns", p99);
      ("serve: classify-mean-ns", mean);
      ("serve: drain-session-ns", drain_s *. 1e9 /. float_of_int sessions_target);
    ]
  in
  Runs.write_estimates "BENCH_serve.json" rows;
  Runs.write_meta "BENCH_serve.meta.json"
    Abg_util.Json.
      [
        ("sessions", Num (float_of_int sessions_target));
        ("obs_lines", Num (float_of_int !obs_lines));
        ("classify_concurrency", Num 1.);
        ("endpoint", Str "unix");
        ("telemetry_during_measurement", Str "enabled");
      ];
  Printf.printf
    "[serve: wrote %d estimates to BENCH_serve.json, run metadata to \
     BENCH_serve.meta.json]\n\n"
    (List.length rows)
