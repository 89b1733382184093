(** Trace serialization: a line-oriented TSV with a [#]-comment header.

    The format is intentionally trivial so traces can be produced or
    consumed by external tools (tcpdump post-processors, plotting
    scripts). One record per line, columns in the order of
    {!Record.t}. Floats are written as ["%.17g"] by the exact writer
    {!Abg_util.G17}, enough digits that save/load round-trips every
    finite value exactly (and [nan]/[inf] literally) — the batch
    artifact store serializes traces through this path and its
    determinism contract needs byte-stable content.

    The reader is liberal in what it accepts: CRLF line endings and
    blank (or whitespace-only) lines anywhere in the file are tolerated;
    a malformed data or [# losses:] line is rejected with its 1-based
    line number. Every number is read by {!Abg_util.G17.of_substring},
    whose contract is [float_of_string] on the field: the same accepted
    strings, the same bits, the same errors. It reads the plain decimals
    the writer produces (at most 18 significant digits, a decimal
    exponent within ±22) in place with exact arithmetic, and hands
    anything else, and the rare quotient next to a halfway point, to
    [float_of_string]. *)

let header = "# abagnale-trace v1"

let columns =
  [ "time"; "cwnd"; "in_flight"; "acked_bytes"; "rtt"; "min_rtt"; "max_rtt";
    "ack_rate"; "rtt_gradient"; "delay_gradient"; "time_since_loss"; "wmax";
    "mss" ]

(* One record's tab-separated fields, without the newline. *)
let add_record buf (r : Record.t) =
  let field x =
    Abg_util.G17.add buf x;
    Buffer.add_char buf '\t'
  in
  field r.Record.time;
  field r.cwnd;
  field r.in_flight;
  field r.acked_bytes;
  field r.rtt;
  field r.min_rtt;
  field r.max_rtt;
  field r.ack_rate;
  field r.rtt_gradient;
  field r.delay_gradient;
  field r.time_since_loss;
  field r.wmax;
  Abg_util.G17.add buf r.mss

let record_to_line r =
  let buf = Buffer.create 256 in
  add_record buf r;
  Buffer.contents buf

(* [?lineno] is the 1-based source line for error reporting ({!load}
   threads it); without it the message carries only the offending line.
   One pass over the line: each tab-separated field is read in place by
   {!Abg_util.G17.of_substring} into [f], and the error text is built
   only when a field is bad or the line has other than 13 of them. *)
let record_of_line ?lineno line =
  let n = String.length line in
  let f = Float.Array.create 13 in
  let pos = ref 0 and k = ref 0 in
  match
    while !pos <= n do
      let stop = ref !pos in
      while !stop < n && String.unsafe_get line !stop <> '\t' do
        incr stop
      done;
      if !k = 13 then raise Exit;
      Float.Array.unsafe_set f !k
        (Abg_util.G17.of_substring line !pos (!stop - !pos));
      incr k;
      pos := !stop + 1
    done;
    !k
  with
  | 13 ->
      {
        Record.time = Float.Array.unsafe_get f 0;
        cwnd = Float.Array.unsafe_get f 1;
        in_flight = Float.Array.unsafe_get f 2;
        acked_bytes = Float.Array.unsafe_get f 3;
        rtt = Float.Array.unsafe_get f 4;
        min_rtt = Float.Array.unsafe_get f 5;
        max_rtt = Float.Array.unsafe_get f 6;
        ack_rate = Float.Array.unsafe_get f 7;
        rtt_gradient = Float.Array.unsafe_get f 8;
        delay_gradient = Float.Array.unsafe_get f 9;
        time_since_loss = Float.Array.unsafe_get f 10;
        wmax = Float.Array.unsafe_get f 11;
        mss = Float.Array.unsafe_get f 12;
      }
  | _ | (exception (Exit | Failure _)) ->
      let where =
        match lineno with
        | Some n -> Printf.sprintf "line %d: " n
        | None -> ""
      in
      invalid_arg
        (Printf.sprintf "Io.record_of_line: %smalformed line: %s" where line)

(* Buffer bytes reserved per record and per loss time: a record line of
   a collected trace runs about 205 bytes, so one allocation usually
   holds the whole file. *)
let record_bytes = 224
let loss_bytes = 20

(** [to_string trace] is the serialized file content as one string (what
    {!save} writes) — the batch store's blob payload for traces. *)
let to_string trace =
  let buf =
    Buffer.create
      (512
      + (record_bytes * Array.length trace.Trace.records)
      + (loss_bytes * Array.length trace.Trace.loss_times))
  in
  Buffer.add_string buf (header ^ "\n");
  Buffer.add_string buf (Printf.sprintf "# cca: %s\n" trace.Trace.cca_name);
  Buffer.add_string buf (Printf.sprintf "# scenario: %s\n" trace.Trace.scenario);
  Buffer.add_string buf "# losses: ";
  Array.iteri
    (fun i t ->
      if i > 0 then Buffer.add_char buf ',';
      Abg_util.G17.add buf t)
    trace.Trace.loss_times;
  Buffer.add_string buf
    (Printf.sprintf "\n# columns: %s\n" (String.concat "\t" columns));
  Array.iter
    (fun r ->
      add_record buf r;
      Buffer.add_char buf '\n')
    trace.Trace.records;
  Buffer.contents buf

let save path trace =
  Out_channel.with_open_text path (fun oc -> output_string oc (to_string trace))

(* Strip one trailing CR: files written on (or piped through) Windows
   tooling arrive with CRLF endings, and the payload is identical. *)
let strip_cr line =
  let n = String.length line in
  if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line

(** Incremental newline framing for the serving layer: socket reads
    arrive as arbitrary chunks, and a logical line may span several of
    them (or one chunk may carry many). [Lines] buffers the partial tail
    and emits complete lines with the same liberal-reader semantics as
    {!load} — CRs stripped, 1-based numbering. A line may hold at most
    {!max_line} bytes before its newline: the framer never buffers more,
    reports a longer line once by its number and drops it up to its
    newline, so a peer that never sends one costs bounded memory. *)
module Lines = struct
  (** The longest line kept, in bytes before the newline (CR included).
      A record line runs about 205 bytes; the longest [# losses:] line
      [collect] writes for 30 s flows is about 2 KiB. *)
  let max_line = 1 lsl 20

  type t = {
    buf : Buffer.t;  (* the current line's bytes from earlier chunks *)
    mutable lineno : int;
    mutable skipping : bool;  (* inside a reported over-long line *)
  }

  let create () = { buf = Buffer.create 256; lineno = 0; skipping = false }

  let default_too_long lineno =
    failwith (Printf.sprintf "line %d: longer than %d bytes" lineno max_line)

  (* Report an over-long line: it takes the next line number. *)
  let reject t too_long =
    Buffer.clear t.buf;
    t.lineno <- t.lineno + 1;
    too_long t.lineno

  (* Emit the line made of [t.buf] and [chunk.[start .. stop - 1]], one
     trailing CR stripped, copying its bytes once. *)
  let complete t chunk start stop emit =
    let k = Buffer.length t.buf in
    let cr =
      if stop > start then chunk.[stop - 1] = '\r'
      else k > 0 && Buffer.nth t.buf (k - 1) = '\r'
    in
    let len = k + (stop - start) - Bool.to_int cr in
    let line =
      if k = 0 then String.sub chunk start len
      else begin
        let b = Bytes.create len in
        Buffer.blit t.buf 0 b 0 (Int.min k len);
        if len > k then Bytes.blit_string chunk start b k (len - k);
        Buffer.clear t.buf;
        Bytes.unsafe_to_string b
      end
    in
    t.lineno <- t.lineno + 1;
    emit t.lineno line

  (** [feed ?too_long t chunk emit] appends [chunk] and calls
      [emit lineno line] for every newline-terminated line completed by
      it, in order. A line longer than {!max_line} is not emitted:
      [too_long lineno] is called once, as soon as the framer sees the
      excess, and the line's remaining bytes are dropped. Without
      [too_long] that raises [Failure]. *)
  let feed ?(too_long = default_too_long) t chunk emit =
    let n = String.length chunk in
    let rec go start =
      match String.index_from chunk start '\n' with
      | i ->
          if t.skipping then t.skipping <- false
          else if Buffer.length t.buf + (i - start) > max_line then
            reject t too_long
          else complete t chunk start i emit;
          go (i + 1)
      | exception Not_found ->
          if t.skipping then ()
          else if Buffer.length t.buf + (n - start) > max_line then begin
            t.skipping <- true;
            reject t too_long
          end
          else Buffer.add_substring t.buf chunk start (n - start)
    in
    go 0

  (** [flush t emit] emits the unterminated final line, if any — call at
      EOF so a stream without a trailing newline loses nothing. *)
  let flush t emit = if Buffer.length t.buf > 0 then complete t "" 0 0 emit

  (** [buffered t] is how many bytes of an unterminated line [t] holds:
      never more than {!max_line}. *)
  let buffered t = Buffer.length t.buf
end

(** Incremental trace parsing, the one trace reader: {!of_string},
    {!load} and the serving layer's sessions all feed it lines. A
    [Stream.t] accepts trace-format lines one at a time — exactly the
    lines {!load} reads from a file, so a client can forward a trace
    file verbatim — and parses each line as it arrives, so malformed
    input is rejected at arrival with its 1-based position in the
    stream (the error the daemon echoes back). The first value of each
    meta comment ([# cca:], [# scenario:], [# losses:]) is kept. *)
module Stream = struct
  type t = {
    mutable lineno : int;  (* 1-based count of lines seen *)
    mutable cca_name : string option;
    mutable scenario : string option;
    mutable loss_times : float array option;
    mutable rev_records : Record.t list;  (* pushed records, newest first *)
  }

  let create () =
    {
      lineno = 0;
      cca_name = None;
      scenario = None;
      loss_times = None;
      rev_records = [];
    }

  let meta_value key line =
    let prefix = "# " ^ key ^ ": " in
    if String.starts_with ~prefix line then
      Some
        (String.sub line (String.length prefix)
           (String.length line - String.length prefix))
    else None

  let losses_of ~lineno line = function
    | "" -> [||]
    | s -> (
        try
          String.split_on_char ',' s
          |> List.map (fun v -> Abg_util.G17.of_substring v 0 (String.length v))
          |> Array.of_list
        with Failure _ ->
          invalid_arg
            (Printf.sprintf "Io.Stream: line %d: malformed losses: %s" lineno
               line))

  let first key line = function
    | Some _ as v -> v
    | None -> meta_value key line

  (** [step t line] consumes one logical line (CR tolerated) without
      keeping its record: a long-lived session's memory stays O(1) in
      the lines it has seen. Returns the parsed record for data lines,
      [None] for comments and blanks. Raises [Invalid_argument] with the
      line's 1-based stream position for a malformed data or
      [# losses:] line. *)
  let step t line =
    t.lineno <- t.lineno + 1;
    let line = strip_cr line in
    if String.length line > 0 && line.[0] = '#' then begin
      t.cca_name <- first "cca" line t.cca_name;
      t.scenario <- first "scenario" line t.scenario;
      if t.loss_times = None then
        t.loss_times <-
          Option.map
            (losses_of ~lineno:t.lineno line)
            (meta_value "losses" line);
      None
    end
    else if String.trim line = "" then None
    else Some (record_of_line ~lineno:t.lineno line)

  (** [push t line] is {!step} that also keeps the record for
      {!to_trace}. *)
  let push t line =
    let r = step t line in
    Option.iter (fun r -> t.rev_records <- r :: t.rev_records) r;
    r

  (** Claimed CCA name from a [# cca:] comment, if one has arrived. *)
  let cca_name t = t.cca_name

  (** [to_trace t] is the trace of every line {!push}ed so far. *)
  let to_trace t =
    {
      Trace.cca_name = Option.value ~default:"unknown" t.cca_name;
      scenario = Option.value ~default:"unknown" t.scenario;
      config = Abg_netsim.Config.default;
      records = Array.of_list (List.rev t.rev_records);
      loss_times = Option.value ~default:[||] t.loss_times;
    }
end

(** [of_string s] parses serialized trace content ({!to_string}'s
    inverse). Line numbers in errors are 1-based positions in [s]. *)
let of_string s =
  let stream = Stream.create () in
  List.iter
    (fun line -> ignore (Stream.push stream line))
    (String.split_on_char '\n' s);
  Stream.to_trace stream

let load path =
  In_channel.with_open_text path (fun ic ->
      let stream = Stream.create () in
      let rec go () =
        match In_channel.input_line ic with
        | Some line ->
            ignore (Stream.push stream line);
            go ()
        | None -> Stream.to_trace stream
      in
      go ())
