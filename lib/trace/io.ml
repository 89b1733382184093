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
    line number. *)

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
   threads it); without it the message carries only the offending line. *)
let record_of_line ?lineno line =
  let where =
    match lineno with
    | Some n -> Printf.sprintf "line %d: " n
    | None -> ""
  in
  let malformed () =
    invalid_arg
      (Printf.sprintf "Io.record_of_line: %smalformed line: %s" where line)
  in
  let fields =
    try String.split_on_char '\t' line |> List.map float_of_string
    with Failure _ -> malformed ()
  in
  match fields with
  | [ time; cwnd; in_flight; acked_bytes; rtt; min_rtt; max_rtt; ack_rate;
      rtt_gradient; delay_gradient; time_since_loss; wmax; mss ] ->
      {
        Record.time; cwnd; in_flight; acked_bytes; rtt; min_rtt; max_rtt;
        ack_rate; rtt_gradient; delay_gradient; time_since_loss; wmax; mss;
      }
  | _ -> malformed ()

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
    {!load} — CRs stripped, 1-based numbering. *)
module Lines = struct
  type t = { buf : Buffer.t; mutable lineno : int }

  let create () = { buf = Buffer.create 256; lineno = 0 }

  (** [feed t chunk emit] appends [chunk] and calls [emit lineno line]
      for every newline-terminated line completed by it, in order. *)
  let feed t chunk emit =
    let n = String.length chunk in
    let start = ref 0 in
    for i = 0 to n - 1 do
      if chunk.[i] = '\n' then begin
        Buffer.add_substring t.buf chunk !start (i - !start);
        start := i + 1;
        t.lineno <- t.lineno + 1;
        let line = strip_cr (Buffer.contents t.buf) in
        Buffer.clear t.buf;
        emit t.lineno line
      end
    done;
    Buffer.add_substring t.buf chunk !start (n - !start)

  (** [flush t emit] emits the unterminated final line, if any — call at
      EOF so a stream without a trailing newline loses nothing. *)
  let flush t emit =
    if Buffer.length t.buf > 0 then begin
      t.lineno <- t.lineno + 1;
      let line = strip_cr (Buffer.contents t.buf) in
      Buffer.clear t.buf;
      emit t.lineno line
    end

  let pending t = Buffer.length t.buf > 0
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
          |> List.map float_of_string
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
