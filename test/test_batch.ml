(* Tests for the batch orchestrator: job serialization, the
   content-addressed store, the journal, and the crash-safe runner's
   determinism contract (killed-and-resumed = uninterrupted). *)

module Job = Abg_batch.Job
module Store = Abg_batch.Store
module Journal = Abg_batch.Journal
module Runner = Abg_batch.Runner
module Report = Abg_batch.Report
module Coordinator = Abg_batch.Coordinator

(* -- scratch directories -- *)

let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "abagnale-batch-test.%d.%d" (Unix.getpid ()) !dir_counter)
  in
  let rec rm_rf path =
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  if Sys.file_exists dir then rm_rf dir;
  Sys.mkdir dir 0o755;
  dir

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

let write_file path content =
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc

(* -- Job -- *)

let all_kinds =
  [
    Job.Collect;
    Job.Synthesize { dsl = None };
    Job.Synthesize { dsl = Some "reno" };
    Job.Classify;
    Job.Noise { stddev = 0.05; keep = 0.9 };
    Job.Probe { fail_attempts = 1; sleep_ms = 0 };
  ]

let test_job_json_roundtrip () =
  let configs = Abg_netsim.Config.testbed_grid ~duration:2.0 ~n:2 () in
  List.iter
    (fun kind ->
      let job = { Job.kind; cca = "reno"; seed = 7; configs } in
      let job' = Job.of_json (Job.to_json job) in
      Alcotest.(check string)
        (Job.kind_name kind ^ " digest survives json round-trip")
        (Job.digest job) (Job.digest job');
      Alcotest.(check bool) "configs lossless" true (job.configs = job'.configs))
    all_kinds

let test_job_digest_distinguishes () =
  let configs = Abg_netsim.Config.testbed_grid ~duration:2.0 ~n:1 () in
  let base = { Job.kind = Job.Collect; cca = "reno"; seed = 7; configs } in
  let digests =
    List.map Job.digest
      [
        base;
        { base with Job.cca = "cubic" };
        { base with Job.seed = 8 };
        { base with Job.kind = Job.Classify };
        { base with Job.configs = [] };
      ]
  in
  Alcotest.(check int) "all distinct" 5
    (List.length (List.sort_uniq String.compare digests))

let test_job_expand_counts () =
  let grid =
    {
      Job.kinds =
        [ Job.Collect; Job.Synthesize { dsl = None };
          Job.Noise { stddev = 0.1; keep = 0.8 } ];
      ccas = [ "reno"; "cubic" ];
      scenarios = 2;
      duration = 2.0;
      ack_jitter = 0.001;
      seeds = [ 1; 2; 3 ];
    }
  in
  let jobs = Job.expand grid in
  let count kind_name =
    List.length
      (List.filter (fun j -> Job.kind_name j.Job.kind = kind_name) jobs)
  in
  (* Collect is seed-insensitive: one job per CCA, not per seed. *)
  Alcotest.(check int) "collect jobs" 2 (count "collect");
  Alcotest.(check int) "synth jobs" 6 (count "synth");
  Alcotest.(check int) "noise jobs" 6 (count "noise");
  Alcotest.(check int) "total" 14 (List.length jobs);
  List.iter
    (fun j ->
      Alcotest.(check int) "scenario count"
        (List.length (Abg_netsim.Config.testbed_grid ~duration:2.0 ~n:2 ()))
        (List.length j.Job.configs))
    jobs

(* A repeated kind, CCA or seed adds no job: expansion keeps each job
   once, where it first appears, in the order of the grid without the
   repeats. *)
let test_job_expand_keeps_first () =
  let grid kinds ccas seeds =
    { Job.kinds; ccas; scenarios = 1; duration = 2.0; ack_jitter = 0.001; seeds }
  in
  let probe = Job.Probe { fail_attempts = 0; sleep_ms = 0 } in
  let digests g = List.map Job.digest (Job.expand g) in
  Alcotest.(check (list string)) "repeats dropped"
    (digests (grid [ probe; Job.Collect ] [ "reno"; "cubic" ] [ 7; 8 ]))
    (digests
       (grid [ probe; Job.Collect; probe ] [ "reno"; "reno"; "cubic" ]
          [ 7; 7; 8 ]));
  Alcotest.(check int) "one probe job" 1
    (List.length (Job.expand (grid [ probe ] [ "reno"; "reno" ] [ 7; 7 ])))

let test_job_expand_probe_configless () =
  let jobs =
    Job.expand
      {
        Job.kinds = [ Job.Probe { fail_attempts = 0; sleep_ms = 0 } ];
        ccas = [ "reno" ];
        scenarios = 3;
        duration = 2.0;
        ack_jitter = 0.0;
        seeds = [ 1 ];
      }
  in
  Alcotest.(check int) "one job" 1 (List.length jobs);
  Alcotest.(check int) "no configs" 0 (List.length (List.hd jobs).Job.configs)

let test_job_expand_rejects_empty () =
  let grid =
    {
      Job.kinds = [ Job.Collect ]; ccas = [ "reno" ]; scenarios = 1;
      duration = 2.0; ack_jitter = 0.0; seeds = [ 1 ];
    }
  in
  List.iter
    (fun broken ->
      match Job.expand broken with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "expected Invalid_argument")
    [
      { grid with Job.kinds = [] };
      { grid with Job.ccas = [] };
      { grid with Job.seeds = [] };
    ]

let test_job_kind_tokens () =
  let ok token expected =
    match Job.kind_of_token token with
    | Ok kind -> Alcotest.(check bool) token true (kind = expected)
    | Error msg -> Alcotest.fail msg
  in
  ok "collect" Job.Collect;
  ok "synth" (Job.Synthesize { dsl = None });
  ok "synth:cubic" (Job.Synthesize { dsl = Some "cubic" });
  ok "classify" Job.Classify;
  ok "noise:0.1:0.9" (Job.Noise { stddev = 0.1; keep = 0.9 });
  ok "probe:2:10" (Job.Probe { fail_attempts = 2; sleep_ms = 10 });
  List.iter
    (fun bad ->
      match Job.kind_of_token bad with
      | Error msg ->
          Alcotest.(check bool) ("names " ^ bad) true (contains ~affix:bad msg)
      | Ok _ -> Alcotest.fail ("accepted " ^ bad))
    [ "nonsense"; "noise:x:y"; "probe:1"; "noise:0.1"; "synth:nope" ]

(* A noise stddev must be finite and at least 0 and its keep a
   probability above 0; anything else is refused naming the token. *)
let test_job_noise_token_bounds () =
  List.iter
    (fun token ->
      match Job.kind_of_token token with
      | Ok _ -> Alcotest.fail ("accepted " ^ token)
      | Error msg ->
          Alcotest.(check bool) ("names " ^ token) true
            (contains ~affix:token msg))
    [ "noise:nan:0.5"; "noise:inf:1"; "noise:-inf:1"; "noise:-1:0.5";
      "noise:0.1:0"; "noise:0.1:2"; "noise:0.1:-0.5"; "noise:0.1:nan" ];
  List.iter
    (fun (token, stddev, keep) ->
      Alcotest.(check bool) token true
        (Job.kind_of_token token = Ok (Job.Noise { stddev; keep })))
    [ ("noise:0:1", 0.0, 1.0); ("noise:2.5:0.01", 2.5, 0.01) ]

(* Job digests name journal lines and store keys, so the canonical
   bytes they hash must never move silently. Pinned per kind; kill and
   resume tests cannot catch this, since both sides share one build. *)
let test_job_digest_pinned () =
  let configs = Abg_netsim.Config.testbed_grid ~duration:3.0 ~n:1 () in
  let job kind cca seed configs = { Job.kind; cca; seed; configs } in
  List.iter
    (fun (expected, j) ->
      Alcotest.(check string) (Job.describe j) expected (Job.digest j))
    [
      ("19f105c5a99117a6bea77d2501a1b8ed", job Job.Collect "reno" 42 configs);
      ( "91a08f3efcce3a42ec25ad511b6c4d7f",
        job (Job.Synthesize { dsl = Some "reno" }) "cubic" 7 configs );
      ("133bd237fb14cf9ef3da75c1b87f0fea", job Job.Classify "vegas" 42 configs);
      ( "89e2870a7aa5624dae22178d97914a77",
        job (Job.Noise { stddev = 0.1; keep = 0.5 }) "reno" 3 configs );
      ( "a13fef39ea0b1f81239971eeba377fdf",
        job (Job.Probe { fail_attempts = 1; sleep_ms = 0 }) "reno" 5 [] );
      ( "ce318dc23d7ec61301036398bfc86dd0",
        job
          (Job.Fuzz_eval
             {
               fitness = "divergence";
               cca_b = Some "cubic";
               handler = None;
             })
          "reno" 7 configs );
    ]

(* A name no job body can resolve — a CCA, a divergence partner, a
   synthesis DSL — is refused when the grid is read, naming the field
   and the value, instead of quarantining the job when it runs. *)
let refuses_name field value kind cca () =
  let configs = Abg_netsim.Config.testbed_grid ~duration:2.0 ~n:1 () in
  match Job.of_json (Job.to_json { Job.kind; cca; seed = 7; configs }) with
  | _ -> Alcotest.failf "accepted %s %s" field value
  | exception Abg_util.Json.Malformed msg ->
      Alcotest.(check bool) (msg ^ " names the field") true
        (String.starts_with ~prefix:("job." ^ field ^ ": ") msg);
      Alcotest.(check bool) (msg ^ " names the value") true
        (contains ~affix:value msg)

let test_job_unknown_cca = refuses_name "cca" "nope" Job.Collect "nope"

let test_job_unknown_cca_b =
  refuses_name "cca_b" "nope"
    (Job.Fuzz_eval
       { fitness = "divergence"; cca_b = Some "nope"; handler = None })
    "reno"

let test_job_unknown_dsl =
  refuses_name "dsl" "nope" (Job.Synthesize { dsl = Some "nope" }) "reno"

(* -- Durable -- *)

let test_durable_replace () =
  let dir = Filename.concat (fresh_dir ()) "nested" in
  let path = Filename.concat dir "doc.json" in
  Abg_batch.Durable.replace path "first\n";
  Abg_batch.Durable.replace path "second\n";
  Alcotest.(check string) "content replaced" "second\n"
    (In_channel.with_open_bin path In_channel.input_all);
  Alcotest.(check (list string)) "no temp file left" [ "doc.json" ]
    (Array.to_list (Sys.readdir dir))

(* -- Store -- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let pack_dir root = Filename.concat root "pack"

let pack_files root =
  Sys.readdir (pack_dir root)
  |> Array.to_list
  |> List.filter (fun n -> Filename.check_suffix n ".pack")
  |> List.sort String.compare
  |> List.map (Filename.concat (pack_dir root))

(* The records of a pack's bytes, read independently of [Store]:
   (record start, digest) pairs. *)
let pack_records bytes =
  let rec go pos acc =
    if pos >= String.length bytes then List.rev acc
    else
      let nl = String.index_from bytes pos '\n' in
      Scanf.sscanf
        (String.sub bytes pos (nl - pos))
        "{\"blob\":\"%32[0-9a-f]\",\"bytes\":%d}%!"
        (fun digest n -> go (nl + 1 + n + 1) ((pos, digest) :: acc))
  in
  go 0 []

(* Same-length in-place edit: changes a blob's bytes, not the framing. *)
let replace_once s ~sub ~by =
  assert (String.length sub = String.length by);
  let n = String.length sub in
  let rec find i =
    if i + n > String.length s then failwith ("not found: " ^ sub)
    else if String.sub s i n = sub then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)

let test_store_put_get () =
  let root = Filename.concat (fresh_dir ()) "store" in
  let store = Store.open_ ~deferred:true root in
  let d1 = Store.put store "hello" in
  let d2 = Store.put store "hello" in
  Alcotest.(check string) "idempotent" d1 d2;
  Alcotest.(check string) "digest is content hash"
    (Store.digest_hex "hello") d1;
  Alcotest.(check string) "round-trip" "hello" (Store.get store d1);
  let d3 = Store.put store "world" in
  Store.close store;
  Alcotest.(check (list string)) "list sorted"
    (List.sort String.compare [ d1; d3 ])
    (Store.list store);
  match Store.put (Store.open_ root) "reader" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "put on a reader must be refused"

let test_store_get_missing () =
  let store = Store.open_ (Filename.concat (fresh_dir ()) "store") in
  match Store.get store (Store.digest_hex "absent") with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "expected Not_found"

let test_store_detects_corruption () =
  let root = Filename.concat (fresh_dir ()) "store" in
  let store = Store.open_ ~deferred:true root in
  let d = Store.put store "payload" in
  Store.close store;
  let pack = List.hd (pack_files root) in
  write_file pack (replace_once (read_file pack) ~sub:"payload" ~by:"paylode");
  match Store.get (Store.open_ root) d with
  | exception Store.Corrupt msg ->
      Alcotest.(check bool) "pack named" true
        (String.starts_with ~prefix:(pack ^ ": blob " ^ d) msg)
  | _ -> Alcotest.fail "expected Corrupt"

(* A store written by an earlier build (loose blob tree, schema 2) is
   refused by name, not half-read. *)
let test_store_detects_manifest_mismatch () =
  let root = Filename.concat (fresh_dir ()) "store" in
  ignore (Store.open_ root);
  let manifest = Filename.concat root "manifest.json" in
  write_file manifest "{\"schema\":\"abagnale-store/2\"}\n";
  match Store.open_ root with
  | exception Store.Corrupt msg ->
      Alcotest.(check bool) "manifest named" true (contains ~affix:manifest msg)
  | _ -> Alcotest.fail "expected Corrupt"

let test_store_deferred_flush_and_close () =
  let root = Filename.concat (fresh_dir ()) "store" in
  let s = Store.open_ ~deferred:true root in
  let d = Store.put s "alpha" in
  Alcotest.(check string) "staged blob readable" "alpha" (Store.get s d);
  Alcotest.(check (list string)) "nothing listed before flush" []
    (Store.list s);
  Alcotest.(check (list string)) "no pack before the first flush" []
    (pack_files root);
  Alcotest.(check int) "one blob flushed" 1 (Store.flush_staged s);
  Alcotest.(check int) "flush idempotent" 0 (Store.flush_staged s);
  Alcotest.(check string) "flushed blob readable from pack" "alpha"
    (Store.get s d);
  let d2 = Store.put s "beta" in
  Store.close s;
  Alcotest.(check (list string)) "close flushes the stragglers"
    (List.sort String.compare [ d; d2 ])
    (Store.list s);
  Alcotest.(check int) "one pack per writer" 1 (List.length (pack_files root));
  let reopened = Store.open_ root in
  Alcotest.(check string) "survives reopen" "beta" (Store.get reopened d2)

let test_store_pack_recovery () =
  let root = Filename.concat (fresh_dir ()) "store" in
  let s = Store.open_ ~deferred:true root in
  let d = Store.put s "durable-but-not-closed" in
  ignore (Store.flush_staged s);
  (* Crash before close: the flushed pack is the blob's only copy. *)
  let reopened = Store.open_ root in
  Alcotest.(check (list string)) "indexed from the pack" [ d ]
    (Store.list reopened);
  Alcotest.(check string) "content intact" "durable-but-not-closed"
    (Store.get reopened d)

let test_store_torn_pack_tail () =
  let root = Filename.concat (fresh_dir ()) "store" in
  let s = Store.open_ ~deferred:true root in
  let d = Store.put s "committed" in
  ignore (Store.flush_staged s);
  (* Kill mid-append: a torn record fragment after the valid prefix. *)
  let pack = List.hd (pack_files root) in
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 pack in
  output_string oc "{\"blob\":\"ffffffffffffffffffffffffffffffff\",\"bytes\":9999}\ntrunc";
  close_out oc;
  let reopened = Store.open_ ~deferred:true root in
  Alcotest.(check (list string)) "only the committed blob" [ d ]
    (Store.list reopened);
  Alcotest.(check string) "committed blob intact" "committed"
    (Store.get reopened d);
  (* The next writer never appends after the torn tail. *)
  let d2 = Store.put reopened "after the crash" in
  Store.close reopened;
  Alcotest.(check int) "a fresh pack" 2 (List.length (pack_files root));
  Alcotest.(check (list string)) "both blobs listed"
    (List.sort String.compare [ d; d2 ])
    (Store.list (Store.open_ root))

(* Without a second copy behind the pack, a malformed record that is
   not a torn tail must not silently hide the records after it. *)
let test_store_interior_corruption () =
  let root = Filename.concat (fresh_dir ()) "store" in
  let s = Store.open_ ~deferred:true root in
  ignore (Store.put s "first");
  ignore (Store.flush_staged s);
  ignore (Store.put s "second");
  Store.close s;
  let pack = List.hd (pack_files root) in
  let good = read_file pack in
  let corrupt_at ~sub ~by =
    write_file pack (replace_once good ~sub ~by);
    match Store.open_ root with
    | exception Store.Corrupt msg ->
        Alcotest.(check bool) (by ^ ": pack and offset named") true
          (String.starts_with ~prefix:(pack ^ ": malformed record at byte 0: ") msg)
    | _ -> Alcotest.failf "%s: expected Corrupt" by
  in
  corrupt_at ~sub:"{\"blob\"" ~by:"{\"blub\"";
  corrupt_at ~sub:"\"bytes\":5" ~by:"\"bytes\":4"

(* Property: for any sequence of puts (repeats and empty content
   included) and flushes, cutting the pack anywhere inside its last
   record leaves exactly the blobs of the complete records, each
   readable; complementing one byte of an earlier record's header
   raises Corrupt naming the pack and the record's offset. *)
let pack_cut_prop (ops, cut, (flip_record, flip_byte)) =
  let root = Filename.concat (fresh_dir ()) "store" in
  let s = Store.open_ ~deferred:true root in
  let content k =
    if k = 0 then "" else Printf.sprintf "blob %d\n%s" k (String.make (3 * k) 'x')
  in
  let contents = Hashtbl.create 16 in
  List.iter
    (function
      | None -> ignore (Store.flush_staged s)
      | Some k -> Hashtbl.replace contents (Store.put s (content k)) (content k))
    ops;
  Store.close s;
  match pack_files root with
  | [] -> Hashtbl.length contents = 0
  | [ pack ] ->
      let bytes = read_file pack in
      let records = pack_records bytes in
      let last, _ = List.nth records (List.length records - 1) in
      let total = String.length bytes in
      let cut_at = last + (cut mod (total - last)) in
      let bytes = String.sub bytes 0 cut_at in
      write_file pack bytes;
      let complete =
        List.filteri (fun i _ -> i < List.length records - 1) records
      in
      let reopened = Store.open_ root in
      let listed_ok =
        Store.list reopened
        = List.sort String.compare (List.map snd complete)
        && List.for_all
             (fun (_, d) -> Store.get reopened d = Hashtbl.find contents d)
             complete
      in
      let flip_ok =
        match complete with
        | [] -> true
        | _ ->
            let start, _ =
              List.nth complete (flip_record mod List.length complete)
            in
            let header_len = String.index_from bytes start '\n' - start + 1 in
            let flipped = Bytes.of_string bytes in
            let i = start + (flip_byte mod header_len) in
            Bytes.set flipped i (Char.chr (0xff lxor Char.code bytes.[i]));
            write_file pack (Bytes.to_string flipped);
            let named = Printf.sprintf "%s: malformed record at byte %d:" pack start in
            (match Store.open_ root with
            | exception Store.Corrupt msg -> String.starts_with ~prefix:named msg
            | _ -> false)
      in
      listed_ok && flip_ok
  | _ -> false

let qcheck_pack_cut =
  let gen =
    QCheck.Gen.(
      triple
        (list_size (int_range 1 24)
           (oneof [ map Option.some (int_range 0 9); return None ]))
        nat (pair nat nat))
  in
  QCheck.Test.make ~name:"pack cut or flipped" ~count:100 (QCheck.make gen)
    pack_cut_prop

let test_store_gc () =
  let root = Filename.concat (fresh_dir ()) "store" in
  let s = Store.open_ ~deferred:true root in
  let live = Store.put s "keep me" in
  let dead = Store.put s "sweep me" in
  ignore (Store.flush_staged s);
  Store.close s;
  (match Store.gc s ~live:(fun _ -> true) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "gc on a deferred store must be refused");
  let offline = Store.open_ root in
  let stats = Store.gc offline ~live:(String.equal live) in
  Alcotest.(check int) "kept" 1 stats.Store.kept;
  Alcotest.(check int) "swept" 1 stats.Store.swept;
  Alcotest.(check int) "pack folded" 1 stats.Store.packs_folded;
  Alcotest.(check (list string)) "canonical listing" [ live ]
    (Store.list offline);
  Alcotest.(check string) "live blob rewritten" "keep me"
    (Store.get offline live);
  Alcotest.(check (array string)) "one pack left" [| "gc.pack" |]
    (Sys.readdir (pack_dir root));
  match Store.get (Store.open_ root) dead with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "dead blob must be gone"

(* -- Journal -- *)

let sample_entries =
  [
    {
      Journal.job = "aaaa"; status = Journal.Ok; result = Some "bbbb";
      error = None;
    };
    {
      Journal.job = "cccc"; status = Journal.Quarantined; result = None;
      error = Some "Failure(\"boom\")";
    };
  ]

let test_journal_line_roundtrip () =
  List.iter
    (fun e ->
      let e' = Journal.entry_of_line (Journal.entry_to_line e) in
      Alcotest.(check string) "line stable" (Journal.entry_to_line e)
        (Journal.entry_to_line e'))
    sample_entries

let test_journal_append_replay () =
  let path = Filename.concat (fresh_dir ()) "journal.jsonl" in
  let j = Journal.open_ path in
  List.iter (Journal.append j) sample_entries;
  Journal.close j;
  let replayed = Journal.replay path in
  Alcotest.(check (list string)) "entries survive"
    (List.map Journal.entry_to_line sample_entries)
    (List.map Journal.entry_to_line replayed)

(* Outcome lines as the previous build wrote them (copied from its
   output), each with an "attempts" count. They still replay, so that
   build's run directories resume and report; rendered again, they only
   lose the member. *)
let test_journal_replays_attempts_lines () =
  let path = Filename.concat (fresh_dir ()) "journal.jsonl" in
  write_file path
    ({|{"job":"c04ad2d8c7609416cad4d8e9b2fbb361","status":"quarantined","attempts":1,"result":null,"error":"Failure(\"probe: injected failure\")"}|}
   ^ "\n"
   ^ {|{"job":"cb15a0a0a0c2b92b7c09b0a9e6298c20","status":"ok","attempts":1,"result":"5a1a1e4cc264e3e89ec5922c2f702c55","error":null}|}
   ^ "\n");
  Alcotest.(check (list string)) "replayed without the member"
    [
      {|{"job":"c04ad2d8c7609416cad4d8e9b2fbb361","status":"quarantined","result":null,"error":"Failure(\"probe: injected failure\")"}|};
      {|{"job":"cb15a0a0a0c2b92b7c09b0a9e6298c20","status":"ok","result":"5a1a1e4cc264e3e89ec5922c2f702c55","error":null}|};
    ]
    (List.map Journal.entry_to_line (Journal.replay path))

let test_journal_missing_is_empty () =
  Alcotest.(check int) "no file, no entries" 0
    (List.length (Journal.replay (Filename.concat (fresh_dir ()) "nope")))

let test_journal_drops_torn_tail () =
  let path = Filename.concat (fresh_dir ()) "journal.jsonl" in
  let j = Journal.open_ path in
  List.iter (Journal.append j) sample_entries;
  Journal.close j;
  (* Simulate a crash mid-append: a final line with no newline. *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc "{\"job\":\"dddd\",\"status\":\"ok\"";
  close_out oc;
  let replayed = Journal.replay path in
  Alcotest.(check int) "torn tail dropped" (List.length sample_entries)
    (List.length replayed)

let test_journal_interior_corruption_raises () =
  let path = Filename.concat (fresh_dir ()) "journal.jsonl" in
  write_file path "garbage, not json\n{\"also\":\"bad\"}\n";
  match Journal.replay path with
  | exception Abg_util.Json.Malformed _ -> ()
  | _ -> Alcotest.fail "expected Malformed"

(* A checkpoint record as an earlier build appended it (copied from that
   build's output; it covers one ok and one quarantined job). Journals
   hold outcome lines only, so such a line is corruption. *)
let old_checkpoint_line =
  "{\"checkpoint\":{\"schema\":\"abagnale-checkpoint/1\",\"covers\":2,\
   \"packed\":\"c4ca4238a0b923820dcc509a6f75849bo00017c92cf1eee8d99cc85f8355a3d6e4b86c81e728d9d4c2f636f067f89cc14862cq0003--------------------------------\",\
   \"errors\":[[\"c81e728d9d4c2f636f067f89cc14862c\",\"Failure(\\\"boom\\\")\"]],\
   \"hash\":\"cb26c69003698fe64d00196edd69478b\"}}"

let dig i = Digest.to_hex (Digest.string (string_of_int i))

let mk_entry ?(status = Journal.Ok) i =
  match status with
  | Journal.Ok ->
      { Journal.job = dig i; status; result = Some (dig (100000 + i));
        error = None }
  | Journal.Quarantined ->
      { Journal.job = dig i; status; result = None;
        error = Some (Printf.sprintf "Failure(\"boom %d\")" i) }

let lines_of entries =
  List.sort String.compare (List.map Journal.entry_to_line entries)

let append_raw path s =
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc s;
  close_out oc

let test_journal_interior_checkpoint_corruption_raises () =
  let dir = fresh_dir () in
  let path = Filename.concat dir "journal.jsonl" in
  let j = Journal.open_ path in
  List.iter (Journal.append j) (List.init 3 mk_entry);
  Journal.close j;
  append_raw path (old_checkpoint_line ^ "\n");
  append_raw path (Journal.entry_to_line (mk_entry 50) ^ "\n");
  (match Journal.replay path with
  | exception Abg_util.Json.Malformed _ -> ()
  | _ -> Alcotest.fail "expected Malformed");
  match Runner.settled_entries dir with
  | exception Abg_util.Json.Malformed msg ->
      Alcotest.(check bool) "journal named" true
        (String.starts_with ~prefix:(path ^ ": ") msg)
  | _ -> Alcotest.fail "settled_entries: expected Malformed"

(* Property: for any sequence of appended outcomes — with any torn tail
   a SIGKILL can leave — replay returns exactly the outcomes appended, in
   append order. *)
let replay_appended_prop (sizes, statuses, tail_kind) =
  let path = Filename.concat (fresh_dir ()) "journal.jsonl" in
  let j = Journal.open_ path in
  let statuses = ref statuses in
  let next_status () =
    match !statuses with
    | [] -> Journal.Ok
    | s :: rest ->
        statuses := rest;
        if s then Journal.Ok else Journal.Quarantined
  in
  let counter = ref 0 in
  let settled = ref [] in
  List.iter
    (fun size ->
      let chunk =
        List.init size (fun _ ->
            incr counter;
            mk_entry ~status:(next_status ()) !counter)
      in
      List.iter (Journal.append j) chunk;
      settled := !settled @ chunk)
    sizes;
  Journal.close j;
  (match tail_kind with
  | 0 -> () (* clean shutdown *)
  | 1 -> append_raw path "{\"job\":\"0123456789abcdef0123456789abcdef\",\"st"
  | _ ->
      let line = Journal.entry_to_line (mk_entry (!counter + 1)) in
      append_raw path (String.sub line 0 (String.length line / 2)));
  List.map Journal.entry_to_line !settled
  = List.map Journal.entry_to_line (Journal.replay path)

let qcheck_replay_appended =
  let gen =
    QCheck.Gen.(
      triple
        (list_size (int_range 0 6) (int_range 0 8))
        (list_size (int_range 0 48) bool)
        (int_range 0 2))
  in
  QCheck.Test.make ~name:"replay = appended outcomes" ~count:100
    (QCheck.make gen) replay_appended_prop

(* -- Commit -- *)

let test_commit_durable_at_return () =
  let dir = fresh_dir () in
  let store = Store.open_ ~deferred:true (Filename.concat dir "store") in
  let jpath = Filename.concat dir "journal.jsonl" in
  let journal = Journal.open_ jpath in
  let entries =
    List.init 6 (fun i ->
        let blob = Store.put store (Printf.sprintf "result %d" i) in
        { (mk_entry i) with Journal.result = Some blob })
  in
  List.iteri
    (fun i e ->
      Runner.commit ~store ~journal e;
      (* The durability-window invariant: once commit returns, the
         journal line and every blob it references are on disk. *)
      let on_disk = lines_of (Journal.replay jpath) in
      Alcotest.(check bool)
        (Printf.sprintf "entry %d durable at commit return" i)
        true
        (List.mem (Journal.entry_to_line e) on_disk))
    entries;
  Journal.close journal;
  Store.close store;
  Alcotest.(check (list string)) "all entries settled"
    (lines_of entries) (lines_of (Journal.replay jpath));
  let reopened = Store.open_ (Filename.concat dir "store") in
  List.iteri
    (fun i (e : Journal.entry) ->
      Alcotest.(check string) "result blob durable"
        (Printf.sprintf "result %d" i)
        (Store.get reopened (Option.get e.Journal.result)))
    entries

(* -- Runner -- *)

let quiet_settings = { Runner.default_settings with Runner.num_domains = Some 2 }

let probe_job ?(fail_attempts = 0) ?(sleep_ms = 0) ~seed cca =
  { Job.kind = Job.Probe { fail_attempts; sleep_ms }; cca; seed; configs = [] }

let collect_job cca =
  {
    Job.kind = Job.Collect;
    cca;
    seed = 42;
    configs = Abg_netsim.Config.testbed_grid ~duration:2.0 ~n:1 ();
  }

let smoke_jobs =
  [
    collect_job "reno";
    probe_job ~seed:1 "reno";
    probe_job ~fail_attempts:1 ~seed:2 "reno";
    probe_job ~seed:3 "cubic";
  ]

let settled_lines dir =
  Journal.replay (Filename.concat dir "journal.jsonl")
  |> List.map Journal.entry_to_line
  |> List.sort String.compare

let store_blobs dir =
  let store = Store.open_ (Filename.concat dir "store") in
  List.map (fun d -> (d, Store.get store d)) (Store.list store)

let test_runner_kill_and_resume_deterministic () =
  (* Uninterrupted reference run. *)
  let uninterrupted = fresh_dir () in
  let summary = Runner.run ~dir:uninterrupted ~settings:quiet_settings smoke_jobs in
  Alcotest.(check int) "all completed" (List.length smoke_jobs)
    (List.length summary.Runner.completions);
  (* "Killed" run: what a SIGKILL after the second commit can leave — a
     journal holding two lines then a torn one, and a pack already
     holding blobs no journal line names (the durability order allows
     it) and ending in a torn record. *)
  let killed = fresh_dir () in
  ignore (Runner.run ~dir:killed ~settings:quiet_settings smoke_jobs);
  let journal = Filename.concat killed "journal.jsonl" in
  (match String.split_on_char '\n' (read_file journal) with
  | first :: second :: _ :: _ ->
      write_file journal
        (first ^ "\n" ^ second
       ^ "\n{\"job\":\"0123456789abcdef0123456789abcdef\",\"st")
  | _ -> Alcotest.fail "expected a journal line per job");
  (match pack_files (Filename.concat killed "store") with
  | [ pack ] ->
      append_raw pack
        "{\"blob\":\"ffffffffffffffffffffffffffffffff\",\"bytes\":9999}\nhalf-writ"
  | _ -> Alcotest.fail "expected the killed run's one pack");
  (* Resume and compare every persisted artifact byte-for-byte. *)
  let resumed = Runner.resume ~dir:killed ~settings:quiet_settings () in
  Alcotest.(check int) "resume finishes the rest" 2
    (List.length resumed.Runner.completions);
  Alcotest.(check int) "resume skips the journaled" 2 resumed.Runner.skipped;
  Alcotest.(check (list string)) "journal outcome sets identical"
    (settled_lines uninterrupted) (settled_lines killed);
  Alcotest.(check (list (pair string string))) "stores identical"
    (store_blobs uninterrupted) (store_blobs killed);
  Alcotest.(check string) "reports byte-identical"
    (Report.render uninterrupted) (Report.render killed);
  Alcotest.(check string) "status byte-identical"
    (Report.status uninterrupted) (Report.status killed);
  (* Resuming a finished run is a no-op. *)
  let idle = Runner.resume ~dir:killed ~settings:quiet_settings () in
  Alcotest.(check int) "nothing to do" 0 (List.length idle.Runner.completions);
  Alcotest.(check int) "everything skipped" (List.length smoke_jobs)
    idle.Runner.skipped;
  (* gc folds the torn pack away with the rest: both stores become one
     gc.pack with equal bytes. *)
  let gc_pack dir =
    ignore (Runner.gc ~dir);
    let root = Filename.concat dir "store" in
    Alcotest.(check (array string)) "only gc.pack" [| "gc.pack" |]
      (Sys.readdir (pack_dir root));
    read_file (Filename.concat (pack_dir root) "gc.pack")
  in
  Alcotest.(check string) "gc.pack byte-identical" (gc_pack uninterrupted)
    (gc_pack killed)

let volatile_count name =
  Option.value ~default:0
    (List.assoc_opt name (Abg_obs.Obs.snapshot ()).Abg_obs.Obs.volatile)

let test_runner_quarantines_poisoned_job () =
  let dir = fresh_dir () in
  let poisoned = probe_job ~fail_attempts:1 ~seed:1 "reno" in
  let jobs = [ poisoned; probe_job ~seed:2 "reno"; probe_job ~seed:3 "cubic" ] in
  let attempts = volatile_count "batch.attempts" in
  let summary = Runner.run ~dir ~settings:quiet_settings jobs in
  Alcotest.(check int) "grid completes" 3 (List.length summary.Runner.completions);
  Alcotest.(check int) "each job ran once" (attempts + 3)
    (volatile_count "batch.attempts");
  let quarantined =
    List.filter
      (fun c -> match c.Runner.status with
        | Runner.Quarantined _ -> true | Runner.Done -> false)
      summary.Runner.completions
  in
  (match quarantined with
  | [ c ] ->
      Alcotest.(check string) "the poisoned job" (Job.digest poisoned)
        c.Runner.digest;
      (match c.Runner.status with
      | Runner.Quarantined err ->
          Alcotest.(check bool) "error recorded" true
            (String.length err > 0 && contains ~affix:"injected failure" err)
      | Runner.Done -> assert false)
  | _ -> Alcotest.fail "expected exactly one quarantined job");
  (* The journal records the quarantine with its error. *)
  let entries = Journal.replay (Filename.concat dir "journal.jsonl") in
  let entry =
    List.find (fun e -> e.Journal.job = Job.digest poisoned) entries
  in
  Alcotest.(check bool) "journaled as quarantined" true
    (entry.Journal.status = Journal.Quarantined);
  Alcotest.(check bool) "journaled error" true (entry.Journal.error <> None);
  (* Resume does not re-run quarantined jobs: quarantine is terminal. *)
  let idle = Runner.resume ~dir ~settings:quiet_settings () in
  Alcotest.(check int) "quarantine is terminal" 0
    (List.length idle.Runner.completions)

let merged_settled_lines dir =
  Runner.settled_entries dir
  |> List.map Journal.entry_to_line
  |> List.sort String.compare

let copy_file src dst =
  In_channel.with_open_bin src In_channel.input_all |> write_file dst

let test_runner_shard_union_equals_whole () =
  let jobs =
    List.map (fun seed -> probe_job ~seed "reno") [ 1; 2; 3; 4; 5 ]
  in
  let whole = fresh_dir () in
  ignore (Runner.run ~dir:whole ~settings:quiet_settings jobs);
  let shard_run i =
    let dir = fresh_dir () in
    ignore
      (Runner.run ~dir
         ~settings:{ quiet_settings with Runner.shard = Some (i, 2) }
         jobs);
    (dir, merged_settled_lines dir, store_blobs dir)
  in
  let dir0, lines0, blobs0 = shard_run 0 in
  let dir1, lines1, blobs1 = shard_run 1 in
  (* Disjoint... *)
  List.iter
    (fun l -> Alcotest.(check bool) "shards disjoint" false (List.mem l lines1))
    lines0;
  (* ...and their union is exactly the unsharded run. *)
  Alcotest.(check (list string)) "journal union = whole"
    (settled_lines whole)
    (List.sort String.compare (lines0 @ lines1));
  let merge a b =
    List.sort_uniq (fun (d, _) (d', _) -> String.compare d d') (a @ b)
  in
  Alcotest.(check (list (pair string string))) "store union = whole"
    (store_blobs whole) (merge blobs0 blobs1);
  (* Shards run apart merge by copying shard 1's journals and packs into
     shard 0's directory: each shard journals under its own name and
     each writer names its pack at random, so nothing is overwritten and
     the report is the unsharded one. *)
  let copy_into dir path =
    let dst = Filename.concat dir (Filename.basename path) in
    Alcotest.(check bool) (dst ^ " is new") false (Sys.file_exists dst);
    copy_file path dst
  in
  List.iter (copy_into dir0) (Runner.journal_paths ~dir:dir1);
  let store dir = Filename.concat dir "store" in
  List.iter (copy_into (pack_dir (store dir0))) (pack_files (store dir1));
  Alcotest.(check (list (pair string string))) "copied store = whole"
    (store_blobs whole) (store_blobs dir0);
  Alcotest.(check string) "copied shards report = whole"
    (Report.render whole) (Report.render dir0)

let test_runner_shard_select () =
  let xs = [ 0; 1; 2; 3; 4; 5; 6 ] in
  Alcotest.(check (list int)) "0/3" [ 0; 3; 6 ] (Runner.shard_select ~i:0 ~n:3 xs);
  Alcotest.(check (list int)) "1/3" [ 1; 4 ] (Runner.shard_select ~i:1 ~n:3 xs);
  Alcotest.(check (list int)) "2/3" [ 2; 5 ] (Runner.shard_select ~i:2 ~n:3 xs);
  match Runner.shard_select ~i:3 ~n:3 xs with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let test_runner_init_refuses_overwrite () =
  let dir = fresh_dir () in
  Runner.init ~dir [ probe_job ~seed:1 "reno" ];
  match Runner.init ~dir [ probe_job ~seed:2 "reno" ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

(* A shuffled grid of every kind loads back in the order
   [Job.compare_canonical] gives, each job paired with its digest. *)
let test_runner_grid_persists_canonically () =
  let dir = fresh_dir () in
  let fuzz_job =
    {
      Job.kind =
        Job.Fuzz_eval
          { fitness = "throughput"; cca_b = None; handler = None };
      cca = "reno";
      seed = 5;
      configs = Abg_netsim.Config.testbed_grid ~duration:2.0 ~n:1 ();
    }
  in
  let jobs =
    Array.of_list
      (fuzz_job
      :: Job.expand
           {
             Job.kinds =
               [
                 Job.Collect; Job.Synthesize { dsl = Some "reno" }; Job.Classify;
                 Job.Noise { stddev = 0.1; keep = 0.5 };
                 Job.Probe { fail_attempts = 1; sleep_ms = 0 };
               ];
             ccas = [ "reno"; "cubic"; "vegas" ];
             scenarios = 1;
             duration = 2.0;
             ack_jitter = 0.0;
             seeds = [ 1; 2 ];
           })
  in
  Abg_util.Rng.shuffle (Abg_util.Rng.create 7) jobs;
  let jobs = Array.to_list jobs in
  Runner.init ~dir jobs;
  let loaded = Runner.jobs_of_dir ~dir in
  Alcotest.(check (list string)) "canonical order, lossless"
    (List.map Job.digest (List.sort Job.compare_canonical jobs))
    (List.map (fun (_, job) -> Job.digest job) loaded);
  List.iter
    (fun (digest, job) ->
      Alcotest.(check string) "paired digest" (Job.digest job) digest)
    loaded

(* A corrupt grid or journal names its file: the CLI turns the message
   into its one stderr line. *)
let test_runner_corrupt_files_named () =
  let dir = fresh_dir () in
  Runner.init ~dir [ probe_job ~seed:1 "reno" ];
  let named path f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Json.Malformed" path
    | exception Abg_util.Json.Malformed msg ->
        Alcotest.(check bool) (path ^ " named") true
          (String.starts_with ~prefix:(path ^ ": ") msg)
  in
  let journal = Filename.concat dir "journal.jsonl" in
  write_file journal "not json\n";
  named journal (fun () -> Runner.settled_entries dir);
  let grid = Runner.grid_path dir in
  write_file grid "garbage\n";
  named grid (fun () -> Runner.jobs_of_dir ~dir)

(* A job object that is not exactly its job's canonical rendering — an
   unknown member (a fuzz grid from the one-job-per-genome format had a
   "genome"), no schema, or another schema — is refused naming the
   grid, instead of loading as a different job under a new digest that
   no journal settled. So is a grid whose own wrapper is not exactly
   [{"schema":"abagnale-grid/1","jobs":[...]}]. *)
let test_runner_noncanonical_job_named () =
  let job =
    {
      Job.kind =
        Job.Fuzz_eval { fitness = "divergence"; cca_b = Some "cubic"; handler = None };
      cca = "reno";
      seed = 7;
      configs = Abg_netsim.Config.testbed_grid ~duration:2.0 ~n:1 ();
    }
  in
  List.iter
    (fun (what, from, into) ->
      let dir = fresh_dir () in
      Runner.init ~dir [ job ];
      let grid = Runner.grid_path dir in
      let text = read_file grid and n = String.length from in
      let rec at i = if String.sub text i n = from then i else at (i + 1) in
      let i = at 0 in
      write_file grid
        (String.sub text 0 i ^ into
        ^ String.sub text (i + n) (String.length text - i - n));
      match Runner.jobs_of_dir ~dir with
      | _ -> Alcotest.failf "%s: expected Json.Malformed" what
      | exception Abg_util.Json.Malformed msg ->
          Alcotest.(check bool) (what ^ " names the grid") true
            (String.starts_with ~prefix:(grid ^ ": ") msg))
    [
      ("unknown member", {|"kind":"fuzz",|}, {|"kind":"fuzz","genome":"x",|});
      ("no schema", {|"schema":"abagnale-job/1",|}, "");
      ("foreign schema", {|"abagnale-job/1"|}, {|"abagnale-job/0"|});
      ("foreign grid wrapper", {|"abagnale-grid/1",|},
       {|"abagnale-grid/9","extra":1,|});
      ("no grid schema", {|"schema":"abagnale-grid/1",|}, "");
    ]

(* A grid that lists one job twice would run it twice and journal it
   twice under one digest; it is named as a corrupt grid instead. *)
let test_runner_repeated_job_named () =
  let job = probe_job ~seed:7 "reno" in
  let dir = fresh_dir () in
  Runner.init ~dir [ job; probe_job ~seed:8 "reno"; job ];
  match Runner.jobs_of_dir ~dir with
  | _ -> Alcotest.fail "expected Json.Malformed"
  | exception Abg_util.Json.Malformed msg ->
      Alcotest.(check bool) "names the grid" true
        (String.starts_with ~prefix:(Runner.grid_path dir ^ ": ") msg)

let test_runner_worker_journals_merge () =
  (* Two coordinator workers sharing one run directory must together
     reproduce the single-process run byte-for-byte: journal outcome
     union, store, and report. *)
  let jobs = List.map (fun seed -> probe_job ~seed "reno") [ 1; 2; 3; 4; 5 ] in
  let whole = fresh_dir () in
  ignore (Runner.run ~dir:whole ~settings:quiet_settings jobs);
  let dir = fresh_dir () in
  Runner.init ~dir jobs;
  List.iter
    (fun i ->
      ignore
        (Runner.resume ~dir
           ~settings:{ quiet_settings with Runner.shard = Some (i, 2) }
           ()))
    [ 0; 1 ];
  Alcotest.(check (list string)) "two worker journals"
    [ "journal.w0of2.jsonl"; "journal.w1of2.jsonl" ]
    (List.map Filename.basename (Runner.journal_paths ~dir));
  Alcotest.(check (list string)) "journal union = single-process"
    (merged_settled_lines whole) (merged_settled_lines dir);
  Alcotest.(check (list (pair string string))) "stores identical"
    (store_blobs whole) (store_blobs dir);
  Alcotest.(check string) "reports byte-identical"
    (Report.render whole) (Report.render dir);
  (* A full-family resume (no worker slice) finds nothing left. *)
  let idle = Runner.resume ~dir ~settings:quiet_settings () in
  Alcotest.(check int) "family fully settled" 0
    (List.length idle.Runner.completions);
  Alcotest.(check int) "all skipped" (List.length jobs) idle.Runner.skipped

let test_runner_gc_keeps_live_sweeps_orphans () =
  let dir = fresh_dir () in
  ignore (Runner.run ~dir ~settings:quiet_settings smoke_jobs);
  let before_report = Report.render dir in
  let before_blobs = store_blobs dir in
  let stats = Runner.gc ~dir in
  Alcotest.(check int) "nothing live swept" 0 stats.Store.swept;
  Alcotest.(check (list (pair string string))) "store unchanged"
    before_blobs (store_blobs dir);
  (* Plant an orphan — a blob no journaled result references. *)
  let store = Store.open_ ~deferred:true (Filename.concat dir "store") in
  let orphan = Store.put store "orphaned by a superseded run" in
  Store.close store;
  let stats = Runner.gc ~dir in
  Alcotest.(check int) "orphan swept" 1 stats.Store.swept;
  Alcotest.(check bool) "orphan gone" false
    (List.mem orphan (Store.list (Store.open_ (Filename.concat dir "store"))));
  Alcotest.(check (list (pair string string))) "live blobs survive gc"
    before_blobs (store_blobs dir);
  Alcotest.(check string) "report unchanged by gc" before_report
    (Report.render dir)

(* A result rewritten on disk — here a well-formed forgery, edited in
   place inside gc.pack — must fail the report instead of being
   rendered. *)
let test_report_rejects_rotted_blob () =
  let dir = fresh_dir () in
  ignore (Runner.run ~dir ~settings:quiet_settings [ probe_job ~seed:1 "reno" ]);
  ignore (Runner.gc ~dir);
  let pack = Filename.concat (pack_dir (Filename.concat dir "store")) "gc.pack" in
  write_file pack
    (replace_once (read_file pack) ~sub:"\"payload\":\"ok\""
       ~by:"\"payload\":\"no\"");
  match Report.render dir with
  | exception Store.Corrupt msg ->
      Alcotest.(check bool) "pack named" true
        (String.starts_with ~prefix:(pack ^ ": blob ") msg)
  | _ -> Alcotest.fail "expected Store.Corrupt"

(* A collect result whose blob is gone from the store, while the traces
   it references stay. *)
let run_missing_collect_result () =
  let dir = fresh_dir () in
  ignore
    (Runner.run ~dir ~settings:quiet_settings
       [ collect_job "reno"; probe_job ~seed:1 "reno" ]);
  let job = Job.digest (collect_job "reno") in
  let blob =
    match
      List.find (fun e -> e.Journal.job = job) (Runner.settled_entries dir)
    with
    | { Journal.result = Some blob; _ } -> blob
    | _ -> Alcotest.fail "expected an ok collect entry"
  in
  ignore
    (Store.gc (Store.open_ (Filename.concat dir "store")) ~live:(( <> ) blob));
  (dir, job, blob)

let check_names_missing (dir, job, blob) what f =
  match f () with
  | exception Store.Corrupt msg ->
      List.iter
        (fun affix ->
          Alcotest.(check bool) (what ^ " names " ^ affix) true (contains ~affix msg))
        [ Filename.concat dir "store"; job; blob ]
  | _ -> Alcotest.failf "%s: expected Store.Corrupt" what

let test_report_missing_result_blob () =
  let ((dir, _, _) as missing) = run_missing_collect_result () in
  check_names_missing missing "report" (fun () -> Report.render dir)

(* gc must not treat a lost result as dead: that would also sweep the
   traces it references. *)
let test_gc_missing_result_blob () =
  let ((dir, _, _) as missing) = run_missing_collect_result () in
  let before = store_blobs dir in
  check_names_missing missing "gc" (fun () -> Runner.gc ~dir);
  Alcotest.(check (list (pair string string))) "gc deleted nothing" before
    (store_blobs dir)

(* -- Coordinator -- *)

(* Workers are /bin/sh scripts; each case keeps at most two alive. *)
let sh_workers scripts i = [| "/bin/sh"; "-c"; List.nth scripts i |]

let supervise scripts =
  Coordinator.supervise ~argv:(sh_workers scripts)
    ~workers:(List.length scripts) ()

let check_outcome what ~quarantined ~respawns ~failed
    (o : Coordinator.outcome) =
  Alcotest.(check bool) (what ^ ": quarantined") quarantined
    o.Coordinator.quarantined;
  Alcotest.(check int) (what ^ ": respawns") respawns o.Coordinator.respawns;
  Alcotest.(check (list (pair int string))) (what ^ ": failed") failed
    o.Coordinator.failed

(* An exit status other than 0 or 2 is an input error or an uncaught
   exception, which a respawn would repeat: reported, never respawned. *)
let test_coordinator_exit_1_fails () =
  check_outcome "exit 1" ~quarantined:false ~respawns:0
    ~failed:[ (0, "exited 1") ]
    (supervise [ "exit 1" ])

let test_coordinator_exit_2_quarantined () =
  check_outcome "exit 0 and exit 2" ~quarantined:true ~respawns:0 ~failed:[]
    (supervise [ "exit 0"; "exit 2" ])

(* The first spawn SIGKILLs itself; the marker it leaves tells the
   respawn to exit 0, as a resumed worker finds its journal settled. *)
let test_coordinator_respawns_killed () =
  let marker = Filename.concat (fresh_dir ()) "spawned" in
  check_outcome "killed once" ~quarantined:false ~respawns:1 ~failed:[]
    (supervise
       [
         Printf.sprintf "if [ -e %s ]; then exit 0; fi; : > %s; kill -9 $$"
           (Filename.quote marker) (Filename.quote marker);
       ])

let suites =
  [
    ( "batch.job",
      [
        Alcotest.test_case "json roundtrip" `Quick test_job_json_roundtrip;
        Alcotest.test_case "digest distinguishes" `Quick
          test_job_digest_distinguishes;
        Alcotest.test_case "expand counts" `Quick test_job_expand_counts;
        Alcotest.test_case "expand keeps first" `Quick
          test_job_expand_keeps_first;
        Alcotest.test_case "probe configless" `Quick
          test_job_expand_probe_configless;
        Alcotest.test_case "expand rejects empty" `Quick
          test_job_expand_rejects_empty;
        Alcotest.test_case "kind tokens" `Quick test_job_kind_tokens;
        Alcotest.test_case "noise token bounds" `Quick
          test_job_noise_token_bounds;
        Alcotest.test_case "digest pinned" `Quick test_job_digest_pinned;
        Alcotest.test_case "unknown cca refused" `Quick test_job_unknown_cca;
        Alcotest.test_case "unknown cca_b refused" `Quick
          test_job_unknown_cca_b;
        Alcotest.test_case "unknown dsl refused" `Quick test_job_unknown_dsl;
      ] );
    ( "batch.durable",
      [ Alcotest.test_case "replace" `Quick test_durable_replace ] );
    ( "batch.store",
      [
        Alcotest.test_case "put/get" `Quick test_store_put_get;
        Alcotest.test_case "missing" `Quick test_store_get_missing;
        Alcotest.test_case "corruption" `Quick test_store_detects_corruption;
        Alcotest.test_case "manifest mismatch" `Quick
          test_store_detects_manifest_mismatch;
        Alcotest.test_case "deferred flush/close" `Quick
          test_store_deferred_flush_and_close;
        Alcotest.test_case "pack recovery" `Quick test_store_pack_recovery;
        Alcotest.test_case "torn pack tail" `Quick test_store_torn_pack_tail;
        Alcotest.test_case "interior corruption" `Quick
          test_store_interior_corruption;
        QCheck_alcotest.to_alcotest ~long:false qcheck_pack_cut;
        Alcotest.test_case "gc" `Quick test_store_gc;
      ] );
    ( "batch.journal",
      [
        Alcotest.test_case "line roundtrip" `Quick test_journal_line_roundtrip;
        Alcotest.test_case "append/replay" `Quick test_journal_append_replay;
        Alcotest.test_case "attempts lines replay" `Quick
          test_journal_replays_attempts_lines;
        Alcotest.test_case "missing file" `Quick test_journal_missing_is_empty;
        Alcotest.test_case "torn tail" `Quick test_journal_drops_torn_tail;
        Alcotest.test_case "interior corruption" `Quick
          test_journal_interior_corruption_raises;
        Alcotest.test_case "interior checkpoint corruption" `Quick
          test_journal_interior_checkpoint_corruption_raises;
        QCheck_alcotest.to_alcotest ~long:false qcheck_replay_appended;
      ] );
    ( "batch.runner",
      [
        Alcotest.test_case "commit durable at return" `Quick
          test_commit_durable_at_return;
        Alcotest.test_case "kill and resume deterministic" `Quick
          test_runner_kill_and_resume_deterministic;
        Alcotest.test_case "quarantine containment" `Quick
          test_runner_quarantines_poisoned_job;
        Alcotest.test_case "shard union = whole" `Quick
          test_runner_shard_union_equals_whole;
        Alcotest.test_case "shard select" `Quick test_runner_shard_select;
        Alcotest.test_case "init refuses overwrite" `Quick
          test_runner_init_refuses_overwrite;
        Alcotest.test_case "grid persists" `Quick
          test_runner_grid_persists_canonically;
        Alcotest.test_case "corrupt files named" `Quick
          test_runner_corrupt_files_named;
        Alcotest.test_case "non-canonical job named" `Quick
          test_runner_noncanonical_job_named;
        Alcotest.test_case "repeated job named" `Quick
          test_runner_repeated_job_named;
        Alcotest.test_case "worker journals merge" `Quick
          test_runner_worker_journals_merge;
        Alcotest.test_case "gc keeps live" `Quick
          test_runner_gc_keeps_live_sweeps_orphans;
        Alcotest.test_case "report rejects rotted blob" `Quick
          test_report_rejects_rotted_blob;
        Alcotest.test_case "report names missing result" `Quick
          test_report_missing_result_blob;
        Alcotest.test_case "gc names missing result" `Quick
          test_gc_missing_result_blob;
      ] );
    ( "batch.coordinator",
      [
        Alcotest.test_case "exit 1 fails" `Quick test_coordinator_exit_1_fails;
        Alcotest.test_case "exit 2 quarantined" `Quick
          test_coordinator_exit_2_quarantined;
        Alcotest.test_case "killed worker respawned" `Quick
          test_coordinator_respawns_killed;
      ] );
  ]
