(* Deterministic run reports. See report.mli.

   Nothing rendered here may depend on the run directory's path, wall
   clock, or scheduling order — the CI kill-and-resume smoke job diffs
   the reports of two different run directories byte-for-byte. *)

open Abg_util

let ( / ) = Filename.concat

type row = {
  job : Job.t;
  digest : string;
  entry : Journal.entry option;  (** [None] = still pending *)
}

let load dir =
  let jobs = Runner.jobs_of_dir ~dir in
  let settled = Hashtbl.create 64 in
  List.iter
    (fun (e : Journal.entry) -> Hashtbl.replace settled e.Journal.job e)
    (Runner.settled_entries dir);
  List.map
    (fun (digest, job) ->
      { job; digest; entry = Hashtbl.find_opt settled digest })
    jobs

let result_doc ~dir store (row : row) =
  match row.entry with
  | Some ({ Journal.status = Journal.Ok; _ } as e) ->
      Some (Runner.result_doc ~dir store e)
  | _ -> None

(* -- field accessors over result documents -- *)

let str_field doc key =
  match Json.member_opt key doc with
  | Some (Json.Str s) -> Some s
  | _ -> None

let num_field doc key =
  match Json.member_opt key doc with
  | Some (Json.Num n) -> Some n
  | _ -> None

let hex_field doc key =
  match Json.member_opt key doc with
  | Some (Json.Str _ as j) -> Some (Json.hex_float j)
  | _ -> None

let found doc =
  match Json.member_opt "found" doc with
  | Some (Json.Bool b) -> b
  | _ -> false

let fmt_dist = Printf.sprintf "%.4f"
let fmt_opt f = function Some v -> f v | None -> "-"

(* -- sections -- *)

let buf_section buf title rows render_row =
  if rows <> [] then begin
    Buffer.add_string buf title;
    Buffer.add_char buf '\n';
    Buffer.add_string buf (String.make (String.length title) '-');
    Buffer.add_char buf '\n';
    List.iter
      (fun r ->
        Buffer.add_string buf (render_row r);
        Buffer.add_char buf '\n')
      rows;
    Buffer.add_char buf '\n'
  end

let synth_row doc_of (row : row) =
  match doc_of row with
  | None -> Printf.sprintf "  %-12s seed=%-6d PENDING" row.job.Job.cca row.job.Job.seed
  | Some doc ->
      if not (found doc) then
        Printf.sprintf "  %-12s seed=%-6d no finite-distance candidate"
          row.job.Job.cca row.job.Job.seed
      else
        Printf.sprintf "  %-12s seed=%-6d dsl=%-10s dist=%-10s %s"
          row.job.Job.cca row.job.Job.seed
          (fmt_opt Fun.id (str_field doc "dsl"))
          (fmt_opt fmt_dist (hex_field doc "distance"))
          (fmt_opt Fun.id (str_field doc "handler"))

let noise_row doc_of (row : row) =
  let params =
    match row.job.Job.kind with
    | Job.Noise { stddev; keep } ->
        Printf.sprintf "stddev=%g keep=%g" stddev keep
    | _ -> ""
  in
  match doc_of row with
  | None ->
      Printf.sprintf "  %-12s seed=%-6d %-24s PENDING" row.job.Job.cca
        row.job.Job.seed params
  | Some doc ->
      if not (found doc) then
        Printf.sprintf "  %-12s seed=%-6d %-24s no candidate" row.job.Job.cca
          row.job.Job.seed params
      else
        Printf.sprintf "  %-12s seed=%-6d %-24s dist=%-10s clean=%-10s %s"
          row.job.Job.cca row.job.Job.seed params
          (fmt_opt fmt_dist (hex_field doc "distance"))
          (fmt_opt fmt_dist (hex_field doc "distance_clean"))
          (fmt_opt Fun.id (str_field doc "dsl"))

let classify_row doc_of (row : row) =
  match doc_of row with
  | None -> Printf.sprintf "  %-12s PENDING" row.job.Job.cca
  | Some doc ->
      Printf.sprintf "  %-12s gordon=%-20s ccanalyzer=%s" row.job.Job.cca
        (fmt_opt Fun.id (str_field doc "gordon"))
        (fmt_opt Fun.id (str_field doc "ccanalyzer"))

let collect_row doc_of (row : row) =
  match doc_of row with
  | None -> Printf.sprintf "  %-12s PENDING" row.job.Job.cca
  | Some doc ->
      let traces =
        match Json.member_opt "traces" doc with
        | Some (Json.List l) -> l
        | _ -> []
      in
      let records =
        List.fold_left
          (fun acc t ->
            acc + int_of_float (Option.value ~default:0.0 (num_field t "records")))
          0 traces
      in
      Printf.sprintf "  %-12s %d trace(s), %d record(s)" row.job.Job.cca
        (List.length traces) records

let probe_row doc_of (row : row) =
  match doc_of row with
  | None -> Printf.sprintf "  %-12s seed=%-6d PENDING" row.job.Job.cca row.job.Job.seed
  | Some doc ->
      Printf.sprintf "  %-12s seed=%-6d %s checksum=%s" row.job.Job.cca
        row.job.Job.seed
        (fmt_opt Fun.id (str_field doc "payload"))
        (fmt_opt (fun n -> string_of_int (int_of_float n)) (num_field doc "checksum"))

let fuzz_row doc_of (row : row) =
  let fitness =
    match row.job.Job.kind with
    | Job.Fuzz_eval { fitness; _ } -> fitness
    | _ -> ""
  in
  let values =
    match Option.bind (doc_of row) (Json.member_opt "values") with
    | Some (Json.List l) -> List.map Json.hex_float l
    | _ -> []
  in
  Printf.sprintf "  %-12s %-14s %3d scenario(s) %s" row.job.Job.cca fitness
    (List.length row.job.Job.configs)
    (if values = [] then "PENDING"
     else "best=" ^ fmt_dist (List.fold_left Float.max neg_infinity values))

let quarantined_row (row : row) =
  match row.entry with
  | Some { Journal.status = Journal.Quarantined; attempts; error; _ } ->
      Some
        (Printf.sprintf "  %-40s attempts=%d  %s" (Job.describe row.job)
           attempts
           (Option.value ~default:"(no error recorded)" error))
  | _ -> None

let is_kind k (row : row) = String.equal (Job.kind_name row.job.Job.kind) k

let is_ok (row : row) =
  match row.entry with
  | Some { Journal.status = Journal.Ok; _ } -> true
  | _ -> false

let is_quarantined (row : row) =
  match row.entry with
  | Some { Journal.status = Journal.Quarantined; _ } -> true
  | _ -> false

let render dir =
  let rows = load dir in
  let store = Store.open_ (dir / "store") in
  let doc_of = result_doc ~dir store in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "Batch report: %d job(s)\n\n" (List.length rows));
  let section title kind render_row =
    buf_section buf title
      (List.filter (fun r -> is_kind kind r && not (is_quarantined r)) rows)
      render_row
  in
  section "Synthesis" "synth" (synth_row doc_of);
  section "Noise robustness" "noise" (noise_row doc_of);
  section "Classification" "classify" (classify_row doc_of);
  section "Collection" "collect" (collect_row doc_of);
  section "Probes" "probe" (probe_row doc_of);
  section "Fuzz generations" "fuzz" (fuzz_row doc_of);
  buf_section buf "Quarantined" (List.filter_map quarantined_row rows) Fun.id;
  let done_ = List.length (List.filter is_ok rows) in
  let quarantined = List.length (List.filter is_quarantined rows) in
  Buffer.add_string buf
    (Printf.sprintf "Totals: %d ok, %d quarantined, %d pending, %d blob(s)\n"
       done_ quarantined
       (List.length rows - done_ - quarantined)
       (List.length (Store.list store)));
  Buffer.contents buf

let status dir =
  let rows = load dir in
  let store = Store.open_ (dir / "store") in
  let buf = Buffer.create 512 in
  let done_ = List.length (List.filter is_ok rows) in
  let quarantined = List.length (List.filter is_quarantined rows) in
  Buffer.add_string buf
    (Printf.sprintf "jobs: %d total, %d ok, %d quarantined, %d pending\n"
       (List.length rows) done_ quarantined
       (List.length rows - done_ - quarantined));
  let kinds = [ "collect"; "synth"; "classify"; "noise"; "probe"; "fuzz" ] in
  List.iter
    (fun kind ->
      let of_kind = List.filter (is_kind kind) rows in
      if of_kind <> [] then
        Buffer.add_string buf
          (Printf.sprintf "  %-10s %d/%d done\n" kind
             (List.length (List.filter is_ok of_kind))
             (List.length of_kind)))
    kinds;
  Buffer.add_string buf
    (Printf.sprintf "store: %d blob(s)\n" (List.length (Store.list store)));
  Buffer.contents buf
