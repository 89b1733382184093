(* Append-only fsync'd completion journal. See journal.mli. *)

open Abg_util

type status = Ok | Quarantined

type entry = {
  job : string;
  status : status;
  attempts : int;
  result : string option;
  error : string option;
}

let status_name = function Ok -> "ok" | Quarantined -> "quarantined"

let entry_to_line entry =
  let opt = function None -> Json.Null | Some s -> Json.Str s in
  Json.to_string
    (Json.Obj
       [
         ("job", Json.Str entry.job);
         ("status", Json.Str (status_name entry.status));
         ("attempts", Json.Num (float_of_int entry.attempts));
         ("result", opt entry.result);
         ("error", opt entry.error);
       ])

let entry_of_line line =
  let json = Json.parse line in
  let ctx = "journal" in
  let opt key =
    match Json.member ~ctx key json with
    | Json.Null -> None
    | j -> Some (Json.str ~ctx:("journal." ^ key) j)
  in
  {
    job = Json.str ~ctx (Json.member ~ctx "job" json);
    status =
      (match Json.str ~ctx (Json.member ~ctx "status" json) with
      | "ok" -> Ok
      | "quarantined" -> Quarantined
      | other -> raise (Json.Malformed ("journal: unknown status " ^ other)));
    attempts = Json.int ~ctx (Json.member ~ctx "attempts" json);
    result = opt "result";
    error = opt "error";
  }

type t = { fd : Unix.file_descr; m : Mutex.t }

(* A kill mid-append can leave a torn final line with no newline. It was
   never acknowledged, so it must be truncated away before appending —
   otherwise O_APPEND would glue the next entry onto the fragment,
   turning a harmless crash artifact into interior corruption. *)
let truncate_torn_tail path =
  match open_in_bin path with
  | exception Sys_error _ -> ()
  | ic ->
      let content =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> In_channel.input_all ic)
      in
      let len = String.length content in
      if len > 0 && content.[len - 1] <> '\n' then begin
        let keep =
          match String.rindex_opt content '\n' with
          | Some i -> i + 1
          | None -> 0
        in
        let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            Unix.ftruncate fd keep;
            Unix.fsync fd)
      end

let open_ path =
  truncate_torn_tail path;
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  { fd; m = Mutex.create () }

(* One write syscall for the line (O_APPEND keeps appends from
   interleaving), then one fsync: once this returns, the line survives a
   kill. *)
let append t entry =
  let line = entry_to_line entry ^ "\n" in
  Mutex.protect t.m (fun () ->
      let n = String.length line in
      let written = Unix.write_substring t.fd line 0 n in
      if written <> n then failwith "Journal.append: short write";
      Unix.fsync t.fd)

let close t = Unix.close t.fd

(* Only newline-terminated lines are acknowledged; a trailing fragment
   is a torn append from a crash — dropped, so the job it described
   re-runs on resume. *)
let terminated_lines content =
  let rec terminated acc = function
    | [] | [ _ ] -> List.rev acc (* last chunk: "" if terminated, torn if not *)
    | line :: rest -> terminated (line :: acc) rest
  in
  String.split_on_char '\n' content
  |> terminated []
  |> List.filter (fun l -> String.trim l <> "")

let replay path =
  if not (Sys.file_exists path) then []
  else
    In_channel.with_open_bin path In_channel.input_all
    |> terminated_lines
    |> List.map entry_of_line
