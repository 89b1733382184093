(* Crash-safe file primitives. See durable.mli. *)

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Sys.mkdir path 0o755 with Sys_error _ when Sys.file_exists path -> ()
  end
  else if not (Sys.is_directory path) then
    raise (Sys_error (path ^ ": Not a directory"))

let fsync_dir path =
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

let replace path content =
  let dir = Filename.dirname path in
  mkdir_p dir;
  let tmp = path ^ ".tmp" in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let n = String.length content in
      if Unix.write_substring fd content 0 n <> n then
        failwith ("Durable.replace: short write to " ^ tmp);
      Unix.fsync fd);
  Sys.rename tmp path;
  fsync_dir dir
