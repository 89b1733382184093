(* Content-addressed artifact store whose pack files hold the only copy
   of every blob. See store.mli for the contract.

   Layout:
     DIR/manifest.json      versioned schema marker
     DIR/pack/<name>.pack   append-only packs: one per writer, and
                            gc.pack once [gc] has run

   A pack is a sequence of self-delimiting records:

     {"blob":"<digest>","bytes":N}\n<N content bytes>\n

   A writer's puts stage in memory; [flush_staged] appends the whole
   batch to the writer's own pack with one write and one fsync — that
   fsync is the durability point for every blob in the batch. [open_]
   indexes every pack by scanning its record headers. *)

open Abg_util

type record = { pack : string; offset : int; bytes : int }

type t = {
  root : string;
  deferred : bool;
  m : Mutex.t;
  (* All under [m]: the blobs staged since the last flush, the
     digest->record index of every pack, and this writer's own pack
     (path, fd), which its first flush creates. *)
  staged : (string, string) Hashtbl.t;
  index : (string, record) Hashtbl.t;
  mutable pack : (string * Unix.file_descr) option;
}

exception Corrupt of string

let schema = "abagnale-store/3"
let manifest_content = Json.to_string (Json.Obj [ ("schema", Json.Str schema) ]) ^ "\n"

(* GC sweeps depend on crash history, not on workload alone — volatile,
   like the other batch counters. *)
let obs_gc_swept = Abg_obs.Obs.Counter.make ~volatile:true "batch.gc_swept"

let ( / ) = Filename.concat

let pack_dir t = t.root / "pack"
let digest_hex content = Digest.to_hex (Digest.string content)

let is_digest s =
  String.length s = 32
  && String.for_all (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false) s

(* Append one record to [buf]; returns its content's offset in [buf]. *)
let add_record buf digest content =
  Buffer.add_string buf
    (Json.to_string
       (Json.Obj
          [
            ("blob", Json.Str digest);
            ("bytes", Json.Num (float_of_int (String.length content)));
          ]));
  Buffer.add_char buf '\n';
  let offset = Buffer.length buf in
  Buffer.add_string buf content;
  Buffer.add_char buf '\n';
  offset

(* -- indexing --

   Index every complete record of one pack. A record whose declared
   extent runs past the end of the pack is a torn tail, what a kill
   mid-append leaves: its blob was never acknowledged and nothing follows
   it. Any other malformed record would hide every record after it, so
   it is corruption. *)
let scan_pack index path =
  In_channel.with_open_bin path @@ fun ic ->
  let total = Int64.to_int (In_channel.length ic) in
  let rec scan offset =
    match In_channel.input_line ic with
    | None -> ()
    | Some header ->
        let content = offset + String.length header + 1 in
        let corrupt why =
          raise
            (Corrupt
               (Printf.sprintf "%s: malformed record at byte %d: %s" path offset
                  why))
        in
        if content <= total then begin
          let digest, bytes =
            try
              let json = Json.parse header in
              let ctx = "pack header" in
              ( Json.str ~ctx (Json.member ~ctx "blob" json),
                Json.int ~ctx (Json.member ~ctx "bytes" json) )
            with Json.Malformed msg -> corrupt msg
          in
          if not (is_digest digest) then corrupt "bad digest";
          if bytes < 0 then corrupt "negative length";
          let next = content + bytes + 1 in
          if next <= total then begin
            In_channel.seek ic (Int64.of_int (next - 1));
            if In_channel.input_char ic <> Some '\n' then
              corrupt "content not newline-terminated";
            Hashtbl.replace index digest
              { pack = path; offset = content; bytes };
            scan next
          end
        end
  in
  scan 0

let index_packs t =
  Hashtbl.reset t.index;
  let names = Sys.readdir (pack_dir t) in
  Array.sort String.compare names;
  Array.iter
    (fun name ->
      if Filename.check_suffix name ".pack" then
        scan_pack t.index (pack_dir t / name))
    names

let open_ ?(deferred = false) root =
  let manifest = root / "manifest.json" in
  if Sys.file_exists manifest then begin
    let found = In_channel.with_open_bin manifest In_channel.input_all in
    if found <> manifest_content then
      raise
        (Corrupt
           (Printf.sprintf "store manifest mismatch at %s: %S" manifest
              (String.trim found)))
  end
  else Durable.replace manifest manifest_content;
  let t =
    {
      root;
      deferred;
      m = Mutex.create ();
      staged = Hashtbl.create 64;
      index = Hashtbl.create 64;
      pack = None;
    }
  in
  Durable.mkdir_p (pack_dir t);
  index_packs t;
  t

(* -- writes -- *)

let put t content =
  if not t.deferred then invalid_arg "Store.put: store opened as a reader";
  let digest = digest_hex content in
  Mutex.protect t.m (fun () ->
      if not (Hashtbl.mem t.staged digest || Hashtbl.mem t.index digest) then
        Hashtbl.replace t.staged digest content);
  digest

(* Caller holds [t.m]. The pack is created exclusively, so no process
   ever appends after another's torn tail, and under a random name, so
   packs copied in from a shard run elsewhere never collide. Its
   directory entry is durable before any blob in it is acknowledged. *)
let own_pack t =
  match t.pack with
  | Some pack -> pack
  | None ->
      let rng = Random.State.make_self_init () in
      let rec create () =
        let path =
          pack_dir t / Printf.sprintf "%016Lx.pack" (Random.State.bits64 rng)
        in
        match
          Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_EXCL ] 0o644
        with
        | fd -> (path, fd)
        | exception Unix.Unix_error (Unix.EEXIST, _, _) -> create ()
      in
      let pack = create () in
      Durable.fsync_dir (pack_dir t);
      t.pack <- Some pack;
      pack

let flush_staged t =
  Mutex.protect t.m @@ fun () ->
  let n = Hashtbl.length t.staged in
  if n > 0 then begin
    let path, fd = own_pack t in
    let base = Unix.lseek fd 0 Unix.SEEK_CUR in
    let buf = Buffer.create 4096 in
    let records =
      Hashtbl.fold
        (fun digest content acc ->
          let offset = base + add_record buf digest content in
          let bytes = String.length content in
          (digest, { pack = path; offset; bytes }) :: acc)
        t.staged []
    in
    let len = Buffer.length buf in
    if Unix.write_substring fd (Buffer.contents buf) 0 len <> len then
      failwith "Store.flush_staged: short write";
    Unix.fsync fd;
    (* Durability point: every blob in the batch is now covered by its
       pack record. Content can leave memory. *)
    List.iter (fun (d, record) -> Hashtbl.replace t.index d record) records;
    Hashtbl.reset t.staged
  end;
  n

let close t =
  ignore (flush_staged t);
  Mutex.protect t.m (fun () ->
      Option.iter (fun (_, fd) -> Unix.close fd) t.pack;
      t.pack <- None)

(* -- reads -- *)

let get t digest =
  match
    Mutex.protect t.m (fun () ->
        (Hashtbl.find_opt t.staged digest, Hashtbl.find_opt t.index digest))
  with
  | Some content, _ -> content
  | None, None -> raise Not_found
  | None, Some { pack; offset; bytes } ->
      let content =
        In_channel.with_open_bin pack (fun ic ->
            In_channel.seek ic (Int64.of_int offset);
            really_input_string ic bytes)
      in
      let found = digest_hex content in
      if found <> digest then
        raise
          (Corrupt
             (Printf.sprintf "%s: blob %s corrupt: content hashes to %s" pack
                digest found));
      content

let list t =
  Mutex.protect t.m (fun () ->
      Hashtbl.fold (fun digest _ acc -> digest :: acc) t.index [])
  |> List.sort String.compare

(* -- gc -- *)

type gc_stats = { kept : int; swept : int; packs_folded : int }

let gc t ~live =
  if t.deferred then invalid_arg "Store.gc: offline only (deferred store)";
  let kept, swept = List.partition live (list t) in
  let folded =
    Sys.readdir (pack_dir t)
    |> Array.to_list
    |> List.filter (fun name ->
           name <> "gc.pack" && Filename.check_suffix name ".pack")
  in
  (* Every live blob is read through [get], so a rotted one fails gc
     instead of being copied. gc.pack is durable before any pack goes. *)
  let buf = Buffer.create 65536 in
  List.iter (fun digest -> ignore (add_record buf digest (get t digest))) kept;
  Durable.replace (pack_dir t / "gc.pack") (Buffer.contents buf);
  List.iter (fun name -> Sys.remove (pack_dir t / name)) folded;
  Durable.fsync_dir (pack_dir t);
  index_packs t;
  Abg_obs.Obs.Counter.add obs_gc_swept (List.length swept);
  {
    kept = List.length kept;
    swept = List.length swept;
    packs_folded = List.length folded;
  }
