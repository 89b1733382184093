(* The one JSON codec. See json.mli for the output contract. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Malformed of string

(* -- Writers -- *)

let add_quoted buf s =
  Buffer.add_char buf '"';
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let add_number buf f =
  if Float.is_finite f then G17.add buf f
  else if Float.is_nan f then Buffer.add_string buf "\"nan\""
  else if f > 0.0 then Buffer.add_string buf "\"inf\""
  else Buffer.add_string buf "\"-inf\""

(* [pretty] puts each member or element on its own line, indented two
   spaces per level; otherwise nothing separates tokens but ',' and ':'. *)
let render ~pretty json =
  let buf = Buffer.create 256 in
  let rec emit pad = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num f -> add_number buf f
    | Str s -> add_quoted buf s
    | List [] -> Buffer.add_string buf "[]"
    | Obj [] -> Buffer.add_string buf "{}"
    | List items -> container pad '[' ']' emit items
    | Obj fields ->
        container pad '{' '}'
          (fun pad (k, v) ->
            add_quoted buf k;
            Buffer.add_string buf (if pretty then ": " else ":");
            emit pad v)
          fields
  and container : 'a. string -> char -> char -> (string -> 'a -> unit) -> 'a list -> unit =
   fun pad opening closing item items ->
    let inner = if pretty then pad ^ "  " else pad in
    Buffer.add_char buf opening;
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        if pretty then begin
          Buffer.add_char buf '\n';
          Buffer.add_string buf inner
        end;
        item inner x)
      items;
    if pretty then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf pad
    end;
    Buffer.add_char buf closing
  in
  emit "" json;
  Buffer.contents buf

let to_string = render ~pretty:false
let to_string_indented = render ~pretty:true

(* -- Reader -- *)

let parse (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Malformed (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    String.iter expect word;
    v
  in
  let string_body () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | None -> fail "unterminated escape"
          | Some c ->
              advance ();
              (match c with
              | '"' -> Buffer.add_char buf '"'
              | '\\' -> Buffer.add_char buf '\\'
              | '/' -> Buffer.add_char buf '/'
              | 'b' -> Buffer.add_char buf '\b'
              | 'f' -> Buffer.add_char buf '\012'
              | 'n' -> Buffer.add_char buf '\n'
              | 'r' -> Buffer.add_char buf '\r'
              | 't' -> Buffer.add_char buf '\t'
              | 'u' ->
                  if !pos + 4 > n then fail "truncated \\u escape";
                  let hex = String.sub s !pos 4 in
                  pos := !pos + 4;
                  let code =
                    try int_of_string ("0x" ^ hex)
                    with _ -> fail "bad \\u escape"
                  in
                  Buffer.add_char buf
                    (if code < 0x100 then Char.chr code else '?')
              | _ -> fail "bad escape");
              go ())
      | Some c ->
          advance ();
          Buffer.add_char buf c;
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    match float_of_string_opt tok with
    | Some v -> v
    | None -> fail (Printf.sprintf "bad number %S" tok)
  in
  (* Members and elements: [item] parses one, then ',' continues and
     [closing] ends the sequence. *)
  let sequence closing item =
    advance ();
    skip_ws ();
    if peek () = Some closing then begin
      advance ();
      []
    end
    else begin
      let acc = ref [] in
      let rec loop () =
        acc := item () :: !acc;
        skip_ws ();
        match peek () with
        | Some ',' ->
            advance ();
            loop ()
        | Some c when c = closing -> advance ()
        | _ -> fail (Printf.sprintf "expected ',' or '%c'" closing)
      in
      loop ();
      List.rev !acc
    end
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        Obj
          (sequence '}' (fun () ->
               skip_ws ();
               let k = string_body () in
               skip_ws ();
               expect ':';
               (k, value ())))
    | Some '[' -> List (sequence ']' value)
    | Some '"' -> Str (string_body ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (number ())
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing content";
  v

(* An open error names the path, a read error (the path is a directory,
   say) does not: it gets the path here. *)
let of_file path =
  parse
    (In_channel.with_open_bin path (fun ic ->
         try In_channel.input_all ic
         with Sys_error msg -> raise (Sys_error (path ^ ": " ^ msg))))

let naming path f =
  try f () with Malformed msg -> raise (Malformed (path ^ ": " ^ msg))

(* -- Accessors -- *)

let hex f = Str (Printf.sprintf "%h" f)

let hex_float = function
  | Str s -> (
      try float_of_string s
      with Failure _ -> raise (Malformed ("not a hex float: " ^ s)))
  | _ -> raise (Malformed "hex float field is not a string")

let member_opt key = function
  | Obj members -> List.assoc_opt key members
  | _ -> None

let member ~ctx key json =
  match member_opt key json with
  | Some v -> v
  | None -> raise (Malformed (ctx ^ ": missing field " ^ key))

let str ~ctx = function
  | Str s -> s
  | _ -> raise (Malformed (ctx ^ ": expected string"))

let int ~ctx = function
  | Num f when Float.is_integer f -> int_of_float f
  | _ -> raise (Malformed (ctx ^ ": expected integer"))

let list ~ctx = function
  | List items -> items
  | _ -> raise (Malformed (ctx ^ ": expected list"))
