(** The one JSON codec: every JSON document the project reads or writes —
    job grids and digests, journals, result blobs, fuzz specs and
    reports, serve verdicts, lint output, telemetry, bench estimates —
    goes through this module.

    Output is a pure function of the value: object keys keep the
    caller's order, and there is one escaper and one number rule.
    Finite numbers print as [%.17g] ({!G17}; integers below 1e17 come out as
    plain integers, and every finite double round-trips); non-finite
    ones print as the strings ["inf"], ["-inf"] and ["nan"], since JSON
    has no literal for them. Values that must stay bit-exact even
    through other JSON readers travel as hex-notation strings
    ({!hex}/{!hex_float}). The compact writer's bytes are what job
    digests and store keys hash, so a change to them renames every job. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Malformed of string
(** Raised by {!parse} and {!of_file} (the message names the byte
    offset) and by the accessors below on shape mismatches (the message
    names the field). *)

val to_string : t -> string
(** Compact rendering: no whitespace, no trailing newline. *)

val to_string_indented : t -> string
(** Two-space indented rendering: one member or element per line, empty
    containers as [{}]/[[]], no trailing newline. *)

val parse : string -> t
(** The full JSON grammar. Object member order is preserved; a [\uXXXX]
    escape decodes to one byte when below 0x100 and to ['?'] otherwise. *)

val of_file : string -> t
(** [parse] the whole file. A [Sys_error] it raises names [path]. *)

val naming : string -> (unit -> 'a) -> 'a
(** [naming path f] is [f ()], with ["path: "] put before the message of
    a {!Malformed} it raises: the one way a parse error names its file. *)

val hex : float -> t
(** A float as a bit-exact hex-notation JSON string (["0x1.8p+3"]). *)

val hex_float : t -> float
(** Inverse of {!hex}. *)

(** Accessors; all raise {!Malformed} with [ctx] in the message. *)

val member : ctx:string -> string -> t -> t
val member_opt : string -> t -> t option
val str : ctx:string -> t -> string
val int : ctx:string -> t -> int
val list : ctx:string -> t -> t list
