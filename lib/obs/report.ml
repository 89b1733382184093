(** Machine-readable telemetry reports.

    Serializes an {!Obs.snapshot} to a stable JSON document: object keys
    appear in sorted order, and the ["counters"] section contains only
    the deterministic counters — so for a fixed seed two runs produce
    byte-identical ["counters"] sections, and CI can diff that section
    against a committed baseline with no tolerance.

    The module also carries {!diff_counters}, the comparison the
    [telemetry-gate] CI job runs. Reading and writing go through
    {!Abg_util.Json}. *)

open Abg_util

let schema = "abagnale-telemetry/1"

let ints kvs = Json.Obj (List.map (fun (k, v) -> (k, Json.Num (float_of_int v))) kvs)
let floats kvs = Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) kvs)

let document (s : Obs.snapshot) =
  let histogram (sum : Obs.Histogram.summary) =
    Json.Obj
      [
        ("count", Json.Num (float_of_int sum.Obs.Histogram.count));
        ("sum", Json.Num sum.Obs.Histogram.sum);
        ( "buckets",
          ints
            (List.map
               (fun (bk, n) -> (string_of_int bk, n))
               sum.Obs.Histogram.nonzero) );
      ]
  in
  let floatcell total per_domain =
    floats
      (("total", total)
      :: List.map (fun (slot, v) -> ("domain" ^ string_of_int slot, v)) per_domain)
  in
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("counters", ints s.Obs.counters);
      ("volatile", ints s.Obs.volatile);
      ("gauges", floats s.Obs.gauges);
      ( "histograms",
        Json.Obj (List.map (fun (k, sum) -> (k, histogram sum)) s.Obs.histograms) );
      ( "floatcells",
        Json.Obj
          (List.map
             (fun (k, total, per_domain) -> (k, floatcell total per_domain))
             s.Obs.floatcells) );
    ]

let to_json s = Json.to_string_indented (document s) ^ "\n"

(** [write path] serializes a fresh snapshot to [path]. *)
let write path =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (to_json (Obs.snapshot ())))

(** The ["counters"] section of a telemetry document, as written — the
    deterministic subset a CI gate may diff. *)
let counters_of_json (j : Json.t) =
  match Json.member_opt "counters" j with
  | Some (Json.Obj members) ->
      List.map
        (fun (k, v) ->
          match v with
          | Json.Num f when Float.is_integer f -> (k, int_of_float f)
          | _ -> raise (Json.Malformed ("non-integer counter " ^ k)))
        members
  | _ -> raise (Json.Malformed "missing \"counters\" object")

type drift =
  | Missing of string * int  (** in baseline, absent from current *)
  | Unexpected of string * int  (** in current, absent from baseline *)
  | Changed of string * int * int  (** (name, baseline, current) *)

let pp_drift = function
  | Missing (k, v) -> Printf.sprintf "missing   %-40s baseline %d, now absent" k v
  | Unexpected (k, v) -> Printf.sprintf "unexpected %-40s absent from baseline, now %d" k v
  | Changed (k, b, c) -> Printf.sprintf "changed   %-40s baseline %d -> %d" k b c

(** [diff_counters ~baseline ~current] compares two counter sections (as
    {!counters_of_json} reads them). Returns every drift, sorted by
    counter name; [[]] means the sections agree exactly (same keys, same
    values). *)
let diff_counters ~baseline:b ~current:c =
  let drifts = ref [] in
  List.iter
    (fun (k, bv) ->
      match List.assoc_opt k c with
      | None -> drifts := Missing (k, bv) :: !drifts
      | Some cv -> if cv <> bv then drifts := Changed (k, bv, cv) :: !drifts)
    b;
  List.iter
    (fun (k, cv) ->
      if not (List.mem_assoc k b) then drifts := Unexpected (k, cv) :: !drifts)
    c;
  List.sort
    (fun a b ->
      let key = function
        | Missing (k, _) | Unexpected (k, _) | Changed (k, _, _) -> k
      in
      compare (key a) (key b))
    !drifts

(** Convenience for report consumers: the value of one deterministic
    counter in a snapshot, 0 when absent. *)
let find_counter (s : Obs.snapshot) name =
  match List.assoc_opt name s.Obs.counters with Some v -> v | None -> 0
