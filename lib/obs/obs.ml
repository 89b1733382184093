(** Low-overhead pipeline telemetry: sharded counters, gauges, duration
    histograms, and hierarchical span timers.

    The paper frames synthesis as noise-tolerant optimization, so the
    pipeline's health is quantitative — prune rates, cache hit ratios,
    early-abandon rates, pool utilization. This module gives those numbers
    one uniform home with two properties the hot paths need:

    {b No atomics on hot paths.} Every counter and float cell is sharded
    per domain: each domain owns a plain [int array]/[float array] slot
    (registered through [Domain.DLS] on first use), written with ordinary
    loads and stores. Shards are merged only at {!snapshot} time, under
    the registry mutex. A cell is written by exactly one domain, so there
    are no read-modify-write races and no contention — an increment is a
    DLS lookup, a bounds check and an array store.

    {b A global disable that costs one branch.} With [set_enabled false]
    every record operation is a single load-and-branch no-op; spans do
    not read the clock. The pipeline's *semantic* statistics (the prune
    counters behind [Refinement.result.pruned]) ride on this layer, so
    disabling telemetry also disables those — callers that need them
    keep telemetry on (the default).

    {b Determinism contract.} Counters registered without [~volatile]
    must count events whose totals are a pure function of the workload
    and seed — independent of domain count, scheduling, and timing. Their
    merged values are bit-stable across runs and machines, which is what
    the CI telemetry gate diffs. Scheduling-dependent counts (pool
    participation, job submissions that depend on machine parallelism)
    are registered [~volatile:true] and reported separately; durations
    and gauges are never part of the deterministic section. *)

(* -- Enabled flag -- *)

(* A plain bool ref read from every domain: immediate values cannot tear,
   and a stale read only delays the effect of a toggle by a few events,
   which toggling callers (benches, tests) do at quiescent points. *)
let enabled_flag = ref true
let enabled () = !enabled_flag
let set_enabled b = enabled_flag := b

(* -- Sharded cells --

   Cell ids are allocated process-wide (counters and histogram buckets
   share the int-cell space; float cells are separate). Each domain's
   shard holds one array per space, grown on demand; the registry keeps
   every shard ever created so counts survive domain termination (pool
   shutdown must not lose telemetry). *)

type shard = {
  slot : int;  (* registration order; stable for per-domain reporting *)
  mutable ints : int array;
  mutable floats : float array;
}

let registry_m = Mutex.create ()
let shards : shard list ref = ref []
let next_slot = ref 0
let n_int_cells = ref 0
let n_float_cells = ref 0

let shard_key =
  Domain.DLS.new_key (fun () ->
      Mutex.lock registry_m;
      let s =
        {
          slot = !next_slot;
          ints = Array.make (Stdlib.max 64 !n_int_cells) 0;
          floats = Array.make (Stdlib.max 16 !n_float_cells) 0.0;
        }
      in
      incr next_slot;
      shards := s :: !shards;
      Mutex.unlock registry_m;
      s)

(* Cells are almost always allocated at module-initialization time, before
   any parallel work, so growth after shards exist is rare; when it does
   happen the owner swaps in a grown copy, which a concurrent snapshot may
   miss by one event — snapshots are quiescent-point operations. *)
let int_add id n =
  let s = Domain.DLS.get shard_key in
  let a = s.ints in
  if id < Array.length a then a.(id) <- a.(id) + n
  else begin
    let a' = Array.make (Stdlib.max (id + 1) (2 * Array.length a)) 0 in
    Array.blit a 0 a' 0 (Array.length a);
    a'.(id) <- n;
    s.ints <- a'
  end

let float_add id v =
  let s = Domain.DLS.get shard_key in
  let a = s.floats in
  if id < Array.length a then a.(id) <- a.(id) +. v
  else begin
    let a' = Array.make (Stdlib.max (id + 1) (2 * Array.length a)) 0.0 in
    Array.blit a 0 a' 0 (Array.length a);
    a'.(id) <- v;
    s.floats <- a'
  end

(* Merged reads and resets: under the registry mutex so the shard list is
   stable; values written concurrently may lag by an in-flight event. *)
let int_sum id =
  Mutex.lock registry_m;
  let v =
    List.fold_left
      (fun acc s -> if id < Array.length s.ints then acc + s.ints.(id) else acc)
      0 !shards
  in
  Mutex.unlock registry_m;
  v

let float_sum id =
  Mutex.lock registry_m;
  let v =
    List.fold_left
      (fun acc s ->
        if id < Array.length s.floats then acc +. s.floats.(id) else acc)
      0.0 !shards
  in
  Mutex.unlock registry_m;
  v

let float_per_slot id =
  Mutex.lock registry_m;
  let v =
    List.filter_map
      (fun s ->
        if id < Array.length s.floats && s.floats.(id) <> 0.0 then
          Some (s.slot, s.floats.(id))
        else None)
      !shards
  in
  Mutex.unlock registry_m;
  List.sort compare v

let int_zero id =
  Mutex.lock registry_m;
  List.iter
    (fun s -> if id < Array.length s.ints then s.ints.(id) <- 0)
    !shards;
  Mutex.unlock registry_m

(* -- Instrument registries --

   [make] is idempotent by name: modules register their instruments at
   init time, and tests or re-entrant loads get the existing cell back
   rather than a fresh one (which would fork the count). *)

let alloc_int_cell () =
  Mutex.lock registry_m;
  let id = !n_int_cells in
  incr n_int_cells;
  Mutex.unlock registry_m;
  id

let alloc_float_cell () =
  Mutex.lock registry_m;
  let id = !n_float_cells in
  incr n_float_cells;
  Mutex.unlock registry_m;
  id

module Counter = struct
  type t = { name : string; id : int; volatile : bool }

  let registered : (string, t) Hashtbl.t = Hashtbl.create 64
  let registered_m = Mutex.create ()

  let make ?(volatile = false) name =
    Mutex.lock registered_m;
    let t =
      match Hashtbl.find_opt registered name with
      | Some t -> t
      | None ->
          let t = { name; id = alloc_int_cell (); volatile } in
          Hashtbl.add registered name t;
          t
    in
    Mutex.unlock registered_m;
    t

  let add t n = if !enabled_flag && n <> 0 then int_add t.id n
  let incr t = add t 1
  let value t = int_sum t.id
  let name t = t.name
  let reset t = int_zero t.id

  let all () =
    Mutex.lock registered_m;
    let l = Hashtbl.fold (fun _ t acc -> t :: acc) registered [] in
    Mutex.unlock registered_m;
    List.sort (fun a b -> compare a.name b.name) l
end

module Gauge = struct
  (* Last-writer-wins scalar, set at quiescent points (store sizes, pool
     width); not sharded — a sum across domains has no meaning for a
     level. *)
  type t = { name : string; mutable v : float }

  let registered : (string, t) Hashtbl.t = Hashtbl.create 16
  let registered_m = Mutex.create ()

  let make name =
    Mutex.lock registered_m;
    let t =
      match Hashtbl.find_opt registered name with
      | Some t -> t
      | None ->
          let t = { name; v = 0.0 } in
          Hashtbl.add registered name t;
          t
    in
    Mutex.unlock registered_m;
    t

  let set t v = if !enabled_flag then t.v <- v
  let value t = t.v
  let name t = t.name

  let all () =
    Mutex.lock registered_m;
    let l = Hashtbl.fold (fun _ t acc -> t :: acc) registered [] in
    Mutex.unlock registered_m;
    List.sort (fun a b -> compare a.name b.name) l
end

module Histogram = struct
  (* Power-of-two buckets: bucket [b] holds values [v] with
     [2^(b-1) <= v < 2^b] (bucket 0 holds v < 1, the top bucket is
     open-ended). The bucket index is the binary exponent from [frexp] —
     no logarithm, no search. One int cell per bucket per domain, plus a
     float cell for the exact sum. *)
  let buckets = 48

  type t = {
    name : string;
    base : int;  (* first of [buckets] consecutive int cells *)
    sum_id : int;  (* float cell: exact sum of observed values *)
  }

  let registered : (string, t) Hashtbl.t = Hashtbl.create 32
  let registered_m = Mutex.create ()

  let make name =
    Mutex.lock registered_m;
    let t =
      match Hashtbl.find_opt registered name with
      | Some t -> t
      | None ->
          Mutex.lock registry_m;
          let base = !n_int_cells in
          n_int_cells := !n_int_cells + buckets;
          Mutex.unlock registry_m;
          let t = { name; base; sum_id = alloc_float_cell () } in
          Hashtbl.add registered name t;
          t
    in
    Mutex.unlock registered_m;
    t

  let bucket_of v =
    if not (v >= 1.0) then 0 (* also catches nan and negatives *)
    else if not (Float.is_finite v) then buckets - 1
      (* frexp's exponent is unspecified for infinities *)
    else
      let e = snd (Float.frexp v) in
      if e >= buckets then buckets - 1 else e

  (** Lower bound of bucket [b] (inclusive); [bucket_of v = b] implies
      [lower_bound b <= v < lower_bound (b + 1)] for interior buckets. *)
  let lower_bound b = if b = 0 then 0.0 else Float.ldexp 1.0 (b - 1)

  let observe t v =
    if !enabled_flag then begin
      int_add (t.base + bucket_of v) 1;
      float_add t.sum_id v
    end

  type summary = { count : int; sum : float; nonzero : (int * int) list }

  let summary t =
    let nonzero = ref [] in
    let count = ref 0 in
    for b = buckets - 1 downto 0 do
      let n = int_sum (t.base + b) in
      if n > 0 then begin
        nonzero := (b, n) :: !nonzero;
        count := !count + n
      end
    done;
    { count = !count; sum = float_sum t.sum_id; nonzero = !nonzero }

  (* Quantile estimate from the power-of-two buckets: walk the
     cumulative counts to the target rank, then interpolate linearly
     within the bucket (the top, open-ended bucket reports its lower
     bound). Resolution is a factor of two — fine for the latency
     summaries the serve daemon prints on drain; exact percentiles come
     from raw samples (the serve bench keeps its own). *)
  let quantile s q =
    if s.count = 0 then 0.0
    else begin
      let target =
        Stdlib.max 1
          (int_of_float (Float.round (q *. float_of_int s.count)))
      in
      let rec walk cum = function
        | [] -> 0.0
        | (b, n) :: rest ->
            if cum + n >= target then begin
              let lb = lower_bound b in
              if b >= buckets - 1 then lb
              else begin
                let ub = lower_bound (b + 1) in
                let frac = float_of_int (target - cum) /. float_of_int n in
                lb +. (frac *. (ub -. lb))
              end
            end
            else walk (cum + n) rest
      in
      walk 0 s.nonzero
    end

  let name t = t.name

  let all () =
    Mutex.lock registered_m;
    let l = Hashtbl.fold (fun _ t acc -> t :: acc) registered [] in
    Mutex.unlock registered_m;
    List.sort (fun a b -> compare a.name b.name) l
end

module Floatcell = struct
  (* Sharded float accumulator (per-domain busy time): each domain adds
     into its own cell; reporting offers both the total and the per-slot
     breakdown (slot = shard registration order). *)
  type t = { name : string; id : int }

  let registered : (string, t) Hashtbl.t = Hashtbl.create 16
  let registered_m = Mutex.create ()

  let make name =
    Mutex.lock registered_m;
    let t =
      match Hashtbl.find_opt registered name with
      | Some t -> t
      | None ->
          let t = { name; id = alloc_float_cell () } in
          Hashtbl.add registered name t;
          t
    in
    Mutex.unlock registered_m;
    t

  let add t v = if !enabled_flag then float_add t.id v
  let total t = float_sum t.id
  let per_domain t = float_per_slot t.id
  let name t = t.name

  let all () =
    Mutex.lock registered_m;
    let l = Hashtbl.fold (fun _ t acc -> t :: acc) registered [] in
    Mutex.unlock registered_m;
    List.sort (fun a b -> compare a.name b.name) l
end

(* -- Span timers --

   Hierarchical phase timing: [span "refine" f] records the duration of
   [f] into the histogram ["span/<path>"], where the path joins the names
   of the enclosing spans *on this domain* (each domain has its own span
   stack, so pool workers time their own phases without cross-talk). *)

let now_ns () = Unix.gettimeofday () *. 1e9

let span_stack_key : string list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let span name f =
  if not !enabled_flag then f ()
  else begin
    let stack = Domain.DLS.get span_stack_key in
    let path =
      match !stack with [] -> name | parent :: _ -> parent ^ "/" ^ name
    in
    let h = Histogram.make ("span/" ^ path) in
    stack := path :: !stack;
    let t0 = now_ns () in
    Fun.protect
      ~finally:(fun () ->
        (match !stack with [] -> () | _ :: rest -> stack := rest);
        Histogram.observe h (now_ns () -. t0))
      f
  end

(* -- Snapshot -- *)

type snapshot = {
  counters : (string * int) list;
  volatile : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * Histogram.summary) list;
  floatcells : (string * float * (int * float) list) list;
      (** (name, total, per-domain-slot breakdown) *)
}

let snapshot () =
  let counters, volatile =
    List.partition
      (fun (c : Counter.t) -> not c.Counter.volatile)
      (Counter.all ())
  in
  let read = List.map (fun c -> (Counter.name c, Counter.value c)) in
  {
    counters = read counters;
    volatile = read volatile;
    gauges = List.map (fun g -> (Gauge.name g, Gauge.value g)) (Gauge.all ());
    histograms =
      List.map (fun h -> (Histogram.name h, Histogram.summary h)) (Histogram.all ());
    floatcells =
      List.map
        (fun f -> (Floatcell.name f, Floatcell.total f, Floatcell.per_domain f))
        (Floatcell.all ());
  }

(** [delta_counters ~before ~after] — per-counter increments between two
    snapshots (deterministic section only), dropping zero deltas.
    Counters registered after [before] was taken count from zero. This
    is the per-job telemetry scoping the batch runner uses: snapshot
    around a job and the delta is that job's footprint — exact under
    serial dispatch; under concurrent dispatch overlapping jobs'
    work lands in whichever enclosing delta observes it. *)
let delta_counters ~before ~after =
  let base = before.counters in
  List.filter_map
    (fun (name, v) ->
      let prior =
        match List.assoc_opt name base with Some p -> p | None -> 0
      in
      if v = prior then None else Some (name, v - prior))
    after.counters

(** Zero every registered instrument (tests). Gauges reset to 0. *)
let reset () =
  List.iter Counter.reset (Counter.all ());
  List.iter (fun (g : Gauge.t) -> g.Gauge.v <- 0.0) (Gauge.all ());
  List.iter
    (fun (h : Histogram.t) ->
      for b = 0 to Histogram.buckets - 1 do
        int_zero (h.Histogram.base + b)
      done;
      Mutex.lock registry_m;
      List.iter
        (fun s ->
          if h.Histogram.sum_id < Array.length s.floats then
            s.floats.(h.Histogram.sum_id) <- 0.0)
        !shards;
      Mutex.unlock registry_m)
    (Histogram.all ());
  List.iter
    (fun (f : Floatcell.t) ->
      Mutex.lock registry_m;
      List.iter
        (fun s ->
          if f.Floatcell.id < Array.length s.floats then
            s.floats.(f.Floatcell.id) <- 0.0)
        !shards;
      Mutex.unlock registry_m)
    (Floatcell.all ())
