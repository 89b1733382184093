(* See pool.mli for the contract. *)

(* Participants in a map, the calling domain included. *)
let default_domains () = Stdlib.max 1 (Domain.recommended_domain_count ())

(* Telemetry. Whether a map runs in parallel at all depends on the
   machine (sequential fallback below), and how many items each
   participant claims depends on scheduling — so every pool counter is
   volatile (excluded from the deterministic report section). Busy time
   is a sharded float cell: each participant accumulates into its own
   domain's slot. [pool.workers] is the helper count of the last
   parallel map. *)
let obs_jobs = Abg_obs.Obs.Counter.make ~volatile:true "pool.jobs"
let obs_items = Abg_obs.Obs.Counter.make ~volatile:true "pool.items"

let obs_participations =
  Abg_obs.Obs.Counter.make ~volatile:true "pool.participations"

let obs_sequential =
  Abg_obs.Obs.Counter.make ~volatile:true "pool.sequential_maps"

let obs_workers = Abg_obs.Obs.Gauge.make "pool.workers"
let obs_busy = Abg_obs.Obs.Floatcell.make "pool.busy_s"
let obs_job_items = Abg_obs.Obs.Histogram.make "pool.job_items"

(* Claim and run items until none remain; the first exception wins. *)
let work ~next ~n ~failure run () =
  let tracking = Abg_obs.Obs.enabled () in
  let t0 = if tracking then Unix.gettimeofday () else 0.0 in
  let executed = ref 0 in
  let continue = ref true in
  while !continue do
    let i = Atomic.fetch_and_add next 1 in
    if i >= n then continue := false
    else begin
      incr executed;
      try run i
      with e -> ignore (Atomic.compare_and_set failure None (Some e))
    end
  done;
  if tracking then begin
    Abg_obs.Obs.Counter.add obs_items !executed;
    if !executed > 0 then begin
      Abg_obs.Obs.Counter.incr obs_participations;
      Abg_obs.Obs.Floatcell.add obs_busy (Unix.gettimeofday () -. t0)
    end
  end

let map ?num_domains f xs =
  let n = Array.length xs in
  let domains =
    match num_domains with
    | Some d -> Stdlib.max 1 d
    | None -> default_domains ()
  in
  if n = 0 then [||]
  else if domains = 1 || n < 4 then begin
    Abg_obs.Obs.Counter.incr obs_sequential;
    Array.map f xs
  end
  else begin
    let helpers = Stdlib.min domains n - 1 in
    Abg_obs.Obs.Counter.incr obs_jobs;
    Abg_obs.Obs.Histogram.observe obs_job_items (float_of_int n);
    Abg_obs.Obs.Gauge.set obs_workers (float_of_int helpers);
    let out = Array.make n None in
    let failure = Atomic.make None in
    let work =
      work ~next:(Atomic.make 0) ~n ~failure (fun i -> out.(i) <- Some (f xs.(i)))
    in
    (* Should a spawn fail, the helpers already running finish every
       item, and the join still precedes the raise. *)
    let spawned = ref [] in
    Fun.protect
      ~finally:(fun () -> List.iter Domain.join !spawned)
      (fun () ->
        for _ = 1 to helpers do
          spawned := Domain.spawn work :: !spawned
        done;
        work ());
    match Atomic.get failure with
    | Some e -> raise e
    | None ->
        Array.map
          (function Some v -> v | None -> invalid_arg "Pool.map: missing result")
          out
  end
