(* See pool.mli for the contract. *)

(* Participants in a job, the calling domain included. *)
let default_domains () = Stdlib.max 1 (Domain.recommended_domain_count ())

(* Telemetry. Whether a map runs through the pool at all depends on the
   machine (sequential fallback below), and how many workers join a job
   before its items run out depends on scheduling — so every pool counter
   is volatile (excluded from the deterministic report section). Busy
   time is a sharded float cell: each participant accumulates into its
   own domain's slot. [pool.workers] is the global pool's size: explicit
   pools leave it alone. *)
let obs_jobs = Abg_obs.Obs.Counter.make ~volatile:true "pool.jobs"
let obs_items = Abg_obs.Obs.Counter.make ~volatile:true "pool.items"

let obs_participations =
  Abg_obs.Obs.Counter.make ~volatile:true "pool.participations"

let obs_sequential =
  Abg_obs.Obs.Counter.make ~volatile:true "pool.sequential_maps"

let obs_workers = Abg_obs.Obs.Gauge.make "pool.workers"
let obs_busy = Abg_obs.Obs.Floatcell.make "pool.busy_s"
let obs_job_items = Abg_obs.Obs.Histogram.make "pool.job_items"

let obs_background =
  Abg_obs.Obs.Counter.make ~volatile:true "pool.background_tasks"

let obs_background_failures =
  Abg_obs.Obs.Counter.make ~volatile:true "pool.background_failures"

type job = {
  run : int -> unit;
  n : int;
  next : int Atomic.t;  (* next unclaimed item index *)
  left : int Atomic.t;  (* items not yet completed *)
  active : int;  (* participation cap, caller included *)
  participants : int Atomic.t;
  mutable exn : exn option;  (* first exception, re-raised by the caller *)
}

type t = {
  mutable workers : unit Domain.t array;
  m : Mutex.t;
  cv : Condition.t;  (* new job submitted, background task queued, or shutdown *)
  done_cv : Condition.t;  (* job completed its last item, or bg task finished *)
  mutable job : job option;
  mutable generation : int;  (* bumped per submitted job *)
  mutable stop : bool;
  (* Background lane: low-priority tasks (the serve daemon's escalated
     synthesis jobs) that idle workers pick up only when no foreground
     job wants them. Foreground maps always win the wakeup check, and at
     least one worker slot is kept clear of background work on pools of
     two or more, so a foreground map is never starved behind a long
     synthesis. *)
  bg : (unit -> unit) Queue.t;
  mutable bg_active : int;  (* background tasks currently running *)
  bg_cap : int;  (* max concurrent background tasks: max 1 (size - 1) *)
}

(* Claim and run items until none remain. Any participant may run any
   item; the last one to finish wakes the submitter. *)
let work t job =
  let tracking = Abg_obs.Obs.enabled () in
  let t0 = if tracking then Unix.gettimeofday () else 0.0 in
  let executed = ref 0 in
  let continue = ref true in
  while !continue do
    let i = Atomic.fetch_and_add job.next 1 in
    if i >= job.n then continue := false
    else begin
      incr executed;
      (try job.run i
       with e ->
         Mutex.lock t.m;
         if job.exn = None then job.exn <- Some e;
         Mutex.unlock t.m);
      if Atomic.fetch_and_add job.left (-1) = 1 then begin
        Mutex.lock t.m;
        Condition.broadcast t.done_cv;
        Mutex.unlock t.m
      end
    end
  done;
  if tracking then begin
    Abg_obs.Obs.Counter.add obs_items !executed;
    if !executed > 0 then begin
      Abg_obs.Obs.Counter.incr obs_participations;
      Abg_obs.Obs.Floatcell.add obs_busy (Unix.gettimeofday () -. t0)
    end
  end

(* Run one already-claimed background task (caller incremented
   [bg_active] under the lock and released it). Exceptions are swallowed
   into a counter: a failed escalation must not take a worker down. *)
let run_background_task t task =
  Abg_obs.Obs.Counter.incr obs_background;
  (try task ()
   with _ -> Abg_obs.Obs.Counter.incr obs_background_failures);
  Mutex.lock t.m;
  t.bg_active <- t.bg_active - 1;
  Condition.broadcast t.done_cv;
  Mutex.unlock t.m

let worker_loop t () =
  let last_gen = ref 0 in
  let continue = ref true in
  while !continue do
    Mutex.lock t.m;
    while
      (not t.stop)
      && (t.job = None || t.generation = !last_gen)
      && (Queue.is_empty t.bg || t.bg_active >= t.bg_cap)
    do
      Condition.wait t.cv t.m
    done;
    if t.stop then begin
      Mutex.unlock t.m;
      continue := false
    end
    else if t.job <> None && t.generation <> !last_gen then begin
      let job = Option.get t.job in
      last_gen := t.generation;
      Mutex.unlock t.m;
      (* Honor the job's participation cap (?num_domains): claim one of
         the [active] slots or sit this job out. *)
      if Atomic.fetch_and_add job.participants 1 < job.active then work t job
    end
    else begin
      let task = Queue.pop t.bg in
      t.bg_active <- t.bg_active + 1;
      Mutex.unlock t.m;
      run_background_task t task
    end
  done

let create ?size () =
  let size =
    match size with
    | Some s -> Stdlib.max 0 s
    | None -> Stdlib.max 0 (default_domains () - 1)
  in
  let t =
    {
      workers = [||];
      m = Mutex.create ();
      cv = Condition.create ();
      done_cv = Condition.create ();
      job = None;
      generation = 0;
      stop = false;
      bg = Queue.create ();
      bg_active = 0;
      bg_cap = Stdlib.max 1 (size - 1);
    }
  in
  t.workers <- Array.init size (fun _ -> Domain.spawn (worker_loop t));
  t

let shutdown t =
  Mutex.lock t.m;
  t.stop <- true;
  Condition.broadcast t.cv;
  Mutex.unlock t.m;
  Array.iter Domain.join t.workers;
  t.workers <- [||]

let size t = Array.length t.workers

(* Submit a job, participate, wait for the last item, re-raise the first
   worker exception. Submitting from inside a running job's [f] is safe
   (the inner submitter participates in its own job, so it always makes
   progress), though such jobs share the worker pool. *)
let run_job t ~active ~n ~body =
  Abg_obs.Obs.Counter.incr obs_jobs;
  Abg_obs.Obs.Histogram.observe obs_job_items (float_of_int n);
  Mutex.lock t.m;
  let job =
    {
      run = body;
      n;
      next = Atomic.make 0;
      left = Atomic.make n;
      active;
      participants = Atomic.make 1 (* the caller *);
      exn = None;
    }
  in
  t.job <- Some job;
  t.generation <- t.generation + 1;
  Condition.broadcast t.cv;
  Mutex.unlock t.m;
  work t job;
  Mutex.lock t.m;
  while Atomic.get job.left > 0 do
    Condition.wait t.done_cv t.m
  done;
  (match t.job with Some j when j == job -> t.job <- None | _ -> ());
  Mutex.unlock t.m;
  match job.exn with Some e -> raise e | None -> ()

(* The global pool behind [map] and [background]: created on first use,
   torn down at exit. *)
let global_pool = ref None
let global_m = Mutex.create ()

let global () =
  Mutex.lock global_m;
  let t =
    match !global_pool with
    | Some t -> t
    | None ->
        let t = create () in
        Abg_obs.Obs.Gauge.set obs_workers (float_of_int (size t));
        at_exit (fun () -> shutdown t);
        global_pool := Some t;
        t
  in
  Mutex.unlock global_m;
  t

let map ?pool ?num_domains f xs =
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
    let t = match pool with Some t -> t | None -> global () in
    let out = Array.make n None in
    run_job t ~active:(Stdlib.min domains n) ~n
      ~body:(fun i -> out.(i) <- Some (f xs.(i)));
    Array.map
      (function Some v -> v | None -> invalid_arg "Pool.map: missing result")
      out
  end

let background ?pool task =
  let t = match pool with Some t -> t | None -> global () in
  Mutex.lock t.m;
  Queue.push task t.bg;
  Condition.broadcast t.cv;
  Mutex.unlock t.m

let drain_background ?pool () =
  let t_opt =
    match pool with
    | Some t -> Some t
    | None ->
        Mutex.lock global_m;
        let r = !global_pool in
        Mutex.unlock global_m;
        r
  in
  match t_opt with
  | None -> ()
  | Some t ->
      let continue = ref true in
      while !continue do
        Mutex.lock t.m;
        match Queue.take_opt t.bg with
        | Some task ->
            t.bg_active <- t.bg_active + 1;
            Mutex.unlock t.m;
            run_background_task t task
        | None ->
            if t.bg_active = 0 then begin
              Mutex.unlock t.m;
              continue := false
            end
            else begin
              Condition.wait t.done_cv t.m;
              Mutex.unlock t.m
            end
      done
