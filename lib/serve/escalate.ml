(** Escalation of unmatched flows to background synthesis.

    When the online classifier returns "Unknown", the flow's window is a
    CCA behavior the reference set cannot name — exactly the input the
    synthesis pipeline exists for. Escalation queues the materialized
    window trace for one escalation domain, so synthesis (seconds to
    minutes) never blocks the serving event loop. That domain runs the
    queue in FIFO order, one escalation at a time, and exits when the
    queue is empty: a daemon with nothing to escalate keeps no domain
    but its own.

    The runner is injected: the daemon wires in real synthesis
    ({!Abg_core.Synthesis.run} behind a closure, keeping this library
    free of the heavyweight core dependency), tests wire in a recorder.
    Escalations are deduplicated by trace digest — a flow re-classified
    every few seconds must not resynthesize an unchanged window — and
    capped by a pending budget so a flood of unknowns degrades to
    dropped escalations, not an unbounded queue. *)

let obs_submitted = Abg_obs.Obs.Counter.make "serve.escalations"
let obs_deduped = Abg_obs.Obs.Counter.make "serve.escalations_deduped"

let obs_dropped =
  Abg_obs.Obs.Counter.make ~volatile:true "serve.escalations_dropped"

let obs_failed =
  Abg_obs.Obs.Counter.make ~volatile:true "serve.escalations_failed"

type t = {
  runner : sid:string -> Abg_trace.Trace.t -> unit;
  max_pending : int;
  seen : (string, unit) Hashtbl.t;  (* trace digests already escalated *)
  m : Mutex.t;  (* guards the fields below *)
  queue : (string * Abg_trace.Trace.t) Queue.t;
  mutable pending : int;  (* submitted, not yet finished *)
  mutable running : bool;  (* the escalation domain is taking tasks *)
  mutable domain : unit Domain.t option;  (* the latest, not yet joined *)
}

let create ?(max_pending = 64) runner =
  { runner; max_pending; seen = Hashtbl.create 64; m = Mutex.create ();
    queue = Queue.create (); pending = 0; running = false; domain = None }

(* The escalation domain's body. It clears [running] under the mutex
   that [submit] checks, so a task queued after that spawns a new
   domain instead of waiting on one that is leaving. A runner that
   raises is counted, and the next escalation still runs. *)
let rec run_queue t =
  let next =
    Mutex.protect t.m (fun () ->
        let next = Queue.take_opt t.queue in
        if Option.is_none next then t.running <- false;
        next)
  in
  match next with
  | None -> ()
  | Some (sid, trace) ->
      (try t.runner ~sid trace
       with _ -> Abg_obs.Obs.Counter.incr obs_failed);
      Mutex.protect t.m (fun () -> t.pending <- t.pending - 1);
      run_queue t

type outcome = Submitted | Duplicate | Dropped

(** [submit t ~sid trace] queues background synthesis of [trace] unless
    an identical trace was already escalated ([Duplicate]) or the
    pending budget is exhausted ([Dropped]), and starts the escalation
    domain if none is running. Call from one thread. *)
let submit t ~sid trace =
  let digest = Digest.string (Abg_trace.Io.to_string trace) in
  if Hashtbl.mem t.seen digest then begin
    Abg_obs.Obs.Counter.incr obs_deduped;
    Duplicate
  end
  else begin
    let accepted =
      Mutex.protect t.m @@ fun () ->
      if t.pending >= t.max_pending then false
      else begin
        Queue.push (sid, trace) t.queue;
        t.pending <- t.pending + 1;
        if not t.running then begin
          (* The previous domain has cleared [running]: it is finished. *)
          Option.iter Domain.join t.domain;
          t.domain <- Some (Domain.spawn (fun () -> run_queue t));
          t.running <- true
        end;
        true
      end
    in
    if accepted then begin
      Hashtbl.replace t.seen digest ();
      Abg_obs.Obs.Counter.incr obs_submitted;
      Submitted
    end
    else begin
      Abg_obs.Obs.Counter.incr obs_dropped;
      Dropped
    end
  end

let pending t = Mutex.protect t.m (fun () -> t.pending)

(** [drain t] — wait until every submitted escalation has run (the
    graceful shutdown barrier): join the escalation domain, which exits
    once the queue is empty. *)
let drain t =
  Option.iter Domain.join
    (Mutex.protect t.m (fun () ->
         let d = t.domain in
         t.domain <- None;
         d))
