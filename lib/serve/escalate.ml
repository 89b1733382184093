(** Escalation of unmatched flows to background synthesis.

    When the online classifier returns "Unknown", the flow's window is a
    CCA behavior the reference set cannot name — exactly the input the
    synthesis pipeline exists for. Escalation hands the materialized
    window trace to a background task on the domain pool's low-priority
    lane ({!Abg_parallel.Pool.background}), so synthesis (seconds to
    minutes) never blocks the serving event loop and never starves
    foreground classification work.

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

type t = {
  runner : sid:string -> Abg_trace.Trace.t -> unit;
  pool : Abg_parallel.Pool.t option;  (* None: the global pool *)
  max_pending : int;
  seen : (string, unit) Hashtbl.t;  (* trace digests already escalated *)
  pending : int Atomic.t;  (* submitted, not yet finished *)
}

let create ?pool ?(max_pending = 64) runner =
  { runner; pool; max_pending; seen = Hashtbl.create 64;
    pending = Atomic.make 0 }

type outcome = Submitted | Duplicate | Dropped

(** [submit t ~sid trace] queues background synthesis of [trace] unless
    an identical trace was already escalated ([Duplicate]) or the
    pending budget is exhausted ([Dropped]). Runs on the caller only
    through {!Abg_parallel.Pool.background}'s scheduling. *)
let submit t ~sid trace =
  let digest = Digest.string (Abg_trace.Io.to_string trace) in
  if Hashtbl.mem t.seen digest then begin
    Abg_obs.Obs.Counter.incr obs_deduped;
    Duplicate
  end
  else if Atomic.get t.pending >= t.max_pending then begin
    Abg_obs.Obs.Counter.incr obs_dropped;
    Dropped
  end
  else begin
    Hashtbl.replace t.seen digest ();
    Abg_obs.Obs.Counter.incr obs_submitted;
    Atomic.incr t.pending;
    Abg_parallel.Pool.background ?pool:t.pool (fun () ->
        Fun.protect
          ~finally:(fun () -> Atomic.decr t.pending)
          (fun () -> t.runner ~sid trace));
    Submitted
  end

let pending t = Atomic.get t.pending

(** [drain t] — run every queued escalation to completion (the graceful
    shutdown barrier; the caller participates). *)
let drain t = Abg_parallel.Pool.drain_background ?pool:t.pool ()
