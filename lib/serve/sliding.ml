(** Per-flow sliding-window state for online classification.

    A long-lived flow streams records forever; classification only ever
    looks at the most recent [capacity] of them. [Sliding] keeps exactly
    that suffix in a ring buffer — O(1) per observation, no allocation
    after construction — together with the loss events visible inside
    the window, detected at ingest by the same passive rule as
    {!Abg_trace.Segmentation.infer_loss_times} (visible window dropping
    below 80% of its predecessor).

    Equivalence contract (the qcheck property in [test_serve]): after
    streaming any record sequence, the state is identical to a batch
    recompute over the suffix — the window holds the last
    [min total capacity] records in order, and the in-window losses are
    exactly the full-stream pairwise detections whose record index falls
    inside the window. Losses are evicted by stream {e index}, not by
    time, so records carrying [nan]/[inf] timestamps cannot corrupt
    eviction (a [nan] comparison is simply false for detection, on both
    the streaming and the batch side). *)

type t = {
  capacity : int;
  ring : Abg_trace.Record.t array;  (* slot = stream index mod capacity *)
  mutable total : int;  (* records streamed so far *)
  losses : (int * float) Queue.t;
      (* (stream index of detecting record, its time), ascending index;
         evicted once the index leaves the window *)
}

let dummy_record =
  {
    Abg_trace.Record.time = 0.0; cwnd = 0.0; in_flight = 0.0;
    acked_bytes = 0.0; rtt = 0.0; min_rtt = 0.0; max_rtt = 0.0;
    ack_rate = 0.0; rtt_gradient = 0.0; delay_gradient = 0.0;
    time_since_loss = 0.0; wmax = 0.0; mss = 0.0;
  }

let create ~capacity =
  if capacity < 2 then invalid_arg "Sliding.create: capacity must be >= 2";
  {
    capacity;
    ring = Array.make capacity dummy_record;
    total = 0;
    losses = Queue.create ();
  }

let length t = Stdlib.min t.total t.capacity

(** [get t i] is the window's [i]-th record, oldest first
    ([0 <= i < length t]). *)
let get t i =
  let len = length t in
  if i < 0 || i >= len then invalid_arg "Sliding.get: out of window";
  t.ring.((t.total - len + i) mod t.capacity)

(** [observed t i] is the visible window of the [i]-th record — the
    query series the engine copies out for {!Abg_classifier.Online}. *)
let observed t i = Abg_trace.Record.observed_cwnd (get t i)

(** [push t r] ingests one record: O(1) — overwrite the oldest ring
    slot, detect a loss against the previous record (if any is still
    buffered), evict losses that left the window. *)
let push t (r : Abg_trace.Record.t) =
  if t.total > 0 then begin
    let prev =
      Abg_trace.Record.observed_cwnd t.ring.((t.total - 1) mod t.capacity)
    in
    let cur = Abg_trace.Record.observed_cwnd r in
    if prev > 0.0 && cur < 0.8 *. prev then
      Queue.push (t.total, r.Abg_trace.Record.time) t.losses
  end;
  t.ring.(t.total mod t.capacity) <- r;
  t.total <- t.total + 1;
  (* The window now covers stream indices [total - length, total). *)
  let lo = t.total - length t in
  while
    (not (Queue.is_empty t.losses)) && fst (Queue.peek t.losses) < lo
  do
    ignore (Queue.pop t.losses)
  done

(** In-window loss event times, oldest first. *)
let loss_times t =
  Array.of_seq (Seq.map snd (Queue.to_seq t.losses))

(** [to_trace t] materializes the current window as a trace — what
    escalation to synthesis consumes. *)
let to_trace ?(cca_name = "unknown") ?(scenario = "live") t =
  let len = length t in
  {
    Abg_trace.Trace.cca_name;
    scenario;
    config = Abg_netsim.Config.default;
    records = Array.init len (fun i -> get t i);
    loss_times = loss_times t;
  }
