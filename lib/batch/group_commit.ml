(* Leader/follower group commit. See group_commit.mli. *)

let obs_coalesced =
  Abg_obs.Obs.Counter.make ~volatile:true "batch.fsync_coalesced"

let obs_checkpoint =
  Abg_obs.Obs.Counter.make ~volatile:true "batch.checkpoint_written"

type t = {
  store : Store.t;
  journal : Journal.t;
  window_s : float;
  checkpoint_every : int;
  m : Mutex.t;
  flushed_cond : Condition.t;
  (* Tickets: the i-th committed entry (1-based) waits for [flushed >=
     i]. [pending] holds enqueued-but-unflushed entries newest-first,
     so pending tickets are the contiguous range
     (flushed+1 .. flushed+|pending|] once a leader drains in order. *)
  mutable next : int;
  mutable flushed : int;
  mutable pending : Journal.entry list;
  mutable flushing : bool;
  (* Full settled set of the journal file (initial + flushed), for
     checkpoint snapshots; [since] counts entries since the last one. *)
  mutable settled : Journal.entry list;
  mutable settled_count : int;
  mutable since : int;
}

(* Most entries one flush carries. *)
let max_batch = 256

let create ?(window_s = 0.) ?(checkpoint_every = 1024) ~store ~journal
    ~initial () =
  {
    store;
    journal;
    window_s;
    checkpoint_every;
    m = Mutex.create ();
    flushed_cond = Condition.create ();
    next = 0;
    flushed = 0;
    pending = [];
    flushing = false;
    settled = initial;
    settled_count = List.length initial;
    since = 0;
  }

let rec take k = function
  | [] -> ([], [])
  | x :: rest when k > 0 ->
      let kept, dropped = take (k - 1) rest in
      (x :: kept, dropped)
  | rest -> ([], rest)

(* Geometric spacing: a checkpoint is worth its O(settled) bytes only
   once enough new lines have accrued to matter, so total checkpoint
   bytes stay linear in history instead of quadratic. *)
let checkpoint_due t =
  t.since >= max t.checkpoint_every (t.settled_count / 2)

let write_checkpoint t =
  Journal.append_checkpoint t.journal t.settled;
  t.since <- 0;
  Abg_obs.Obs.Counter.incr obs_checkpoint

(* Caller holds [t.m]; leader has set [t.flushing]. Drains up to
   max_batch of the oldest pending entries, flushes with the lock
   released, then publishes the new flushed ticket. *)
let flush_as_leader t =
  if t.window_s > 0. && List.length t.pending < max_batch then begin
    (* Linger with the lock released so more completions can queue. *)
    Mutex.unlock t.m;
    Unix.sleepf t.window_s;
    Mutex.lock t.m
  end;
  let batch, rest = take max_batch (List.rev t.pending) in
  t.pending <- List.rev rest;
  let batch_len = List.length batch in
  let batch_hi = t.flushed + batch_len in
  Mutex.unlock t.m;
  (* The durability-window ordering: blobs' pack fsync strictly before
     the journal write+fsync, so any journal line that survives a crash
     references only durable blobs. *)
  ignore (Store.flush_staged t.store);
  Journal.append_batch t.journal batch;
  Mutex.lock t.m;
  t.flushed <- batch_hi;
  t.settled <- List.rev_append batch t.settled;
  t.settled_count <- t.settled_count + batch_len;
  t.since <- t.since + batch_len;
  if batch_len > 1 then Abg_obs.Obs.Counter.add obs_coalesced (batch_len - 1);
  if checkpoint_due t then write_checkpoint t;
  t.flushing <- false;
  Condition.broadcast t.flushed_cond

let commit t entry =
  Mutex.lock t.m;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.m)
    (fun () ->
      t.next <- t.next + 1;
      let my = t.next in
      t.pending <- entry :: t.pending;
      while t.flushed < my do
        if t.flushing then Condition.wait t.flushed_cond t.m
        else begin
          t.flushing <- true;
          flush_as_leader t
        end
      done)

let close t =
  Mutex.lock t.m;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.m)
    (fun () ->
      while t.pending <> [] do
        if t.flushing then Condition.wait t.flushed_cond t.m
        else begin
          t.flushing <- true;
          flush_as_leader t
        end
      done;
      if t.since >= t.checkpoint_every then write_checkpoint t)
