(* Leader/follower group commit. See group_commit.mli. *)

let obs_coalesced =
  Abg_obs.Obs.Counter.make ~volatile:true "batch.fsync_coalesced"

type t = {
  store : Store.t;
  journal : Journal.t;
  window_s : float;
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
}

(* Most entries one flush carries. *)
let max_batch = 256

let create ?(window_s = 0.) ~store ~journal () =
  {
    store;
    journal;
    window_s;
    m = Mutex.create ();
    flushed_cond = Condition.create ();
    next = 0;
    flushed = 0;
    pending = [];
    flushing = false;
  }

let rec take k = function
  | [] -> ([], [])
  | x :: rest when k > 0 ->
      let kept, dropped = take (k - 1) rest in
      (x :: kept, dropped)
  | rest -> ([], rest)

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
  if batch_len > 1 then Abg_obs.Obs.Counter.add obs_coalesced (batch_len - 1);
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
      done)
