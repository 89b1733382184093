(** Single-flow packet-level simulation of a bulk transfer through one
    bottleneck.

    The model is the standard single-bottleneck dumbbell used by the
    paper's trace-collection testbed: the sender emits fixed-size segments
    whenever the flight size is below the CCA's window; segments pass
    through a DropTail queue served at the bottleneck rate, reach the
    receiver after half the propagation RTT, and cumulative ACKs return
    after the other half (plus optional jitter). Loss is detected by three
    duplicate ACKs (with an RTO fallback), exactly the signal Abagnale's
    trace segmentation later infers from traces (§3.2).

    The queue is represented implicitly by the time the link becomes free:
    with fixed-size packets, backlog divided by serialization time is the
    queue length. This is exact for DropTail FIFO.

    Every event stream the simulator emits is already in time order, so
    the event queue merges one FIFO lane per stream (see the lane list
    below) instead of sifting a heap. Recovery scores the flight on an
    incremental scoreboard ({!Scoreboard}) rather than walking every
    outstanding segment on every ACK. The floats the loop writes live in
    one all-float record, stored unboxed, and the per-ACK observation
    record is allocated once per run and mutated in place. What the loop
    still allocates, about 3.9 minor words per event on Reno's reference
    scenarios (release profile), is the boxing of floats that cross the
    CCA closures: their [~now ~acked ~rtt] arguments, their [cwnd ()]
    results and the CCAs' own [float ref] state. The dev profile
    compiles with [-opaque], so it inlines nothing across modules, and
    also boxes every queue push and RNG draw (10.8 words per event). *)

open Abg_util

(** One observation delivered to the trace-collection callback, one per
    cumulative ACK arriving at the sender.

    The record handed to [on_ack_obs] is reused across calls (it is
    rewritten in place before each delivery); copy the fields out — do not
    retain the record itself. *)
type ack_observation = {
  mutable time : float;
  mutable cwnd : float;  (** CCA's window after processing this ACK, bytes *)
  mutable in_flight : float;
      (** bytes outstanding after this ACK ("visible CWND") *)
  mutable acked_bytes : float;  (** bytes newly acknowledged *)
  mutable rtt_sample : float;  (** RTT measured from the triggering segment, s *)
}

type observer = {
  on_ack_obs : ack_observation -> unit;
  on_loss_obs : time:float -> unit;
}

let null_observer = { on_ack_obs = ignore; on_loss_obs = (fun ~time:_ -> ()) }

(* Event lanes. Each holds one stream the simulator emits in time order,
   so a push never lands below its lane's newest event:
   - deliveries leave the link at departure + one_way, and each departure
     lies past [link_free], which only grows (transmissions, cross
     packets and outages all push it forward);
   - held-back deliveries re-arrive at now + reorder_delay, and [now]
     only grows;
   - ACKs arrive no earlier than [last_ack_arrival], which forces the ACK
     path FIFO;
   - the RTO timer and each cross flow keep at most one event queued.
   An ACK's payload carries the cumulative point and the Karn
   sample-validity bit (false when the triggering segment was ever
   retransmitted: such RTT samples are ambiguous and discarded); its send
   timestamp travels in the queue's unboxed aux float channel. A held-back
   delivery is never held again, so every packet arrives eventually. *)
let lane_deliver = 0 (* payload = seq *)
let lane_held = 1 (* payload = seq *)
let lane_ack = 2 (* payload = (cum lsl 1) lor sample_ok; aux = sent_at *)
let lane_rto = 3 (* no payload; the timer state lives on the simulator *)
let lane_cross = 4 (* + cross-flow index; next packet of that flow *)

(** The sender's per-segment scoreboard (RFC 6675) over an oracle view of
    the receiver, answering the recovery query without walking the
    flight. The oracle stands in for SACK blocks: a SACK-enabled sender
    knows which segments above snd_una arrived.

    A segment is scored lost when it is unreceived and either carries
    SACK evidence (it was never retransmitted and 3 segments above it
    arrived: [seq <= rcv_high - 3], RFC 6675's DupThresh rule) or its
    latest (re)transmission is older than a RACK-style reordering timer
    ([now -. sent_at > rack]). The timer makes a re-dropped
    retransmission recoverable without a full RTO per hole. The pipe
    counts the unreceived segments that are not lost. {!query} answers
    the pipe and the lowest lost
    segment exactly as a walk over every outstanding segment would, in
    time independent of the flight size:

    - Both loss tests hold on a prefix of the never-retransmitted
      segments. The evidence test is a bound on [seq]. First-send times
      rise with [seq] (segments go out in order and the clock never runs
      back), and [now -. t] falls as [t] rises, so the timer test holds
      below a boundary that a binary search over [first_sent] finds.
      [first_sent] is kept apart from [sent_at], which a retransmission
      overwrites. So a never-retransmitted unreceived segment is lost
      exactly when it lies below [bound], the larger of the two.
    - [scan] is the lowest segment that is neither received nor
      retransmitted. Both flags only ever turn on, so the cursor only
      moves forward. It is the lowest lost segment of its kind when it
      lies below [bound].
    - The retransmitted segments not yet received are few (one
      retransmission per ACK event, each dropped from the list once it
      arrives); each is tested on its own timer.
    - Above [bound], only segments up to [rcv_high] can have arrived, and
      [bound >= rcv_high - 2] leaves at most three of them to check.

    The pipe is a count of segments, so the simulator's pipe in bytes is
    [float n *. mss]. A walk adds [mss] once per segment; for an integral
    MSS every partial sum is an integer below 2{^53}, so both are exact
    and equal. {!Config.of_digest} refuses a fractional MSS for that
    reason, and a NaN time, which would break the binary search's
    monotonicity. *)
module Scoreboard = struct
  type t = {
    mutable first_sent : float array;  (** first transmission time per seq *)
    mutable sent_at : float array;  (** latest (re)transmission time per seq *)
    mutable retransmitted : bool array;
    (* [received.(seq)] once segment [seq] has arrived (never cleared —
       sequence numbers are not reused, so a flat flag array stands in for
       an out-of-order table). Every seq below rcv_next is set. *)
    mutable received : bool array;
    mutable next_seq : int;  (** next new segment to send *)
    mutable snd_una : int;  (** lowest unacknowledged sequence number *)
    mutable rcv_next : int;  (** receiver's cumulative point *)
    mutable rcv_high : int;  (** highest sequence number received *)
    mutable scan : int;  (* lowest seq neither received nor retransmitted *)
    (* Retransmitted segments not yet seen received, in [0, rtx_len). *)
    mutable rtx : int array;
    mutable rtx_len : int;
    mutable hole : int;  (** lowest lost segment at the last {!query}, or -1 *)
  }

  let create () =
    {
      first_sent = Array.make 1024 0.0;
      sent_at = Array.make 1024 0.0;
      retransmitted = Array.make 1024 false;
      received = Array.make 1024 false;
      next_seq = 0;
      snd_una = 0;
      rcv_next = 0;
      rcv_high = -1;
      scan = 0;
      rtx = Array.make 16 0;
      rtx_len = 0;
      hole = -1;
    }

  let grow a len fill =
    let b = Array.make (Int.max (2 * Array.length a) (len + 1)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b

  (** [send sb ~now] records the first transmission of the next new
      segment at [now] and returns its sequence number. *)
  let[@inline] send sb ~now =
    let seq = sb.next_seq in
    if seq >= Array.length sb.sent_at then begin
      sb.first_sent <- grow sb.first_sent seq 0.0;
      sb.sent_at <- grow sb.sent_at seq 0.0;
      sb.retransmitted <- grow sb.retransmitted seq false;
      sb.received <- grow sb.received seq false
    end;
    sb.first_sent.(seq) <- now;
    sb.sent_at.(seq) <- now;
    sb.next_seq <- seq + 1;
    seq

  (** [retransmit sb seq ~now] records a retransmission of the sent
      segment [seq] at [now]. *)
  let[@inline] retransmit sb seq ~now =
    if not sb.retransmitted.(seq) then begin
      sb.retransmitted.(seq) <- true;
      if sb.rtx_len = Array.length sb.rtx then
        sb.rtx <- grow sb.rtx sb.rtx_len 0;
      sb.rtx.(sb.rtx_len) <- seq;
      sb.rtx_len <- sb.rtx_len + 1
    end;
    sb.sent_at.(seq) <- now

  (** [receive sb seq] marks the sent segment [seq] arrived at the
      receiver. *)
  let[@inline] receive sb seq =
    if seq > sb.rcv_high then sb.rcv_high <- seq;
    if seq >= sb.rcv_next && not sb.received.(seq) then begin
      sb.received.(seq) <- true;
      let len = Array.length sb.received in
      while sb.rcv_next < len && sb.received.(sb.rcv_next) do
        sb.rcv_next <- sb.rcv_next + 1
      done
    end

  (** [ack sb cum] moves the sender's cumulative point to [cum], a
      cumulative ACK the receiver sent ([snd_una <= cum <= rcv_next]). *)
  let[@inline] ack sb cum =
    sb.snd_una <- cum;
    if sb.scan < cum then sb.scan <- cum

  (** [query sb ~now ~srtt] scores the outstanding flight at [now] with
      the RACK timer [1.25 srtt] (1 s before the first RTT sample). It
      returns the pipe, in segments, and sets [sb.hole] to the lowest lost
      segment, or -1 when none is lost. *)
  let[@inline] query sb ~now ~srtt =
    let rack = if srtt > 0.0 then 1.25 *. srtt else 1.0 in
    let next = sb.next_seq in
    while
      sb.scan < next && (sb.received.(sb.scan) || sb.retransmitted.(sb.scan))
    do
      sb.scan <- sb.scan + 1
    done;
    let scan = sb.scan in
    let lo = ref scan and hi = ref next in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if now -. sb.first_sent.(mid) > rack then lo := mid + 1 else hi := mid
    done;
    let bound = Int.max !lo (sb.rcv_high - 2) in
    let pipe = ref (next - bound) in
    for seq = bound to sb.rcv_high do
      if sb.received.(seq) then decr pipe
    done;
    let hole = ref (if scan < bound then scan else -1) in
    let kept = ref 0 in
    for i = 0 to sb.rtx_len - 1 do
      let seq = sb.rtx.(i) in
      if not sb.received.(seq) then begin
        sb.rtx.(!kept) <- seq;
        incr kept;
        if seq >= bound then decr pipe;
        if now -. sb.sent_at.(seq) > rack then begin
          if !hole < 0 || seq < !hole then hole := seq
        end
        else incr pipe
      end
    done;
    sb.rtx_len <- !kept;
    sb.hole <- !hole;
    !pipe
end

(* Every float the event loop writes. An all-float record stores its
   fields unboxed, so a write allocates nothing; as fields of the mixed
   record [t] each write would box. *)
type clock = {
  mutable now : float;
  mutable srtt : float;
  mutable rttvar : float;
  (* Lazy RTO timer: [rto_deadline] is where the timer conceptually sits;
     at most one RTO event lives in the queue at a time ([rto_outstanding]
     is its pop time, or [infinity] when none). Re-arming just moves the
     deadline; the queued event re-schedules itself when it pops early.
     This avoids pushing (and later popping) a stale RTO event per ACK —
     about a third of all queue traffic in steady state. *)
  mutable rto_deadline : float;
  mutable rto_outstanding : float;
  mutable link_free : float;
  (* The current serialization time tracks the bandwidth step schedule. *)
  mutable cur_serialize : float;
  mutable avg_queue : float;  (** RED's EWMA occupancy estimate *)
  mutable last_ack_arrival : float;  (** ACK-path FIFO ordering floor *)
  rwnd : float;  (** {!Config.rwnd}, read by every window fill *)
}

type t = {
  cfg : Config.t;
  cca : Abg_cca.Cca_sig.t;
  events : Event_queue.t;
  rng : Rng.t;
  obs : ack_observation;  (* reusable observation record, see above *)
  clk : clock;
  (* Sequence numbers, per-segment send times and flags of both ends. *)
  board : Scoreboard.t;
  (* Sender state. *)
  mutable dup_acks : int;
  mutable recovery_point : int;  (** next_seq at the last loss event *)
  mutable in_recovery : bool;
  (* Extended-scenario state (all inert for neutral configs). Pending
     bandwidth steps are consumed in time order by the event loop.
     Outages are a precomputed sorted [(start, end)] schedule from a
     dedicated RNG stream (so they never perturb the impairment draws of
     the main stream); [outage_idx] is the next one to take effect. *)
  mutable steps_pending : (float * float) list;
  cross_flows : Config.cross_flow array;
  outages : (float * float) array;
  mutable outage_idx : int;
  mutable cross_delivered : int;
  mutable cross_dropped : int;
  (* Counters. *)
  mutable delivered : int;
  mutable drops : int;
  mutable losses_detected : int;
  mutable events_processed : int;
}

let serialize_time cfg = cfg.Config.mss *. 8.0 /. cfg.Config.bandwidth_bps
let one_way cfg = cfg.Config.rtt_prop /. 2.0

(* The outage schedule is drawn up front from its own seeded stream:
   Poisson arrivals at [outage_rate] per second, each darkening the link
   for [outage_duration]. A separate stream keeps the main RNG's draw
   sequence (loss, jitter, RED, reordering) independent of how many
   outages happen to fall in the run. *)
let make_outages cfg =
  if cfg.Config.outage_rate <= 0.0 || cfg.Config.outage_duration <= 0.0 then
    [||]
  else begin
    let rng = Rng.create (cfg.Config.seed lxor 0x00517a6e) in
    let acc = ref [] in
    let t = ref 0.0 in
    let continue = ref true in
    while !continue do
      t := !t +. Rng.exponential rng ~rate:cfg.Config.outage_rate;
      if !t >= cfg.Config.duration then continue := false
      else acc := (!t, !t +. cfg.Config.outage_duration) :: !acc
    done;
    Array.of_list (List.rev !acc)
  end

let create cfg cca =
  {
    cfg;
    cca;
    events =
      Event_queue.create
        ~lanes:(lane_cross + List.length cfg.Config.cross);
    rng = Rng.create cfg.Config.seed;
    obs =
      { time = 0.0; cwnd = 0.0; in_flight = 0.0; acked_bytes = 0.0;
        rtt_sample = 0.0 };
    clk =
      {
        now = 0.0;
        srtt = 0.0;
        rttvar = 0.0;
        rto_deadline = infinity;
        rto_outstanding = infinity;
        link_free = 0.0;
        cur_serialize = serialize_time cfg;
        avg_queue = 0.0;
        last_ack_arrival = 0.0;
        rwnd = Config.rwnd cfg;
      };
    board = Scoreboard.create ();
    dup_acks = 0;
    recovery_point = 0;
    in_recovery = false;
    delivered = 0;
    drops = 0;
    losses_detected = 0;
    events_processed = 0;
    steps_pending =
      List.sort (fun (a, _) (b, _) -> Float.compare a b)
        cfg.Config.bandwidth_steps;
    cross_flows = Array.of_list cfg.Config.cross;
    outages = make_outages cfg;
    outage_idx = 0;
    cross_delivered = 0;
    cross_dropped = 0;
  }

(* The backlog in packets, rounded up. [int_of_float (Float.ceil x)]
   without the libm call: below 2^52 a positive [x] truncates to its
   floor, and from 2^52 up every float is an integer, where adding 1 to
   the conversion would differ once it saturates at 2^62. *)
let queue_length sim =
  let backlog = sim.clk.link_free -. sim.clk.now in
  if backlog <= 0.0 then 0
  else
    let x = backlog /. sim.clk.cur_serialize in
    let n = int_of_float x in
    if x >= 0x1p52 || float_of_int n >= x then n else n + 1

(* Fold every outage that has started by [now] into the link: the link
   serves nothing until the outage ends, so the free time is floored at
   the outage's end. Packets admitted meanwhile pile up behind it —
   occupancy (and with it DropTail/RED pressure) spikes, which is the
   bufferbloat signature a real outage produces. *)
let apply_outages sim =
  let n = Array.length sim.outages in
  while
    sim.outage_idx < n && fst sim.outages.(sim.outage_idx) <= sim.clk.now
  do
    let _, until = sim.outages.(sim.outage_idx) in
    if until > sim.clk.link_free then sim.clk.link_free <- until;
    sim.outage_idx <- sim.outage_idx + 1
  done

(** RED's drop probability as a pure function of the EWMA queue estimate:
    0 below [min_th], ramping linearly to [max_p] at [max_th], 1 above.
    Exposed for the monotonicity unit test. *)
let red_drop_probability ~min_th ~max_th ~max_p avg =
  let lo = float_of_int min_th and hi = float_of_int max_th in
  if avg < lo then 0.0
  else if avg >= hi then 1.0
  else max_p *. (avg -. lo) /. Float.max (hi -. lo) 1e-9

(* Queue-discipline admission test shared by the CCA flow and cross
   traffic. DropTail is the original check, byte-for-byte; RED
   additionally updates its EWMA occupancy estimate (weight 0.05) on
   every admission attempt and drops probabilistically. *)
let queue_dropped sim =
  if Array.length sim.outages > 0 then apply_outages sim;
  match sim.cfg.Config.qdisc with
  | Config.Droptail -> queue_length sim >= sim.cfg.Config.queue_capacity
  | Config.Red { min_th; max_th; max_p } ->
      let q = queue_length sim in
      sim.clk.avg_queue <-
        sim.clk.avg_queue +. (0.05 *. (float_of_int q -. sim.clk.avg_queue));
      q >= sim.cfg.Config.queue_capacity
      ||
      let p = red_drop_probability ~min_th ~max_th ~max_p sim.clk.avg_queue in
      p > 0.0 && Rng.float sim.rng < p

(* Transmit segment [seq], its send time already on the scoreboard:
   qdisc admission, serialization, delivery. *)
let transmit sim seq =
  let dropped =
    queue_dropped sim
    || (sim.cfg.Config.loss_rate > 0.0 && Rng.float sim.rng < sim.cfg.Config.loss_rate)
  in
  if dropped then sim.drops <- sim.drops + 1
  else begin
    let start = Float.max sim.clk.now sim.clk.link_free in
    let departure = start +. sim.clk.cur_serialize in
    sim.clk.link_free <- departure;
    Event_queue.push sim.events ~lane:lane_deliver
      ~time:(departure +. one_way sim.cfg)
      ~aux:0.0 seq
  end

let[@inline] in_flight_bytes sim =
  float_of_int (sim.board.Scoreboard.next_seq - sim.board.Scoreboard.snd_una)
  *. sim.cfg.Config.mss

let send_new sim = transmit sim (Scoreboard.send sim.board ~now:sim.clk.now)

let retransmit_hole sim seq =
  Scoreboard.retransmit sim.board seq ~now:sim.clk.now;
  transmit sim seq

(* Transmission policy per RFC 6675 with a per-segment scoreboard:
   retransmissions of scored-lost segments take priority over new data,
   both gated on pipe < cwnd, where the pipe excludes received and
   scored-lost segments (see {!Scoreboard} for the loss tests: SACK
   evidence or a RACK-style timer, which keep segments merely still in
   transit from being retransmitted, since their ambiguous RTT samples
   would poison every delay-based CCA). When [force_rtx] is set (one per
   incoming ACK event during recovery, the spirit of proportional-rate
   reduction), the first retransmission goes out even if the pipe has not
   yet drained below the window. *)
let fill_window ~force_rtx sim =
  let window = Float.min (sim.cca.Abg_cca.Cca_sig.cwnd ()) sim.clk.rwnd in
  let mss = sim.cfg.Config.mss in
  let board = sim.board in
  if sim.in_recovery then begin
    (* Packet conservation during recovery: one transmission per incoming
       ACK event, repairs first. Anything more re-floods the queue that
       just overflowed and stretches the episode; anything less lets the
       ACK clock die. New data is sent only once every hole is repaired
       or in flight. *)
    let pipe =
      float_of_int
        (Scoreboard.query board ~now:sim.clk.now ~srtt:sim.clk.srtt)
      *. mss
    in
    if force_rtx || pipe +. mss <= window then begin
      let hole = board.Scoreboard.hole in
      if hole >= 0 then retransmit_hole sim hole else send_new sim
    end
  end
  else begin
    let pipe =
      ref
        (float_of_int (board.Scoreboard.next_seq - board.Scoreboard.snd_una)
        *. mss)
    in
    while !pipe +. mss <= window do
      send_new sim;
      pipe := !pipe +. mss
    done
  end

let rto sim =
  if sim.clk.srtt = 0.0 then 1.0
  else Float.max 0.2 (sim.clk.srtt +. (4.0 *. sim.clk.rttvar))

(* Move the RTO deadline; only queue an event if none is in flight. The
   deadline an armed timer eventually fires at is the same float the
   eager push-per-arm scheme produced, so firing times are unchanged. *)
let arm_rto sim =
  sim.clk.rto_deadline <- sim.clk.now +. rto sim;
  if sim.clk.rto_outstanding = infinity then begin
    sim.clk.rto_outstanding <- sim.clk.rto_deadline;
    Event_queue.push sim.events ~lane:lane_rto ~time:sim.clk.rto_deadline
      ~aux:0.0 0
  end

(* Inlined, so [rtt] is not boxed to pass it. *)
let[@inline] update_rtt_estimators sim rtt =
  if sim.clk.srtt = 0.0 then begin
    sim.clk.srtt <- rtt;
    sim.clk.rttvar <- rtt /. 2.0
  end
  else begin
    sim.clk.rttvar <- (0.75 *. sim.clk.rttvar) +. (0.25 *. Float.abs (sim.clk.srtt -. rtt));
    sim.clk.srtt <- (0.875 *. sim.clk.srtt) +. (0.125 *. rtt)
  end

(* Receiver side: segment [seq] arrives; emit a cumulative ACK. *)
let receive sim seq =
  let board = sim.board in
  Scoreboard.receive board seq;
  let jitter =
    if sim.cfg.Config.ack_jitter > 0.0 then
      Float.abs (Rng.normal sim.rng ~mean:0.0 ~stddev:sim.cfg.Config.ack_jitter)
    else 0.0
  in
  (* The ACK path is FIFO: jitter delays but never reorders, or every
     delayed ACK would masquerade as duplicate-ACK loss evidence. *)
  let arrival =
    Float.max (sim.clk.now +. one_way sim.cfg +. jitter) sim.clk.last_ack_arrival
  in
  sim.clk.last_ack_arrival <- arrival;
  Event_queue.push sim.events ~lane:lane_ack ~time:arrival
    ~aux:board.Scoreboard.sent_at.(seq)
    ((board.Scoreboard.rcv_next lsl 1)
    lor if board.Scoreboard.retransmitted.(seq) then 0 else 1)

let handle_loss sim observer =
  sim.losses_detected <- sim.losses_detected + 1;
  sim.cca.Abg_cca.Cca_sig.on_loss ~now:sim.clk.now;
  observer.on_loss_obs ~time:sim.clk.now;
  (* A loss during an ongoing episode (an RTO) must not move the episode's
     exit point to the raced-ahead next_seq, or the episode never ends. *)
  if not sim.in_recovery then begin
    sim.in_recovery <- true;
    sim.recovery_point <- sim.board.Scoreboard.next_seq
  end;
  fill_window ~force_rtx:true sim

(* The ACK's send timestamp is the aux float of the event just popped,
   read here rather than passed, which would box it. *)
let handle_ack sim observer ~cum ~sample_ok =
  if cum > sim.board.Scoreboard.snd_una then begin
    let newly = cum - sim.board.Scoreboard.snd_una in
    Scoreboard.ack sim.board cum;
    sim.dup_acks <- 0;
    sim.delivered <- sim.delivered + newly;
    (* Karn: an RTT measured through a retransmitted segment is ambiguous;
       substitute the smoothed estimate so the CCA still sees a sane
       sample without polluting its min/max filters. *)
    let rtt =
      if sample_ok then sim.clk.now -. Event_queue.popped_aux sim.events
      else if sim.clk.srtt > 0.0 then sim.clk.srtt
      else sim.cfg.Config.rtt_prop
    in
    if sample_ok then update_rtt_estimators sim rtt;
    let acked_bytes = float_of_int newly *. sim.cfg.Config.mss in
    sim.cca.Abg_cca.Cca_sig.on_ack ~now:sim.clk.now ~acked:acked_bytes ~rtt;
    if sim.in_recovery && cum >= sim.recovery_point then
      sim.in_recovery <- false;
    (* A partial ACK (still in recovery) keeps repairing holes. *)
    fill_window ~force_rtx:sim.in_recovery sim;
    let obs = sim.obs in
    obs.time <- sim.clk.now;
    obs.cwnd <- sim.cca.Abg_cca.Cca_sig.cwnd ();
    obs.in_flight <- in_flight_bytes sim;
    obs.acked_bytes <- acked_bytes;
    obs.rtt_sample <- rtt;
    observer.on_ack_obs obs;
    arm_rto sim
  end
  else begin
    (* Duplicate ACK: each one shrinks the SACK pipe, possibly opening
       room for new transmissions. *)
    sim.dup_acks <- sim.dup_acks + 1;
    if sim.dup_acks = 3 && not sim.in_recovery then handle_loss sim observer
    else fill_window ~force_rtx:sim.in_recovery sim
  end

(* Delivery-side reordering: with probability [reorder_prob] a data
   packet is pulled out of line on arrival and re-injected
   [reorder_delay] later, behind whatever was delivered meanwhile. A
   held-back packet returns on its own lane and is received outright, so
   it cannot be re-held forever. *)
let handle_deliver sim seq =
  if
    sim.cfg.Config.reorder_prob > 0.0
    && Rng.float sim.rng < sim.cfg.Config.reorder_prob
  then
    Event_queue.push sim.events ~lane:lane_held
      ~time:(sim.clk.now +. sim.cfg.Config.reorder_delay)
      ~aux:0.0 seq
  else receive sim seq

(* One cross-traffic packet of flow [idx] arrives at the bottleneck: it
   contends for the same queue (same admission test, same link
   occupancy) but terminates at the bottleneck — no delivery or ACK
   events. The flow then schedules its own next packet: back-to-back at
   [rate_bps] for constant flows; on-off flows skip ahead to the next
   on-window whenever the next slot falls in a silence. *)
let handle_cross sim idx =
  (match sim.cross_flows.(idx) with
  | Config.Constant _ | Config.On_off _ ->
      if queue_dropped sim then sim.cross_dropped <- sim.cross_dropped + 1
      else begin
        let start = Float.max sim.clk.now sim.clk.link_free in
        sim.clk.link_free <- start +. sim.clk.cur_serialize;
        sim.cross_delivered <- sim.cross_delivered + 1
      end);
  let rate_bps =
    match sim.cross_flows.(idx) with
    | Config.Constant { rate_bps } | Config.On_off { rate_bps; _ } -> rate_bps
  in
  if rate_bps > 0.0 then begin
    let dt = sim.cfg.Config.mss *. 8.0 /. rate_bps in
    let next = sim.clk.now +. dt in
    let next =
      match sim.cross_flows.(idx) with
      | Config.Constant _ -> next
      | Config.On_off { on_s; off_s; _ } ->
          let period = on_s +. off_s in
          if period <= 0.0 || Float.rem next period < on_s then next
          else (Float.floor (next /. period) +. 1.0) *. period
    in
    if next <= sim.cfg.Config.duration then
      Event_queue.push sim.events ~lane:(lane_cross + idx) ~time:next ~aux:0.0
        0
  end

(* Consume any bandwidth steps due by [sim.clk.now]: subsequent serializations
   (CCA and cross alike) run at the new rate; packets already on the link
   keep their departure times. *)
let rec apply_bandwidth_steps sim =
  match sim.steps_pending with
  | (t, bps) :: rest when t <= sim.clk.now ->
      if bps > 0.0 then
        sim.clk.cur_serialize <- sim.cfg.Config.mss *. 8.0 /. bps;
      sim.steps_pending <- rest;
      apply_bandwidth_steps sim
  | _ -> ()

let handle_rto sim observer =
  sim.clk.rto_outstanding <- infinity;
  if sim.clk.now < sim.clk.rto_deadline then begin
    (* The deadline moved while this event was queued (the timer was
       re-armed by intervening ACKs); chase it instead of firing. *)
    sim.clk.rto_outstanding <- sim.clk.rto_deadline;
    Event_queue.push sim.events ~lane:lane_rto ~time:sim.clk.rto_deadline
      ~aux:0.0 0
  end
  else if sim.board.Scoreboard.next_seq > sim.board.Scoreboard.snd_una then
  begin
    (* After a timeout the RACK timer has expired for the whole
       outstanding flight, so handle_loss's scoreboard pass retransmits
       from the head. *)
    handle_loss sim observer;
    sim.dup_acks <- 0;
    arm_rto sim
  end

(** Simulation statistics returned by {!run}. *)
type stats = {
  acks_processed : int;
  packets_dropped : int;
  loss_events : int;
  final_time : float;
  delivered_bytes : float;
  cross_delivered_bytes : float;
      (** cross-traffic bytes that made it through the bottleneck *)
  cross_dropped : int;  (** cross-traffic packets the queue rejected *)
  events_processed : int;  (** events dequeued by the run loop *)
  queue_peak : int;  (** event-queue high-water mark *)
}

(* Telemetry: per-run totals added once at the end of [run] — nothing in
   the event loop itself. All deterministic: the simulator's RNG is
   seeded from the config. *)
let obs_runs = Abg_obs.Obs.Counter.make "sim.runs"
let obs_events = Abg_obs.Obs.Counter.make "sim.events"
let obs_acks = Abg_obs.Obs.Counter.make "sim.acks"
let obs_drops = Abg_obs.Obs.Counter.make "sim.drops"
let obs_losses = Abg_obs.Obs.Counter.make "sim.loss_events"

(** [run cfg cca ~observer] simulates the flow for [cfg.duration] seconds,
    invoking [observer] on every cumulative ACK and loss event, and
    returns summary statistics. *)
let run ?(observer = null_observer) cfg cca =
  let sim = create cfg cca in
  let acks = ref 0 in
  let counting_observer =
    {
      on_ack_obs =
        (fun obs ->
          incr acks;
          observer.on_ack_obs obs);
      on_loss_obs = observer.on_loss_obs;
    }
  in
  fill_window ~force_rtx:false sim;
  arm_rto sim;
  (* Cross flows start contending at t=0 (on-off flows begin in their
     on-window) and self-reschedule from then on. *)
  Array.iteri
    (fun idx _ ->
      Event_queue.push sim.events ~lane:(lane_cross + idx) ~time:0.0 ~aux:0.0
        0)
    sim.cross_flows;
  let stepped = sim.steps_pending <> [] in
  let events = sim.events in
  let continue = ref true in
  while !continue do
    if Event_queue.is_empty events then continue := false
    else begin
      let payload = Event_queue.pop events in
      let time = Event_queue.popped_time events in
      if time > cfg.Config.duration then continue := false
      else begin
        sim.clk.now <- time;
        if stepped then apply_bandwidth_steps sim;
        sim.events_processed <- sim.events_processed + 1;
        let lane = Event_queue.popped_lane events in
        if lane = lane_deliver then handle_deliver sim payload
        else if lane = lane_ack then
          handle_ack sim counting_observer ~cum:(payload lsr 1)
            ~sample_ok:(payload land 1 = 1)
        else if lane = lane_held then receive sim payload
        else if lane = lane_rto then handle_rto sim counting_observer
        else handle_cross sim (lane - lane_cross)
      end
    end
  done;
  Abg_obs.Obs.Counter.incr obs_runs;
  Abg_obs.Obs.Counter.add obs_events sim.events_processed;
  Abg_obs.Obs.Counter.add obs_acks !acks;
  Abg_obs.Obs.Counter.add obs_drops sim.drops;
  Abg_obs.Obs.Counter.add obs_losses sim.losses_detected;
  {
    acks_processed = !acks;
    packets_dropped = sim.drops;
    loss_events = sim.losses_detected;
    final_time = sim.clk.now;
    delivered_bytes = float_of_int sim.delivered *. cfg.Config.mss;
    cross_delivered_bytes = float_of_int sim.cross_delivered *. cfg.Config.mss;
    cross_dropped = sim.cross_dropped;
    events_processed = sim.events_processed;
    queue_peak = Event_queue.peak sim.events;
  }
