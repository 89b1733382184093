(** Event queue for the discrete-event simulator: a merge of FIFO lanes.

    Every event stream the simulator emits is already in time order (see
    the lane list in sim.ml), so the queue keeps one FIFO ring per stream
    instead of a heap. A push appends to its lane's ring; {!pop} takes the
    earliest lane head by (time, insertion id). Ids are global across
    lanes, so simultaneous events pop in insertion order and the pop
    sequence is exactly the sorted order of pushes by (time, id), the
    order a binary heap keyed the same way produces. A push whose time
    falls below its lane's newest entry would break that, and raises
    [Invalid_argument].

    Each ring is laid out as parallel unboxed arrays: [times] and [aux]
    are flat float arrays, [ids] and [payloads] int arrays. {!pop} returns
    the int payload directly; the popped time, aux float and lane are
    readable through {!popped_time}, {!popped_aux} and {!popped_lane}.
    The [aux] channel carries one caller-defined float per event (the
    simulator uses it for ACK send timestamps). *)

type lane = {
  mutable times : float array;
  mutable aux : float array;
  mutable ids : int array;
  mutable payloads : int array;
  mutable head : int;  (* slot of the oldest entry *)
  mutable len : int;
}

type t = {
  lanes : lane array;
  mutable next_id : int;
  mutable size : int;
  mutable peak : int;
  popped : float array;  (* [| time; aux |] of the most recent pop *)
  mutable popped_lane : int;
}

(* Ring capacities stay powers of two so a slot index is a mask. *)
let initial_capacity = 16

let make_lane () =
  {
    times = Array.make initial_capacity 0.0;
    aux = Array.make initial_capacity 0.0;
    ids = Array.make initial_capacity 0;
    payloads = Array.make initial_capacity 0;
    head = 0;
    len = 0;
  }

(** [create ~lanes] is an empty queue with lanes [0 .. lanes - 1]. *)
let create ~lanes =
  {
    lanes = Array.init lanes (fun _ -> make_lane ());
    next_id = 0;
    size = 0;
    peak = 0;
    popped = [| nan; nan |];
    popped_lane = -1;
  }

let is_empty q = q.size = 0

(** High-water mark of the number of queued events. *)
let peak q = q.peak

(* Double a full ring, unrolling it so the oldest entry lands in slot 0. *)
let grow l =
  let cap = Array.length l.times in
  let unroll a fill =
    let b = Array.make (2 * cap) fill in
    let first = cap - l.head in
    Array.blit a l.head b 0 first;
    Array.blit a 0 b first l.head;
    b
  in
  l.times <- unroll l.times 0.0;
  l.aux <- unroll l.aux 0.0;
  l.ids <- unroll l.ids 0;
  l.payloads <- unroll l.payloads 0;
  l.head <- 0

(** [push q ~lane ~time ~aux payload] appends an event to [lane]. [aux] is
    an arbitrary float riding along with the payload (pass 0.0 when
    unused). Raises [Invalid_argument] if [time] is below the time of the
    lane's newest queued event. *)
let[@inline] push q ~lane ~time ~aux payload =
  let l = q.lanes.(lane) in
  let mask = Array.length l.times - 1 in
  if l.len > 0 && time < l.times.((l.head + l.len - 1) land mask) then
    invalid_arg "Event_queue.push: time below the lane's newest event";
  if l.len = mask + 1 then grow l;
  let i = (l.head + l.len) land (Array.length l.times - 1) in
  l.times.(i) <- time;
  l.aux.(i) <- aux;
  l.ids.(i) <- q.next_id;
  l.payloads.(i) <- payload;
  l.len <- l.len + 1;
  q.next_id <- q.next_id + 1;
  q.size <- q.size + 1;
  if q.size > q.peak then q.peak <- q.size

(* Does lane [a]'s head order strictly before lane [b]'s? Both non-empty. *)
let[@inline] before a b =
  let ta = a.times.(a.head) and tb = b.times.(b.head) in
  ta < tb || (ta = tb && a.ids.(a.head) < b.ids.(b.head))

(** [pop q] removes and returns the payload of the earliest event; its
    time, aux value and lane are readable through {!popped_time},
    {!popped_aux} and {!popped_lane} until the next pop. Raises
    [Invalid_argument] on an empty queue. Allocates nothing. *)
let pop q =
  let lanes = q.lanes in
  let best = ref (-1) in
  for k = 0 to Array.length lanes - 1 do
    let l = lanes.(k) in
    if l.len > 0 && (!best < 0 || before l lanes.(!best)) then best := k
  done;
  if !best < 0 then invalid_arg "Event_queue.pop: empty queue";
  let l = lanes.(!best) in
  let i = l.head in
  q.popped.(0) <- l.times.(i);
  q.popped.(1) <- l.aux.(i);
  q.popped_lane <- !best;
  l.head <- (i + 1) land (Array.length l.times - 1);
  l.len <- l.len - 1;
  q.size <- q.size - 1;
  l.payloads.(i)

(** Time of the most recently popped event. *)
let popped_time q = q.popped.(0)

(** Aux value of the most recently popped event. *)
let popped_aux q = q.popped.(1)

(** Lane of the most recently popped event. *)
let popped_lane q = q.popped_lane
