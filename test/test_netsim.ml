(* Tests for the discrete-event network simulator. *)

open Abg_netsim

let quick_config ?(duration = 5.0) ?(bandwidth_mbps = 10.0) ?(rtt_ms = 50.0) ()
    =
  Config.make ~duration ~bandwidth_mbps ~rtt_ms ()

(* -- Event queue -- *)

let test_event_queue_order () =
  let q = Event_queue.create ~lanes:3 in
  Event_queue.push q ~lane:0 ~time:3.0 ~aux:0.0 3;
  Event_queue.push q ~lane:1 ~time:1.0 ~aux:0.0 1;
  Event_queue.push q ~lane:2 ~time:2.0 ~aux:0.0 2;
  let pops = List.init 3 (fun _ -> Event_queue.pop q) in
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] pops;
  Alcotest.(check bool) "empty" true (Event_queue.is_empty q)

let test_event_queue_fifo_ties () =
  (* A cross-lane tie goes to the earlier push, not the lower lane. *)
  let q = Event_queue.create ~lanes:2 in
  Event_queue.push q ~lane:1 ~time:1.0 ~aux:0.0 1;
  Event_queue.push q ~lane:0 ~time:1.0 ~aux:0.0 2;
  Event_queue.push q ~lane:1 ~time:1.0 ~aux:0.0 3;
  let pops = List.init 3 (fun _ -> Event_queue.pop q) in
  Alcotest.(check (list int)) "insertion order on ties" [ 1; 2; 3 ] pops

let test_event_queue_popped_metadata () =
  let q = Event_queue.create ~lanes:2 in
  Event_queue.push q ~lane:0 ~time:2.0 ~aux:42.0 7;
  Event_queue.push q ~lane:1 ~time:1.0 ~aux:13.0 5;
  Alcotest.(check int) "payload" 5 (Event_queue.pop q);
  Alcotest.(check (float 0.0)) "popped time" 1.0 (Event_queue.popped_time q);
  Alcotest.(check (float 0.0)) "popped aux" 13.0 (Event_queue.popped_aux q);
  Alcotest.(check int) "popped lane" 1 (Event_queue.popped_lane q);
  Alcotest.(check int) "second payload" 7 (Event_queue.pop q);
  Alcotest.(check (float 0.0)) "second aux" 42.0 (Event_queue.popped_aux q);
  Alcotest.(check int) "second lane" 0 (Event_queue.popped_lane q);
  Alcotest.(check int) "queue peak" 2 (Event_queue.peak q)

let test_event_queue_push_below_tail () =
  let q = Event_queue.create ~lanes:2 in
  Event_queue.push q ~lane:0 ~time:2.0 ~aux:0.0 0;
  (* Lanes are independent streams: another lane may start lower. *)
  Event_queue.push q ~lane:1 ~time:1.0 ~aux:0.0 1;
  Event_queue.push q ~lane:0 ~time:2.0 ~aux:0.0 2;
  match Event_queue.push q ~lane:0 ~time:1.5 ~aux:0.0 3 with
  | () -> Alcotest.fail "push below the lane's newest event accepted"
  | exception Invalid_argument _ -> ()

(* Turns random (lane, time) draws into a legal push sequence: the lanes
   keep their draw order, and each lane's times are handed out in sorted
   order, so every lane is non-decreasing while the pushes as a whole are
   not. *)
let lane_sorted_pushes draws =
  let lanes = 1 + List.fold_left (fun m (l, _) -> max m l) 0 draws in
  let per_lane = Array.make lanes [] in
  List.iter (fun (l, t) -> per_lane.(l) <- t :: per_lane.(l)) draws;
  Array.iteri (fun l ts -> per_lane.(l) <- List.sort Float.compare ts) per_lane;
  let pushes =
    List.map
      (fun (l, _) ->
        match per_lane.(l) with
        | t :: rest ->
            per_lane.(l) <- rest;
            (l, t)
        | [] -> assert false)
      draws
  in
  (lanes, pushes)

(* The lane merge must pop in exactly (time, insertion order): push every
   event first, drain the queue and compare against a stable sort by
   time, whose tie handling is precisely insertion order. Times are drawn
   from a handful of distinct values so simultaneous events, within and
   across lanes, are common. *)
let prop_event_queue_reference_order =
  QCheck.Test.make ~name:"pops match stable sort by (time, insertion)"
    ~count:500
    QCheck.(
      list_of_size (Gen.int_range 0 200)
        (pair (int_range 0 3)
           (map (fun k -> float_of_int k /. 4.0) (int_range 0 10))))
    (fun draws ->
      let lanes, pushes = lane_sorted_pushes draws in
      let q = Event_queue.create ~lanes in
      List.iteri
        (fun i (lane, t) -> Event_queue.push q ~lane ~time:t ~aux:0.0 i)
        pushes;
      let popped = ref [] in
      while not (Event_queue.is_empty q) do
        let payload = Event_queue.pop q in
        popped := (Event_queue.popped_time q, payload) :: !popped
      done;
      let popped = List.rev !popped in
      let expected =
        List.mapi (fun i (_, t) -> (t, i)) pushes
        |> List.stable_sort (fun (t1, _) (t2, _) -> Float.compare t1 t2)
      in
      popped = expected)

let prop_event_queue_sorted =
  QCheck.Test.make ~name:"pops are time-sorted" ~count:200
    QCheck.(
      list_of_size (Gen.int_range 0 100)
        (pair (int_range 0 5) (float_range 0.0 100.0)))
    (fun draws ->
      let lanes, pushes = lane_sorted_pushes draws in
      let q = Event_queue.create ~lanes in
      List.iter
        (fun (lane, t) -> Event_queue.push q ~lane ~time:t ~aux:0.0 0)
        pushes;
      let rec drain last =
        if Event_queue.is_empty q then true
        else begin
          let (_ : int) = Event_queue.pop q in
          let t = Event_queue.popped_time q in
          t >= last && drain t
        end
      in
      drain neg_infinity)

(* Random interleavings of pushes and pops over 1-6 lanes, against a
   naive reference that removes the minimum (time, insertion id) from a
   plain list. Each lane's times are non-decreasing steps of 0, 0.25 or
   0.5, so ties across lanes are common. The rings start at 16 slots, so
   runs of 300 operations also exercise growth and wrap-around. *)
let prop_event_queue_lane_merge =
  QCheck.Test.make ~name:"lane merge vs naive min"
    ~count:500
    QCheck.(
      pair (int_range 1 6)
        (list_of_size (Gen.int_range 0 300)
           (triple (int_range 0 2) (int_range 0 5) (int_range 0 2))))
    (fun (lanes, ops) ->
      let q = Event_queue.create ~lanes in
      let tails = Array.make lanes 0.0 in
      let pending = ref [] (* (time, id, lane) *) in
      let next_id = ref 0 in
      let pop_matches () =
        let (t, id, lane) as least =
          List.fold_left
            (fun ((bt, bid, _) as best) ((t, id, _) as e) ->
              if t < bt || (t = bt && id < bid) then e else best)
            (List.hd !pending) !pending
        in
        pending := List.filter (fun e -> e != least) !pending;
        let payload = Event_queue.pop q in
        payload = id
        && Event_queue.popped_time q = t
        && Event_queue.popped_aux q = float_of_int (-id)
        && Event_queue.popped_lane q = lane
      in
      let step ok (kind, lane, dt) =
        ok
        && (if kind = 0 && !pending <> [] then pop_matches ()
            else begin
              let lane = lane mod lanes in
              let t = tails.(lane) +. (0.25 *. float_of_int dt) in
              tails.(lane) <- t;
              let id = !next_id in
              incr next_id;
              Event_queue.push q ~lane ~time:t ~aux:(float_of_int (-id)) id;
              pending := (t, id, lane) :: !pending;
              true
            end)
        && Event_queue.is_empty q = (!pending = [])
      in
      let rec drain () = !pending = [] || (pop_matches () && drain ()) in
      List.fold_left step true ops && drain () && Event_queue.is_empty q)

(* -- Scoreboard -- *)

module Scoreboard = Sim.Scoreboard

(* The recovery walk the simulator made before it kept a scoreboard,
   kept as the oracle: every outstanding segment, from the newest down to
   snd_una, is in the pipe unless it has arrived or is scored lost (SACK
   evidence for a never-retransmitted segment, or a RACK timer on its
   latest transmission). The pipe is summed one MSS at a time. *)
let walk (sb : Scoreboard.t) ~now ~srtt ~mss =
  let rack_timeout = if srtt > 0.0 then 1.25 *. srtt else 1.0 in
  let pipe = ref 0.0 and holes = ref [] in
  for seq = sb.Scoreboard.next_seq - 1 downto sb.Scoreboard.snd_una do
    if not sb.Scoreboard.received.(seq) then begin
      let evidence =
        (not sb.Scoreboard.retransmitted.(seq))
        && seq <= sb.Scoreboard.rcv_high - 3
      in
      if evidence || now -. sb.Scoreboard.sent_at.(seq) > rack_timeout then
        holes := seq :: !holes
      else pipe := !pipe +. mss
    end
  done;
  (!pipe, match !holes with [] -> -1 | seq :: _ -> seq)

(* Random histories as the simulator makes them: the clock only moves
   forward (often by 0, so send times tie), new segments go out in order,
   retransmissions repair unreceived outstanding segments, any sent
   segment may arrive (again), and a cumulative ACK lands between snd_una
   and the receiver's cumulative point. After every step, the query's
   pipe and lowest hole must be the walk's. *)
let prop_scoreboard_matches_walk =
  QCheck.Test.make ~name:"scoreboard query = recovery walk" ~count:500
    QCheck.(
      list_of_size (Gen.int_range 0 400)
        (triple (int_range 0 5) (int_range 0 1000) (int_range 0 4)))
    (fun ops ->
      let mss = 1448.0 in
      let sb = Scoreboard.create () in
      let now = ref 0.0 in
      let srtts = [| 0.0; 0.01; 0.03; 0.08; 0.2 |] in
      let pick_unreceived k =
        let outstanding =
          List.filter
            (fun seq -> not sb.Scoreboard.received.(seq))
            (List.init
               (sb.Scoreboard.next_seq - sb.Scoreboard.snd_una)
               (fun i -> sb.Scoreboard.snd_una + i))
        in
        match outstanding with
        | [] -> None
        | l -> Some (List.nth l (k mod List.length l))
      in
      List.for_all
        (fun (kind, k, d) ->
          now := !now +. (0.01 *. float_of_int (d land 3));
          (match kind with
          | 0 | 1 -> ignore (Scoreboard.send sb ~now:!now : int)
          | 2 ->
              Option.iter
                (fun seq -> Scoreboard.retransmit sb seq ~now:!now)
                (pick_unreceived k)
          | 3 ->
              if sb.Scoreboard.next_seq > 0 then
                Scoreboard.receive sb (k mod sb.Scoreboard.next_seq)
          | _ ->
              let span = sb.Scoreboard.rcv_next - sb.Scoreboard.snd_una in
              Scoreboard.ack sb (sb.Scoreboard.snd_una + (k mod (span + 1))));
          let srtt = srtts.(d) in
          let pipe, hole = walk sb ~now:!now ~srtt ~mss in
          let n = Scoreboard.query sb ~now:!now ~srtt in
          float_of_int n *. mss = pipe && sb.Scoreboard.hole = hole)
        ops)

(* Every ACK observation, loss time and stats field of 60 random extended
   scenarios (1-4 s) under each of the 23 registered CCAs, folded into
   one digest. The pinned value is the simulator's before the recovery
   walk became a scoreboard and the event loop stopped boxing, so every
   later change to the loop must leave every simulated byte alone. *)
let test_sim_whole_run_digest () =
  let rng = Abg_util.Rng.create 2024 in
  let acc = Buffer.create 4096 in
  for i = 0 to 59 do
    let genome = Abg_fuzz.Genome.random rng in
    let duration = Abg_util.Rng.uniform rng 1.0 4.0 in
    let cfg = Abg_fuzz.Genome.to_config ~duration ~seed:(i + 1) genome in
    List.iter
      (fun (_, ctor) ->
        let buf = Buffer.create 65536 in
        let add x = Buffer.add_int64_le buf (Int64.bits_of_float x) in
        let observer =
          {
            Sim.on_ack_obs =
              (fun o ->
                Buffer.add_char buf 'a';
                add o.Sim.time;
                add o.Sim.cwnd;
                add o.Sim.in_flight;
                add o.Sim.acked_bytes;
                add o.Sim.rtt_sample);
            on_loss_obs =
              (fun ~time ->
                Buffer.add_char buf 'l';
                add time);
          }
        in
        let s = Sim.run ~observer cfg (ctor ~mss:cfg.Config.mss ()) in
        Buffer.add_char buf 's';
        List.iter
          (fun n -> Buffer.add_int64_le buf (Int64.of_int n))
          [ s.Sim.acks_processed; s.Sim.packets_dropped; s.Sim.loss_events;
            s.Sim.cross_dropped; s.Sim.events_processed; s.Sim.queue_peak ];
        List.iter add
          [ s.Sim.final_time; s.Sim.delivered_bytes;
            s.Sim.cross_delivered_bytes ];
        Buffer.add_string acc (Digest.string (Buffer.contents buf)))
      Abg_cca.Registry.all
  done;
  Alcotest.(check int) "every registered CCA" 23
    (List.length Abg_cca.Registry.all);
  Alcotest.(check string) "whole-run digest" "8c4cb7ecc9a6360a1fb32dffa6b995c4"
    (Digest.to_hex (Digest.string (Buffer.contents acc)))

(* -- Config -- *)

let test_config_bdp () =
  let cfg = quick_config () in
  Alcotest.(check (float 1.0)) "bdp" 62500.0 (Config.bdp cfg)

let test_config_grid_spans_ranges () =
  let grid = Config.testbed_grid ~n:25 () in
  let rtts = List.map (fun c -> c.Config.rtt_prop) grid in
  let bws = List.map (fun c -> c.Config.bandwidth_bps) grid in
  Alcotest.(check bool) "min rtt 10ms" true (List.mem 0.01 rtts);
  Alcotest.(check bool) "max rtt 100ms" true (List.mem 0.1 rtts);
  Alcotest.(check bool) "min bw 5M" true (List.mem 5e6 bws);
  Alcotest.(check bool) "max bw 15M" true (List.mem 15e6 bws)

let test_config_grid_subset () =
  let grid = Config.testbed_grid ~n:4 () in
  Alcotest.(check bool) "roughly n configs" true
    (List.length grid >= 3 && List.length grid <= 6)

(* Pin the exact n=5 testbed subset: the batch orchestrator's job
   digests (and so its journals and shard assignments) are derived from
   these configs, so any drift here silently invalidates persisted runs.
   If the grid must change, bump this test AND expect old run
   directories to re-execute everything on resume. *)
let test_config_grid_pinned_n5 () =
  let expected =
    (* (rtt_ms, bandwidth_mbps, seed): the even stride over the 25-point
       grid keeps every RTT at the lowest bandwidth. *)
    [
      (10.0, 5.0, 5010);
      (25.0, 5.0, 5025);
      (50.0, 5.0, 5050);
      (75.0, 5.0, 5075);
      (100.0, 5.0, 5100);
    ]
  in
  let grid = Config.testbed_grid ~n:5 () in
  Alcotest.(check int) "five configs" 5 (List.length grid);
  List.iter2
    (fun (rtt_ms, bw_mbps, seed) cfg ->
      Alcotest.(check (float 0.0)) "rtt" (rtt_ms /. 1000.0) cfg.Config.rtt_prop;
      Alcotest.(check (float 0.0)) "bw" (bw_mbps *. 1e6) cfg.Config.bandwidth_bps;
      Alcotest.(check int) "seed" seed cfg.Config.seed;
      Alcotest.(check (float 0.0)) "default ack jitter" 0.001
        cfg.Config.ack_jitter)
    expected grid;
  (* Seeded regression: the digests themselves, bit for bit. *)
  Alcotest.(check string) "first digest pinned"
    "0x1.312dp+22|0x1.47ae147ae147bp-7|12|0x1.6ap+10|0x1.ep+4|5010|0x0p+0|0x1.0624dd2f1a9fcp-10"
    (Config.digest (List.hd grid))

let test_config_digest_covers_every_field () =
  (* [Config.perturbations] is the exhaustiveness pact: one named
     single-field variant per record field (its record pattern makes the
     compiler force a new field into it). Check against both a plain
     §3.2 base and an already-extended one, so the v2 digest section is
     exercised too. *)
  let extended =
    {
      Config.default with
      Config.bandwidth_steps = [ (2.0, 8e6) ];
      cross = [ Config.Constant { rate_bps = 1e6 } ];
      outage_rate = 0.1;
      outage_duration = 0.1;
      reorder_prob = 0.02;
      reorder_delay = 0.01;
      qdisc = Config.Red { min_th = 4; max_th = 12; max_p = 0.1 };
    }
  in
  List.iter
    (fun base ->
      let variants = Config.perturbations base in
      Alcotest.(check (list string)) "exactly one perturbation per field"
        [ "bandwidth_bps"; "rtt_prop"; "queue_capacity"; "mss"; "duration";
          "seed"; "loss_rate"; "ack_jitter"; "bandwidth_steps"; "cross";
          "outage_rate"; "outage_duration"; "reorder_prob"; "reorder_delay";
          "qdisc" ]
        (List.map fst variants);
      List.iter
        (fun (field, v) ->
          Alcotest.(check bool)
            (field ^ " changes the digest")
            false
            (String.equal (Config.digest base) (Config.digest v)))
        variants;
      let digests = List.map (fun (_, v) -> Config.digest v) variants in
      Alcotest.(check int) "perturbed digests pairwise distinct"
        (List.length digests)
        (List.length (List.sort_uniq String.compare digests)))
    [ Config.testbed_grid ~n:1 () |> List.hd; extended ];
  let base = Config.testbed_grid ~n:1 () |> List.hd in
  (* In particular ack_jitter: an ULP-sized nudge must show. *)
  let nudged =
    { base with Config.ack_jitter = Float.succ base.Config.ack_jitter }
  in
  Alcotest.(check bool) "ack_jitter ULP visible" false
    (String.equal (Config.digest base) (Config.digest nudged))

let test_config_of_digest_roundtrip () =
  List.iter
    (fun cfg ->
      match Config.of_digest (Config.digest cfg) with
      | None -> Alcotest.fail "digest did not parse back"
      | Some cfg' ->
          Alcotest.(check string) "lossless inverse" (Config.digest cfg)
            (Config.digest cfg');
          Alcotest.(check bool) "structurally equal" true (cfg = cfg'))
    (Config.testbed_grid ~n:25 ()
    @ [
        { Config.default with Config.loss_rate = 0.015; ack_jitter = 0.25e-3 };
        (* extended configs round-trip through the v2 digest section *)
        {
          Config.default with
          Config.bandwidth_steps = [ (1.5, 4e6); (3.0, 12e6) ];
          cross =
            [
              Config.Constant { rate_bps = 2e6 };
              Config.On_off { rate_bps = 5e6; on_s = 1.0; off_s = 0.5 };
            ];
          outage_rate = 0.2;
          outage_duration = 0.15;
          reorder_prob = 0.03;
          reorder_delay = 0.02;
          qdisc = Config.Red { min_th = 5; max_th = 15; max_p = 0.1 };
        };
      ]);
  Alcotest.(check bool) "garbage rejected" true
    (Config.of_digest "not|a|config" = None)

(* A digest that parses but describes a config the simulator does not run
   exactly is refused: a non-finite float anywhere, a bandwidth, RTT or
   MSS at or below 0, or a fractional MSS. *)
let test_config_of_digest_refuses () =
  let extended =
    {
      Config.default with
      Config.bandwidth_steps = [ (1.5, 4e6) ];
      cross = [ Config.On_off { rate_bps = 5e6; on_s = 1.0; off_s = 0.5 } ];
      outage_rate = 0.2;
      outage_duration = 0.15;
      reorder_prob = 0.03;
      reorder_delay = 0.02;
      qdisc = Config.Red { min_th = 5; max_th = 15; max_p = 0.1 };
    }
  in
  let refused name cfg =
    Alcotest.(check bool) (name ^ " refused") true
      (Config.of_digest (Config.digest cfg) = None)
  in
  List.iter
    (fun x ->
      let base = Config.default in
      let ext = extended in
      let on_off = Config.On_off { rate_bps = 5e6; on_s = x; off_s = 0.5 } in
      List.iter
        (fun (name, cfg) -> refused (Printf.sprintf "%s %h" name x) cfg)
        [
          ("bandwidth_bps", { base with Config.bandwidth_bps = x });
          ("rtt_prop", { base with Config.rtt_prop = x });
          ("mss", { base with Config.mss = x });
          ("duration", { base with Config.duration = x });
          ("loss_rate", { base with Config.loss_rate = x });
          ("ack_jitter", { base with Config.ack_jitter = x });
          ("step time", { ext with Config.bandwidth_steps = [ (x, 4e6) ] });
          ("step rate", { ext with Config.bandwidth_steps = [ (1.5, x) ] });
          ("cross rate",
           { ext with Config.cross = [ Config.Constant { rate_bps = x } ] });
          ("on-off", { ext with Config.cross = [ on_off ] });
          ("outage_rate", { ext with Config.outage_rate = x });
          ("outage_duration", { ext with Config.outage_duration = x });
          ("reorder_prob", { ext with Config.reorder_prob = x });
          ("reorder_delay", { ext with Config.reorder_delay = x });
          ("max_p",
           { ext with
             Config.qdisc = Config.Red { min_th = 5; max_th = 15; max_p = x } });
        ])
    [ nan; infinity; neg_infinity ];
  List.iter
    (fun x ->
      refused "bandwidth" { Config.default with Config.bandwidth_bps = x };
      refused "rtt" { Config.default with Config.rtt_prop = x };
      refused "mss" { Config.default with Config.mss = x })
    [ 0.0; -0.0; -1.0 ];
  refused "fractional mss" { Config.default with Config.mss = 1448.5 };
  refused "extended fractional mss" { extended with Config.mss = 1448.5 };
  Alcotest.(check bool) "integral mss kept" true
    (Config.of_digest (Config.digest { extended with Config.mss = 1500.0 })
    <> None)

let test_config_rwnd () =
  let cfg = quick_config () in
  Alcotest.(check bool) "rwnd above capacity" true
    (Config.rwnd cfg
    > Config.bdp cfg +. (float_of_int cfg.Config.queue_capacity *. cfg.Config.mss))

(* -- Simulation -- *)

let run_reno ?duration ?bandwidth_mbps ?rtt_ms () =
  let cfg = quick_config ?duration ?bandwidth_mbps ?rtt_ms () in
  let cca = Abg_cca.Reno.create ~mss:cfg.Config.mss () in
  (cfg, Sim.run cfg cca)

let test_sim_progresses () =
  let _, stats = run_reno () in
  Alcotest.(check bool) "acks processed" true (stats.Sim.acks_processed > 100);
  Alcotest.(check bool) "bytes delivered" true (stats.Sim.delivered_bytes > 0.0)

let test_sim_utilization () =
  let cfg, stats = run_reno ~duration:10.0 () in
  let utilization =
    stats.Sim.delivered_bytes *. 8.0
    /. (cfg.Config.bandwidth_bps *. cfg.Config.duration)
  in
  Alcotest.(check bool) "reno fills the link" true (utilization > 0.8)

let test_sim_never_exceeds_link () =
  let cfg, stats = run_reno ~duration:10.0 () in
  Alcotest.(check bool) "<= link capacity" true
    (stats.Sim.delivered_bytes *. 8.0
    <= cfg.Config.bandwidth_bps *. cfg.Config.duration *. 1.02)

let test_sim_counters () =
  let _, stats = run_reno () in
  Alcotest.(check bool) "events processed" true
    (stats.Sim.events_processed > stats.Sim.acks_processed);
  Alcotest.(check bool) "queue peak recorded" true (stats.Sim.queue_peak > 1)

let test_sim_deterministic () =
  let _, s1 = run_reno () in
  let _, s2 = run_reno () in
  Alcotest.(check int) "same acks" s1.Sim.acks_processed s2.Sim.acks_processed;
  Alcotest.(check int) "same drops" s1.Sim.packets_dropped s2.Sim.packets_dropped

let test_sim_losses_with_small_queue () =
  let cfg =
    Config.make ~duration:10.0 ~queue_capacity:10 ~bandwidth_mbps:10.0
      ~rtt_ms:50.0 ()
  in
  let cca = Abg_cca.Reno.create ~mss:cfg.Config.mss () in
  let stats = Sim.run cfg cca in
  Alcotest.(check bool) "drops happen" true (stats.Sim.packets_dropped > 0);
  Alcotest.(check bool) "losses detected" true (stats.Sim.loss_events > 0)

let test_sim_tiny_window_no_loss () =
  (* A fixed 2-packet window can never overflow any sane queue. *)
  let cfg = quick_config () in
  let cca = Abg_cca.Student.student5 ~mss:cfg.Config.mss () in
  let stats = Sim.run cfg cca in
  Alcotest.(check int) "no drops" 0 stats.Sim.packets_dropped;
  Alcotest.(check int) "no losses" 0 stats.Sim.loss_events

let test_sim_random_loss () =
  let cfg = { (quick_config ~duration:10.0 ()) with Config.loss_rate = 0.01 } in
  let cca = Abg_cca.Student.student5 ~mss:cfg.Config.mss () in
  let stats = Sim.run cfg cca in
  Alcotest.(check bool) "iid losses recovered" true (stats.Sim.loss_events > 0);
  Alcotest.(check bool) "still delivers" true (stats.Sim.delivered_bytes > 0.0)

let test_sim_observer_sees_acks () =
  let cfg = quick_config ~duration:2.0 () in
  let cca = Abg_cca.Reno.create ~mss:cfg.Config.mss () in
  let count = ref 0 in
  let last_time = ref neg_infinity in
  let monotone = ref true in
  let observer =
    {
      Sim.on_ack_obs =
        (fun obs ->
          incr count;
          if obs.Sim.time < !last_time then monotone := false;
          last_time := obs.Sim.time;
          Alcotest.(check bool) "positive cwnd" true (obs.Sim.cwnd > 0.0));
      on_loss_obs = (fun ~time:_ -> ());
    }
  in
  let stats = Sim.run ~observer cfg cca in
  Alcotest.(check int) "observer count matches" stats.Sim.acks_processed !count;
  Alcotest.(check bool) "times monotone" true !monotone

let test_sim_rtt_at_least_propagation () =
  let cfg = quick_config ~duration:3.0 () in
  let cca = Abg_cca.Reno.create ~mss:cfg.Config.mss () in
  let ok = ref true in
  let observer =
    {
      Sim.on_ack_obs =
        (fun obs ->
          if obs.Sim.rtt_sample < cfg.Config.rtt_prop -. 1e-9 then ok := false);
      on_loss_obs = (fun ~time:_ -> ());
    }
  in
  ignore (Sim.run ~observer cfg cca);
  Alcotest.(check bool) "rtt >= propagation" true !ok

let test_sim_jitter_does_not_stall () =
  let cfg = { (quick_config ~duration:10.0 ()) with Config.ack_jitter = 0.002 } in
  let cca = Abg_cca.Reno.create ~mss:cfg.Config.mss () in
  let stats = Sim.run cfg cca in
  let utilization =
    stats.Sim.delivered_bytes *. 8.0
    /. (cfg.Config.bandwidth_bps *. cfg.Config.duration)
  in
  Alcotest.(check bool) "jittered run still fills link" true (utilization > 0.7)

(* The event loop's allocation budget. What it still allocates is the
   boxing of floats passed to and returned from calls the compiler does
   not inline (the CCA closures, and under the dev profile every call
   into another module); the simulator's own state boxes nothing. Reno on
   the classifier reference scenarios measured 40.1 minor words per event
   before the RNG state, the clock floats and the event queue were
   unboxed, about 15 after under the dev profile (13 under release), and
   10.8 (3.9) once recovery kept a scoreboard and queue pushes and RNG
   draws inlined. *)
let test_sim_allocation_budget () =
  let words = ref 0.0 and events = ref 0 in
  List.iter
    (fun cfg ->
      let cca = Abg_cca.Reno.create ~mss:cfg.Config.mss () in
      let before = Gc.minor_words () in
      let stats = Sim.run cfg cca in
      words := !words +. (Gc.minor_words () -. before);
      events := !events + stats.Sim.events_processed)
    (Abg_classifier.Gordon.reference_scenarios ());
  let per_event = !words /. float_of_int !events in
  if per_event > 20.0 then
    Alcotest.failf "%.1f minor words per event, budget 20" per_event

(* -- extended scenario space (cross traffic, reordering, RED, steps,
   outages) -- *)

let run_cfg cfg = Sim.run cfg (Abg_cca.Reno.create ~mss:cfg.Config.mss ())

let test_sim_cross_conservation () =
  let base = quick_config ~duration:10.0 () in
  let cfg =
    { base with Config.cross = [ Config.Constant { rate_bps = 6e6 } ] }
  in
  let stats = run_cfg cfg in
  Alcotest.(check bool) "cross traffic flows" true
    (stats.Sim.cross_delivered_bytes > 0.0);
  Alcotest.(check bool) "cca + cross never exceed the link" true
    ((stats.Sim.delivered_bytes +. stats.Sim.cross_delivered_bytes) *. 8.0
    <= cfg.Config.bandwidth_bps *. cfg.Config.duration *. 1.02);
  let alone = run_cfg base in
  Alcotest.(check bool) "competing flow squeezes the cca flow" true
    (stats.Sim.delivered_bytes < alone.Sim.delivered_bytes)

let test_sim_reordering_reorders () =
  (* A big queue rules out drops, yet held-back deliveries fire dup-ack
     runs: the loss signals can only come from actual reordering. *)
  let cfg =
    {
      (quick_config ~duration:10.0 ()) with
      Config.queue_capacity = 10_000;
      reorder_prob = 0.2;
      reorder_delay = 0.03;
    }
  in
  let stats = run_cfg cfg in
  Alcotest.(check int) "nothing dropped" 0 stats.Sim.packets_dropped;
  Alcotest.(check bool) "spurious loss signals observed" true
    (stats.Sim.loss_events > 0)

let test_sim_reorder_zero_knob_inert () =
  (* reorder_prob = 0 draws nothing even with a delay configured: the
     run is field-for-field identical to the seed simulator's. *)
  let base = quick_config ~duration:5.0 () in
  let cfg = { base with Config.reorder_delay = 0.02 } in
  Alcotest.(check bool) "bit-identical stats" true (run_cfg base = run_cfg cfg)

let test_sim_red_monotone () =
  let p = Sim.red_drop_probability ~min_th:5 ~max_th:15 ~max_p:0.1 in
  Alcotest.(check (float 0.0)) "zero below min_th" 0.0 (p 4.99);
  Alcotest.(check (float 0.0)) "certain above max_th" 1.0 (p 15.0);
  Alcotest.(check bool) "ramp caps at max_p" true (p 14.999 <= 0.1);
  let prev = ref 0.0 in
  let q = ref 0.0 in
  while !q <= 20.0 do
    let v = p !q in
    Alcotest.(check bool) "monotone in occupancy" true (v >= !prev);
    prev := v;
    q := !q +. 0.125
  done

let test_sim_red_drops_early () =
  (* With a hard capacity far beyond what the flow can build up, a
     DropTail queue admits everything — so every drop under an
     aggressive RED profile at the same capacity is probabilistic early
     dropping, not overflow. *)
  let base =
    { (quick_config ~duration:10.0 ()) with Config.queue_capacity = 10_000 }
  in
  let red =
    { base with Config.qdisc = Config.Red { min_th = 2; max_th = 20; max_p = 0.5 } }
  in
  let s_droptail = run_cfg base and s_red = run_cfg red in
  Alcotest.(check int) "droptail never overflows" 0
    s_droptail.Sim.packets_dropped;
  Alcotest.(check bool) "red sheds before the queue fills" true
    (s_red.Sim.packets_dropped > 0)

let test_sim_bandwidth_step_throttles () =
  let base = quick_config ~duration:10.0 () in
  let cfg = { base with Config.bandwidth_steps = [ (2.0, 1e6) ] } in
  let s = run_cfg cfg and s0 = run_cfg base in
  Alcotest.(check bool) "post-step ceiling binds" true
    (s.Sim.delivered_bytes < s0.Sim.delivered_bytes);
  Alcotest.(check bool) "stays within the stepped capacity" true
    (s.Sim.delivered_bytes <= Config.capacity_bytes cfg *. 1.02)

let test_sim_outages_stall () =
  let base = quick_config ~duration:10.0 () in
  let cfg = { base with Config.outage_rate = 0.4; outage_duration = 0.25 } in
  let s = run_cfg cfg and s0 = run_cfg base in
  Alcotest.(check bool) "outages cost throughput" true
    (s.Sim.delivered_bytes < s0.Sim.delivered_bytes);
  Alcotest.(check bool) "link recovers between outages" true
    (s.Sim.delivered_bytes > 0.0)

let qcheck tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let suites =
  [
    ( "netsim.event_queue",
      [
        Alcotest.test_case "ordering" `Quick test_event_queue_order;
        Alcotest.test_case "fifo on ties" `Quick test_event_queue_fifo_ties;
        Alcotest.test_case "popped metadata" `Quick
          test_event_queue_popped_metadata;
        Alcotest.test_case "push below lane tail" `Quick
          test_event_queue_push_below_tail;
      ]
      @ qcheck
          [
            prop_event_queue_sorted;
            prop_event_queue_reference_order;
            prop_event_queue_lane_merge;
          ] );
    ("netsim.scoreboard", qcheck [ prop_scoreboard_matches_walk ]);
    ( "netsim.config",
      [
        Alcotest.test_case "bdp" `Quick test_config_bdp;
        Alcotest.test_case "grid spans ranges" `Quick test_config_grid_spans_ranges;
        Alcotest.test_case "grid subset size" `Quick test_config_grid_subset;
        Alcotest.test_case "grid pinned n=5" `Quick test_config_grid_pinned_n5;
        Alcotest.test_case "digest covers every field" `Quick
          test_config_digest_covers_every_field;
        Alcotest.test_case "of_digest roundtrip" `Quick
          test_config_of_digest_roundtrip;
        Alcotest.test_case "of_digest refuses what is not simulable" `Quick
          test_config_of_digest_refuses;
        Alcotest.test_case "rwnd above capacity" `Quick test_config_rwnd;
      ] );
    ( "netsim.sim",
      [
        Alcotest.test_case "progresses" `Quick test_sim_progresses;
        Alcotest.test_case "utilization" `Quick test_sim_utilization;
        Alcotest.test_case "never exceeds link" `Quick test_sim_never_exceeds_link;
        Alcotest.test_case "deterministic" `Quick test_sim_deterministic;
        Alcotest.test_case "event counters" `Quick test_sim_counters;
        Alcotest.test_case "small queue loses" `Quick test_sim_losses_with_small_queue;
        Alcotest.test_case "tiny window lossless" `Quick test_sim_tiny_window_no_loss;
        Alcotest.test_case "iid loss recovery" `Quick test_sim_random_loss;
        Alcotest.test_case "observer stream" `Quick test_sim_observer_sees_acks;
        Alcotest.test_case "rtt floor" `Quick test_sim_rtt_at_least_propagation;
        Alcotest.test_case "jitter no stall" `Quick test_sim_jitter_does_not_stall;
        Alcotest.test_case "allocation budget" `Quick test_sim_allocation_budget;
        Alcotest.test_case "whole-run digest pinned" `Quick
          test_sim_whole_run_digest;
      ] );
    ( "netsim.extended",
      [
        Alcotest.test_case "cross-traffic conservation" `Quick
          test_sim_cross_conservation;
        Alcotest.test_case "reordering reorders" `Quick
          test_sim_reordering_reorders;
        Alcotest.test_case "zero reorder knob inert" `Quick
          test_sim_reorder_zero_knob_inert;
        Alcotest.test_case "red ramp monotone" `Quick test_sim_red_monotone;
        Alcotest.test_case "red drops early" `Quick test_sim_red_drops_early;
        Alcotest.test_case "bandwidth step throttles" `Quick
          test_sim_bandwidth_step_throttles;
        Alcotest.test_case "outages stall" `Quick test_sim_outages_stall;
      ] );
  ]
