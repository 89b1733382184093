(** Point-to-point distances: Euclidean and Manhattan.

    Both compare series position-by-position (no temporal alignment), so
    they are cheap but sensitive to phase shifts — the weakness Figure 3
    quantifies against DTW. Series must have equal lengths (use
    {!Series.prepare_truth}).

    [?cutoff] abandons early once the partial sum already proves the
    distance (strictly) exceeds the cutoff, returning [infinity]; results
    at or below the cutoff are exact. For Euclidean the comparison is
    done on the squared sum against [cutoff *. cutoff], avoiding a sqrt
    per check. *)

(* Telemetry: deterministic call and early-abandon counts per metric. *)
let obs_calls = Abg_obs.Obs.Counter.make "distance.pointwise.calls"

let obs_abandoned =
  Abg_obs.Obs.Counter.make "distance.pointwise.abandoned"

let euclidean ?(cutoff = infinity) a b =
  let n = Array.length a in
  assert (n = Array.length b);
  if n = 0 then infinity
  else begin
    let cut2 = if cutoff = infinity then infinity else cutoff *. cutoff in
    let acc = ref 0.0 in
    let i = ref 0 in
    while !acc <= cut2 && !i < n do
      let d = a.(!i) -. b.(!i) in
      acc := !acc +. (d *. d);
      incr i
    done;
    Abg_obs.Obs.Counter.incr obs_calls;
    if !acc > cut2 then begin
      Abg_obs.Obs.Counter.incr obs_abandoned;
      infinity
    end
    else sqrt !acc
  end

let manhattan ?(cutoff = infinity) a b =
  let n = Array.length a in
  assert (n = Array.length b);
  if n = 0 then infinity
  else begin
    let acc = ref 0.0 in
    let i = ref 0 in
    while !acc <= cutoff && !i < n do
      acc := !acc +. Float.abs (a.(!i) -. b.(!i));
      incr i
    done;
    Abg_obs.Obs.Counter.incr obs_calls;
    if !acc > cutoff then begin
      Abg_obs.Obs.Counter.incr obs_abandoned;
      infinity
    end
    else !acc
  end
