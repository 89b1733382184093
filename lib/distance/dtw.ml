(** Dynamic Time Warping distance (Berndt & Clifford, KDD '94) — the
    paper's primary metric (§4.3).

    DTW finds the minimum-cost monotone alignment between two series, so
    it forgives temporal shifts — exactly the tolerance needed when a
    candidate handler reproduces the right window *shape* slightly out of
    phase with the measured trace (Figure 4's discussion). Cost of a
    matched pair is |a - b|; the total is the sum along the optimal
    warping path.

    The optional Sakoe–Chiba [band] constrains |i - j| <= band, cutting
    cost from O(nm) to O(n*band) and preventing degenerate alignments;
    [band = None] computes the exact unconstrained distance.

    [?cutoff] enables early abandonment for the scoring loop's
    best-so-far threshold: every warping path visits at least one cell of
    each row, and cumulative costs are nondecreasing along a path, so the
    final distance is bounded below by each row's minimum. As soon as a
    row's minimum (strictly) exceeds the cutoff the candidate is known
    worse than the incumbent and the scan stops, returning [infinity].
    Whenever the true distance is <= cutoff the result is exact. *)

(* Telemetry: calls, DP cells evaluated, and early-abandon hits. Cells
   are accumulated in a local int (one add per row, noise next to the
   row's float work) and published once per call; all three counts are
   deterministic — the band depends only on the lengths and the abandon
   row only on the incumbent cutoff, which the scoring loop threads
   deterministically. *)
let obs_calls = Abg_obs.Obs.Counter.make "distance.dtw.calls"
let obs_cells = Abg_obs.Obs.Counter.make "distance.dtw.cells"
let obs_abandoned = Abg_obs.Obs.Counter.make "distance.dtw.abandoned"

let distance ?band ?(cutoff = infinity) a b =
  let n = Array.length a and m = Array.length b in
  if n = 0 || m = 0 then infinity
  else begin
    let w =
      match band with
      | None -> Stdlib.max n m
      | Some w -> Stdlib.max w (abs (n - m))
    in
    (* Rolling two-row DP over the (n+1) x (m+1) cost lattice. Rows are
       swapped, not copied, so each iteration touches only the band plus
       one sentinel on either side: the band shifts by at most one cell
       per row, hence reads never escape [lo-1 .. hi+1] of either row. *)
    let prev = ref (Array.make (m + 1) infinity) in
    let cur = ref (Array.make (m + 1) infinity) in
    !prev.(0) <- 0.0;
    let abandoned = ref false in
    let cells = ref 0 in
    let i = ref 1 in
    while (not !abandoned) && !i <= n do
      let p = !prev and c = !cur in
      let lo = Stdlib.max 1 (!i - w) and hi = Stdlib.min m (!i + w) in
      cells := !cells + (hi - lo + 1);
      (* Sentinels: stale cells from two rows ago must read as +inf. *)
      c.(lo - 1) <- infinity;
      if hi < m then c.(hi + 1) <- infinity;
      let ai = a.(!i - 1) in
      let row_min = ref infinity in
      (* [left] carries c.(j - 1) across iterations — the value the
         previous iteration just wrote — so the hot loop reads each array
         once. Indices are in range by construction (1 <= lo <= j <= hi
         <= m against rows of length m + 1 and b of length m), so the
         accesses are unchecked: this loop is the process's single
         hottest path when the serving layer is scoring windows. *)
      let left = ref (Array.unsafe_get c (lo - 1)) in
      for j = lo to hi do
        let cost = Float.abs (ai -. Array.unsafe_get b (j - 1)) in
        let pj = Array.unsafe_get p j in
        let pd = Array.unsafe_get p (j - 1) in
        let b1 = if pj < !left then pj else !left in
        let best = if b1 < pd then b1 else pd in
        let v = cost +. best in
        Array.unsafe_set c j v;
        left := v;
        if v < !row_min then row_min := v
      done;
      if !row_min > cutoff then abandoned := true
      else begin
        prev := c;
        cur := p
      end;
      incr i
    done;
    Abg_obs.Obs.Counter.incr obs_calls;
    Abg_obs.Obs.Counter.add obs_cells !cells;
    if !abandoned then begin
      Abg_obs.Obs.Counter.incr obs_abandoned;
      infinity
    end
    else !prev.(m)
  end
