(** A CDCL SAT solver: the enumeration engine behind sketch search.

    The paper iteratively queries Z3 for models of a quantifier-free
    finite-domain formula, blocking each returned sketch (§4.1). This
    module provides the same capability from scratch: a conflict-driven
    clause-learning solver in the MiniSat lineage — two-literal watches,
    VSIDS branching over a binary heap, first-UIP learning, phase saving
    and Luby restarts. Enumeration drives thousands of solve calls against
    one instance, so the solver is built to stay incremental: clauses can
    be added at any point (backtracking only as far as the new clause
    demands, so the trail survives), the trail itself is kept across
    {!solve} calls and re-entered when the assumption list is unchanged,
    the learnt-clause database is bounded by activity-driven reduction,
    and clauses can be registered under a retractable {!group} whose
    selector literal is passed as an assumption.

    External literal convention is DIMACS-like: variables are positive
    integers from {!new_var}; a positive literal [v] asserts the variable,
    [-v] negates it.

    Internal conventions (MiniSat-style):
    - literal encoding: [2*var] positive, [2*var+1] negative, vars 0-based;
    - every clause watches its first two literals; watch lists are indexed
      by the *watched literal*, revisited when that literal becomes false;
    - for any clause that acted as a propagation reason, the propagated
      literal sits at index 0;
    - a deleted clause slot holds [[||]] and is never revisited (its
      watches are unhooked at deletion time). *)

type lbool = Unknown | True | False

type t = {
  mutable clauses : int array array;
  mutable learnt_mark : Bytes.t;  (** parallel to [clauses]: 1 if learnt *)
  mutable cla_act : float array;  (** parallel to [clauses]: learnt activity *)
  mutable n_clauses : int;
  (* Watch lists, one growable int vector per internal literal, storing
     [w_len.(lit)] (clause index, blocker literal) pairs interleaved:
     [w_data.(lit).(2k)] is the clause index, [w_data.(lit).(2k+1)] a
     "blocker" — some other literal of the clause; when it is currently
     true the clause is satisfied and the visit skips the clause array
     entirely (MiniSat 2.2's trick). Flat arrays keep propagation
     allocation-free — the inner loop compacts in place instead of
     rebuilding a list. *)
  mutable w_data : int array array;
  mutable w_len : int array;
  mutable n_vars : int;
  mutable assign : lbool array;
  mutable level : int array;
  mutable reason : int array;  (** clause index, or -1 for decisions *)
  mutable trail : int array;
  mutable trail_size : int;
  mutable trail_lim : int list;  (** trail sizes at decisions, newest first *)
  mutable n_levels : int;  (** [List.length trail_lim], maintained in O(1) *)
  mutable qhead : int;
  mutable activity : float array;
  mutable var_inc : float;
  mutable cla_inc : float;
  mutable polarity : bool array;
  mutable seen : bool array;
  (* Branching order: binary max-heap on (activity desc, var asc);
     [heap_pos.(v)] is v's index in [heap], or -1 when absent. *)
  mutable heap : int array;
  mutable heap_size : int;
  mutable heap_pos : int array;
  mutable ok : bool;
  (* Incremental-enumeration bookkeeping: the trail survives between
     [solve] calls, and the leading [n_assump_levels] decision levels are
     known to be the assumption literals [assump.(0..n_assump_levels-1)].
     [cancel_until] truncates the count whenever it pops below it. *)
  mutable assump : int array;  (** internal literals *)
  mutable n_assump_levels : int;
  mutable model_buf : bool array;  (** reused by [model_of] across calls *)
  mutable model_cap : int;  (** highest variable [model_of] reports *)
  (* Search-effort statistics. *)
  mutable conflicts : int;
  mutable propagations : int;
  mutable learnts_total : int;
  mutable learnts_live : int;
  mutable db_reductions : int;
  mutable max_learnts : int;
}

(* Telemetry: process-wide solver-effort counters. All four are
   deterministic for a fixed workload and seed — the solver itself is
   sequential and its behavior depends only on the clause/assumption
   sequence — so they sit in the deterministic section the CI telemetry
   gate diffs. *)
let obs_propagations = Abg_obs.Obs.Counter.make "sat.propagations"
let obs_conflicts = Abg_obs.Obs.Counter.make "sat.conflicts"
let obs_learnts = Abg_obs.Obs.Counter.make "sat.learnts"
let obs_db_reductions = Abg_obs.Obs.Counter.make "sat.db_reductions"

let create () =
  {
    clauses = Array.make 256 [||];
    learnt_mark = Bytes.make 256 '\000';
    cla_act = Array.make 256 0.0;
    n_clauses = 0;
    w_data = Array.make 64 [||];
    w_len = Array.make 64 0;
    n_vars = 0;
    assign = Array.make 32 Unknown;
    level = Array.make 32 0;
    reason = Array.make 32 (-1);
    trail = Array.make 32 0;
    trail_size = 0;
    trail_lim = [];
    n_levels = 0;
    qhead = 0;
    activity = Array.make 32 0.0;
    var_inc = 1.0;
    cla_inc = 1.0;
    polarity = Array.make 32 false;
    seen = Array.make 32 false;
    heap = Array.make 32 0;
    heap_size = 0;
    heap_pos = Array.make 32 (-1);
    ok = true;
    assump = [||];
    n_assump_levels = 0;
    model_buf = [||];
    model_cap = max_int;
    conflicts = 0;
    propagations = 0;
    learnts_total = 0;
    learnts_live = 0;
    db_reductions = 0;
    max_learnts = 2048;
  }

let var_of lit = lit lsr 1
let is_neg lit = lit land 1 = 1
let negate lit = lit lxor 1

let to_internal ext =
  assert (ext <> 0);
  let v = abs ext - 1 in
  if ext > 0 then 2 * v else (2 * v) + 1

(* -- Branching-order heap -- *)

(* Strict total priority order: higher activity first, lower variable
   index on ties — the same choice the old linear argmax scan made, kept
   so decision sequences are reproducible.

   Both sifts move a hole rather than swapping pairs: the moving
   variable and its activity are read once, each displaced entry moves
   one slot (and its [heap_pos] with it), and the variable is written
   once where the sift stops. That leaves exactly the array pairwise
   swaps would, so every pop, decision and model is unchanged. The
   sifts allocate nothing; heap indices below [heap_size] are read
   unchecked. *)
let heap_sift_up s i =
  let heap = s.heap and pos = s.heap_pos and act = s.activity in
  let v = Array.unsafe_get heap i in
  let av = act.(v) in
  let i = ref i and moving = ref true in
  while !moving && !i > 0 do
    let p = (!i - 1) / 2 in
    let pv = Array.unsafe_get heap p in
    let ap = act.(pv) in
    if av > ap || (av = ap && v < pv) then begin
      Array.unsafe_set heap !i pv;
      pos.(pv) <- !i;
      i := p
    end
    else moving := false
  done;
  Array.unsafe_set heap !i v;
  pos.(v) <- !i

let heap_sift_down s i =
  let heap = s.heap and pos = s.heap_pos and act = s.activity in
  let n = s.heap_size in
  let v = Array.unsafe_get heap i in
  let av = act.(v) in
  let i = ref i and moving = ref true in
  while !moving && (2 * !i) + 1 < n do
    let l = (2 * !i) + 1 in
    let r = l + 1 in
    let c =
      if r < n then begin
        let lv = Array.unsafe_get heap l and rv = Array.unsafe_get heap r in
        let al = act.(lv) and ar = act.(rv) in
        if ar > al || (ar = al && rv < lv) then r else l
      end
      else l
    in
    let cv = Array.unsafe_get heap c in
    let ac = act.(cv) in
    if ac > av || (ac = av && cv < v) then begin
      Array.unsafe_set heap !i cv;
      pos.(cv) <- !i;
      i := c
    end
    else moving := false
  done;
  Array.unsafe_set heap !i v;
  pos.(v) <- !i

let heap_insert s v =
  if s.heap_pos.(v) < 0 then begin
    s.heap.(s.heap_size) <- v;
    s.heap_pos.(v) <- s.heap_size;
    s.heap_size <- s.heap_size + 1;
    heap_sift_up s (s.heap_size - 1)
  end

let heap_pop s =
  let v = s.heap.(0) in
  s.heap_size <- s.heap_size - 1;
  s.heap_pos.(v) <- -1;
  if s.heap_size > 0 then begin
    let last = s.heap.(s.heap_size) in
    s.heap.(0) <- last;
    s.heap_pos.(last) <- 0;
    heap_sift_down s 0
  end;
  v

let grow_arrays s =
  let old = Array.length s.assign in
  if s.n_vars > old then begin
    let n = Stdlib.max (2 * old) s.n_vars in
    let grow a fill =
      let b = Array.make n fill in
      Array.blit a 0 b 0 old;
      b
    in
    s.assign <- grow s.assign Unknown;
    s.level <- grow s.level 0;
    s.reason <- grow s.reason (-1);
    s.activity <- grow s.activity 0.0;
    s.polarity <- grow s.polarity false;
    s.seen <- grow s.seen false;
    s.heap_pos <- grow s.heap_pos (-1);
    let heap = Array.make n 0 in
    Array.blit s.heap 0 heap 0 s.heap_size;
    s.heap <- heap;
    let trail = Array.make n 0 in
    Array.blit s.trail 0 trail 0 s.trail_size;
    s.trail <- trail
  end;
  let old_w = Array.length s.w_data in
  if 2 * s.n_vars > old_w then begin
    let cap = Stdlib.max (2 * old_w) (2 * s.n_vars) in
    let w = Array.make cap [||] in
    Array.blit s.w_data 0 w 0 old_w;
    s.w_data <- w;
    let l = Array.make cap 0 in
    Array.blit s.w_len 0 l 0 old_w;
    s.w_len <- l
  end

(** [new_var s] allocates a fresh variable (a positive integer usable as a
    literal). *)
let new_var s =
  s.n_vars <- s.n_vars + 1;
  grow_arrays s;
  heap_insert s (s.n_vars - 1);
  s.n_vars

let value_lit s lit =
  match s.assign.(var_of lit) with
  | Unknown -> Unknown
  | True -> if is_neg lit then False else True
  | False -> if is_neg lit then True else False

(* Tag checks, not [(=)]: structural equality on a variant is a C call
   (caml_equal), and these run millions of times inside propagation. *)
let lb_true = function True -> true | _ -> false
let lb_false = function False -> true | _ -> false
let lb_unknown = function Unknown -> true | _ -> false

let decision_level s = s.n_levels

let enqueue s lit reason =
  let v = var_of lit in
  s.assign.(v) <- (if is_neg lit then False else True);
  s.level.(v) <- s.n_levels;
  s.reason.(v) <- reason;
  s.trail.(s.trail_size) <- lit;
  s.trail_size <- s.trail_size + 1

let push_clause s arr =
  if s.n_clauses = Array.length s.clauses then begin
    let cap = 2 * s.n_clauses in
    let c = Array.make cap [||] in
    Array.blit s.clauses 0 c 0 s.n_clauses;
    s.clauses <- c;
    let m = Bytes.make cap '\000' in
    Bytes.blit s.learnt_mark 0 m 0 s.n_clauses;
    s.learnt_mark <- m;
    let a = Array.make cap 0.0 in
    Array.blit s.cla_act 0 a 0 s.n_clauses;
    s.cla_act <- a
  end;
  s.clauses.(s.n_clauses) <- arr;
  Bytes.set s.learnt_mark s.n_clauses '\000';
  s.cla_act.(s.n_clauses) <- 0.0;
  s.n_clauses <- s.n_clauses + 1;
  s.n_clauses - 1

(* Watch lists are indexed by the watched literal: the clause is revisited
   when that literal becomes false. [blocker] is another literal of the
   clause (conventionally the other watch at registration time). *)
let watch s lit idx blocker =
  let d = s.w_data.(lit) in
  let n = s.w_len.(lit) in
  let d =
    if 2 * n = Array.length d then begin
      let d' = Array.make (Stdlib.max 8 (4 * n)) 0 in
      Array.blit d 0 d' 0 (2 * n);
      s.w_data.(lit) <- d';
      d'
    end
    else d
  in
  d.(2 * n) <- idx;
  d.((2 * n) + 1) <- blocker;
  s.w_len.(lit) <- n + 1

(* Cold path (clause deletion only): drop [idx], preserving order so the
   deterministic revisit sequence is unaffected for the survivors. *)
let unwatch s lit idx =
  let d = s.w_data.(lit) in
  let n = s.w_len.(lit) in
  let j = ref 0 in
  for i = 0 to n - 1 do
    if d.(2 * i) <> idx then begin
      d.(2 * !j) <- d.(2 * i);
      d.((2 * !j) + 1) <- d.((2 * i) + 1);
      incr j
    end
  done;
  s.w_len.(lit) <- !j

let cancel_until s target_level =
  let dl = decision_level s in
  if dl > target_level then begin
    let rec pop n lim =
      match (n, lim) with
      | 1, sz :: tl -> (sz, tl)
      | n, _ :: tl -> pop (n - 1) tl
      | _, [] -> assert false
    in
    let target_size, keep = pop (dl - target_level) s.trail_lim in
    for i = s.trail_size - 1 downto target_size do
      let v = var_of s.trail.(i) in
      s.polarity.(v) <- lb_true s.assign.(v);
      s.assign.(v) <- Unknown;
      s.reason.(v) <- -1;
      heap_insert s v
    done;
    s.trail_size <- target_size;
    s.qhead <- target_size;
    s.trail_lim <- keep;
    s.n_levels <- target_level;
    if target_level < s.n_assump_levels then s.n_assump_levels <- target_level
  end

(* Core clause insertion over external literals; returns the stored clause
   index, or -1 when nothing was stored (tautology, satisfied at the root
   level, unit or empty). The trail is preserved as far as possible: a
   clause with two non-false literals is installed without backtracking at
   all, and a clause falsified by the current (possibly deep) assignment
   backtracks only far enough to become unit — so enumeration's blocking
   clauses keep almost the whole trail, and the following [solve] resumes
   instead of re-deriving ~every assignment from scratch. *)
let add_clause_core s ext_lits =
  if not s.ok then -1
  else begin
    let lits =
      List.sort_uniq
        (fun (a : int) b -> Stdlib.compare a b)
        (List.map to_internal ext_lits)
    in
    (* Complementary literals sort adjacently in the internal encoding
       ([2v] directly below [2v+1]), so one pass finds tautologies. *)
    let rec tautology = function
      | a :: (b :: _ as tl) -> b = negate a || tautology tl
      | _ -> false
    in
    if tautology lits then -1
    else begin
      (* Root-level assignments are permanent: false-at-root literals can
         be removed, a true-at-root literal satisfies the clause forever. *)
      let root_true l = lb_true (value_lit s l) && s.level.(var_of l) = 0 in
      let root_false l = lb_false (value_lit s l) && s.level.(var_of l) = 0 in
      if List.exists root_true lits then -1
      else begin
        let lits = List.filter (fun l -> not (root_false l)) lits in
        match lits with
        | [] ->
            if decision_level s > 0 then cancel_until s 0;
            s.ok <- false;
            -1
        | [ l ] ->
            (* A unit is a permanent fact: assert it at the root level
               (and keep root propagation eager so later adds see it). *)
            if decision_level s > 0 then cancel_until s 0;
            (match value_lit s l with
            | True -> ()
            | False -> s.ok <- false
            | Unknown -> enqueue s l (-1));
            -1
        | _ ->
            let arr = Array.of_list lits in
            let n = Array.length arr in
            (* Partition non-false (watchable) literals to the front. *)
            let partition () =
              let free = ref 0 in
              for j = 0 to n - 1 do
                if not (lb_false (value_lit s arr.(j))) then begin
                  let t = arr.(!free) in
                  arr.(!free) <- arr.(j);
                  arr.(j) <- t;
                  incr free
                end
              done;
              !free
            in
            (* Move the highest-level literal within [arr.(from..)] to
               [arr.(from)] (watching it keeps the clause revisited as
               early as possible on future backtracks). *)
            let hoist_deepest from =
              for j = from + 1 to n - 1 do
                if s.level.(var_of arr.(j)) > s.level.(var_of arr.(from))
                then begin
                  let t = arr.(from) in
                  arr.(from) <- arr.(j);
                  arr.(j) <- t
                end
              done
            in
            let free = partition () in
            let free =
              if free > 0 then free
              else begin
                (* Falsified by the current assignment: backtrack just far
                   enough to free the deepest literal(s) — to below the
                   top level when several literals sit there, to the
                   second-highest level otherwise (the clause then becomes
                   unit). Root-false literals were filtered out above, so
                   the top level is >= 1 and the target >= 0. *)
                let l1 = ref 0 and c1 = ref 0 and l2 = ref 0 in
                Array.iter
                  (fun l ->
                    let lv = s.level.(var_of l) in
                    if lv > !l1 then begin
                      l2 := !l1;
                      l1 := lv;
                      c1 := 1
                    end
                    else if lv = !l1 then incr c1
                    else if lv > !l2 then l2 := lv)
                  arr;
                cancel_until s (if !c1 >= 2 then !l1 - 1 else !l2);
                partition ()
              end
            in
            if free = 1 then hoist_deepest 1
            else if free >= 2 then hoist_deepest 2;
            let idx = push_clause s arr in
            watch s arr.(0) idx arr.(1);
            watch s arr.(1) idx arr.(0);
            (* Exactly one watchable literal left: the clause is unit
               under the current assignment — propagate it now, with the
               clause as reason ([arr.(0)] holds the propagated literal,
               as the watching invariant requires of reasons). *)
            if free = 1 && lb_unknown (value_lit s arr.(0)) then
              enqueue s arr.(0) idx;
            idx
      end
    end
  end

(** [add_clause s lits] adds a clause over external literals, at any time:
    mid-enumeration it backtracks only as far as the new clause demands
    (not at all when two of its literals are unassigned or true), keeping
    the solver's trail — and hence the next [solve]'s incremental resume —
    intact. *)
let add_clause s ext_lits = ignore (add_clause_core s ext_lits)

(* -- Retractable clause groups -- *)

type group = { sel : int; mutable members : int list; mutable retired : bool }

(** [new_group s] allocates a clause group: a fresh selector variable
    plus the (initially empty) set of clauses guarded by it. *)
let new_group s = { sel = new_var s; members = []; retired = false }

(** The selector literal: pass it as an assumption to activate the
    group's clauses for one solve call. *)
let group_lit g = g.sel

(** [add_clause_in s g lits] stores [¬sel ∨ lits]: the clause is inert
    unless [group_lit g] is assumed. *)
let add_clause_in s g ext_lits =
  if g.retired then invalid_arg "Solver.add_clause_in: retired group";
  let idx = add_clause_core s (-g.sel :: ext_lits) in
  if idx >= 0 then g.members <- idx :: g.members

(* Physically delete a stored clause: unhook its two watches and leave an
   empty slot. Safe at the root level — [analyze] never dereferences the
   reason of a root-level assignment, which is the only place a deleted
   index could still be recorded. *)
let delete_clause s idx =
  let c = s.clauses.(idx) in
  if Array.length c > 0 then begin
    unwatch s c.(0) idx;
    unwatch s c.(1) idx;
    s.clauses.(idx) <- [||];
    if Bytes.get s.learnt_mark idx = '\001' then
      s.learnts_live <- s.learnts_live - 1
  end

(** [retire_group s g] permanently deactivates the group: its clauses are
    physically deleted and the selector is pinned false (which also
    satisfies — forever — any learnt clause derived from the group, since
    every such learnt contains [¬sel]; the selector never occurs
    positively, so resolution cannot eliminate it). Idempotent. *)
let retire_group s g =
  if not g.retired then begin
    g.retired <- true;
    if decision_level s > 0 then cancel_until s 0;
    List.iter (fun idx -> delete_clause s idx) g.members;
    g.members <- [];
    add_clause s [ -g.sel ]
  end

(* Boolean constraint propagation. Returns a conflicting clause index or
   -1. The watch vector of the falsified literal is compacted in place:
   entries that keep watching it are copied down over the ones that moved
   to another literal — no allocation on the hot path. *)
let propagate s =
  let conflict = ref (-1) in
  let processed = ref 0 in
  while !conflict < 0 && s.qhead < s.trail_size do
    let lit = s.trail.(s.qhead) in
    s.qhead <- s.qhead + 1;
    incr processed;
    let falsified = negate lit in
    let d = s.w_data.(falsified) in
    let n = s.w_len.(falsified) in
    let i = ref 0 and j = ref 0 in
    (* The (clause, blocker) pairs that stay are re-stored at the write
       cursor [j], inline because this loop runs millions of times; while
       no pair has left the vector ([j] still tracks [i]) the copy-back
       would rewrite each slot with its own value, so it is skipped —
       watch moves are rare (a few percent of visits) and this keeps the
       dominant all-kept pass read-only. *)
    while !i < n do
      let idx = d.(2 * !i) in
      let blocker = d.((2 * !i) + 1) in
      incr i;
      if lb_true (value_lit s blocker) then begin
        (* Blocker true: the clause is satisfied, no need to touch it. *)
        if !j + 1 < !i then begin
          d.(2 * !j) <- idx;
          d.((2 * !j) + 1) <- blocker
        end;
        incr j
      end
      else begin
        let c = s.clauses.(idx) in
        if c.(0) = falsified then begin
          c.(0) <- c.(1);
          c.(1) <- falsified
        end;
        if lb_true (value_lit s c.(0)) then begin
          d.(2 * !j) <- idx;
          d.((2 * !j) + 1) <- c.(0);
          incr j
        end
        else begin
          let len = Array.length c in
          let found = ref false in
          let k = ref 2 in
          while (not !found) && !k < len do
            if not (lb_false (value_lit s c.(!k))) then begin
              c.(1) <- c.(!k);
              c.(!k) <- falsified;
              (* [c.(1)] differs from [falsified] (it is non-false), so
                 this append never touches the vector being compacted. *)
              watch s c.(1) idx c.(0);
              found := true
            end;
            incr k
          done;
          if not !found then begin
            d.(2 * !j) <- idx;
            d.((2 * !j) + 1) <- c.(0);
            incr j;
            if lb_false (value_lit s c.(0)) then begin
              conflict := idx;
              (* Keep the unvisited tail watching [falsified]. *)
              while !i < n do
                d.(2 * !j) <- d.(2 * !i);
                d.((2 * !j) + 1) <- d.((2 * !i) + 1);
                incr i;
                incr j
              done;
              s.qhead <- s.trail_size
            end
            else enqueue s c.(0) idx
          end
        end
      end
    done;
    s.w_len.(falsified) <- !j
  done;
  s.propagations <- s.propagations + !processed;
  Abg_obs.Obs.Counter.add obs_propagations !processed;
  !conflict

let bump_var s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    (* Uniform rescaling preserves the heap order. *)
    for i = 0 to s.n_vars - 1 do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  if s.heap_pos.(v) >= 0 then heap_sift_up s s.heap_pos.(v)

let decay_activities s =
  s.var_inc <- s.var_inc /. 0.95;
  s.cla_inc <- s.cla_inc /. 0.999

let bump_clause s idx =
  if Bytes.get s.learnt_mark idx = '\001' then begin
    s.cla_act.(idx) <- s.cla_act.(idx) +. s.cla_inc;
    if s.cla_act.(idx) > 1e20 then begin
      for i = 0 to s.n_clauses - 1 do
        s.cla_act.(i) <- s.cla_act.(i) *. 1e-20
      done;
      s.cla_inc <- s.cla_inc *. 1e-20
    end
  end

(* First-UIP conflict analysis. Returns the learnt clause (asserting
   literal first) and the backjump level. *)
let analyze s conflict_idx =
  let learnt_rest = ref [] in
  let counter = ref 0 in
  let trail_pos = ref (s.trail_size - 1) in
  let idx = ref conflict_idx in
  let skip_head = ref false in
  let asserting = ref 0 in
  let dl = decision_level s in
  let continue = ref true in
  while !continue do
    bump_clause s !idx;
    let c = s.clauses.(!idx) in
    let start = if !skip_head then 1 else 0 in
    for j = start to Array.length c - 1 do
      let q = c.(j) in
      let v = var_of q in
      if (not s.seen.(v)) && s.level.(v) > 0 then begin
        s.seen.(v) <- true;
        bump_var s v;
        if s.level.(v) >= dl then incr counter
        else learnt_rest := q :: !learnt_rest
      end
    done;
    (* Find the next marked literal walking the trail backwards. *)
    while not s.seen.(var_of s.trail.(!trail_pos)) do
      decr trail_pos
    done;
    let p = s.trail.(!trail_pos) in
    let v = var_of p in
    s.seen.(v) <- false;
    decr trail_pos;
    decr counter;
    if !counter = 0 then begin
      asserting := negate p;
      continue := false
    end
    else begin
      idx := s.reason.(v);
      skip_head := true
    end
  done;
  List.iter (fun l -> s.seen.(var_of l) <- false) !learnt_rest;
  (* Order the tail so a literal from the backjump (second-highest) level
     sits right after the asserting literal: both watched positions then
     respect the watching invariant after the backjump. *)
  let backjump =
    List.fold_left (fun acc l -> Stdlib.max acc s.level.(var_of l)) 0 !learnt_rest
  in
  let at_bj, below =
    List.partition (fun l -> s.level.(var_of l) = backjump) !learnt_rest
  in
  (!asserting :: (at_bj @ below), backjump)

(* A clause currently acting as a propagation reason must not be deleted:
   the watching invariant keeps the propagated literal at index 0. *)
let locked s idx =
  let c = s.clauses.(idx) in
  Array.length c > 0
  && lb_true (value_lit s c.(0))
  && s.reason.(var_of c.(0)) = idx

(* Activity-driven learnt-DB reduction: delete the lower-activity half of
   the deletable learnts (ties broken by clause index, so the pass is
   deterministic). Binary and locked learnts are kept — binaries are
   cheap and high-value, locked ones are load-bearing for the current
   trail. The ceiling then grows 10%, MiniSat-style, so genuinely hard
   instances still get a growing database. *)
let reduce_db s =
  let cands = ref [] in
  let n_cands = ref 0 in
  for idx = s.n_clauses - 1 downto 0 do
    if
      Bytes.get s.learnt_mark idx = '\001'
      && Array.length s.clauses.(idx) > 2
      && not (locked s idx)
    then begin
      cands := idx :: !cands;
      incr n_cands
    end
  done;
  let cands = List.sort
      (fun a b ->
        let c = Float.compare s.cla_act.(a) s.cla_act.(b) in
        if c <> 0 then c else Int.compare a b)
      !cands
  in
  let to_delete = ref (!n_cands / 2) in
  List.iter
    (fun idx ->
      if !to_delete > 0 then begin
        delete_clause s idx;
        decr to_delete
      end)
    cands;
  s.db_reductions <- s.db_reductions + 1;
  s.max_learnts <- s.max_learnts + (s.max_learnts / 10);
  Abg_obs.Obs.Counter.incr obs_db_reductions

let pick_branch_var s =
  let v = ref (-1) in
  while !v < 0 && s.heap_size > 0 do
    let cand = heap_pop s in
    if lb_unknown s.assign.(cand) then v := cand
  done;
  !v

(* Luby sequence, 1-indexed: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... *)
let rec luby_at i =
  let k = ref 1 in
  while (1 lsl !k) - 1 < i do
    incr k
  done;
  if (1 lsl !k) - 1 = i then 1 lsl (!k - 1)
  else luby_at (i - ((1 lsl (!k - 1)) - 1))

(** Result of {!solve}: a model indexed by external variable
    ([m.(v)] for variable [v]; index 0 unused), or unsatisfiable. The
    array is owned by the solver and overwritten by the next [solve] on
    the same instance — read it (or copy it) before solving again. *)
type result = Sat of bool array | Unsat

(* One buffer reused across calls: enumeration extracts ~thousands of
   models and every consumer decodes the model before the next solve, so
   a fresh n_vars-sized array per model would be pure GC pressure. The
   fill stops at [model_cap]: auxiliary variables (symmetry circuits,
   at-most-one commanders, group selectors) outnumber the variables any
   decoder reads, and skipping them is free. *)
let model_of s =
  let hi = Stdlib.min s.n_vars s.model_cap in
  if Array.length s.model_buf < hi + 1 then
    s.model_buf <- Array.make (hi + 1) false;
  let m = s.model_buf in
  for v = 0 to hi - 1 do
    m.(v + 1) <- lb_true s.assign.(v)
  done;
  m

(** [limit_model s v] caps the model reported by [solve] at variable [v]:
    later [Sat] arrays cover indices [1..v] only. Call it once the
    problem's decision variables are allocated so that models skip the
    (typically far more numerous) auxiliary encoding variables. *)
let limit_model s v =
  if v < 0 then invalid_arg "Solver.limit_model";
  s.model_cap <- v;
  if Array.length s.model_buf > v + 1 then s.model_buf <- [||]

(** [solve ?assumptions s] decides the accumulated clauses. Assumptions
    are external literals asserted for this call only; learnt clauses
    persist across calls, making repeated (blocking-clause) enumeration
    cheap.

    Incremental resume: on [Sat] the trail is kept, so a following call
    with the same assumption list (after, say, one blocking clause)
    backtracks only as far as that clause demanded and searches on from
    there, rather than re-deriving the whole assignment — the fast path
    that makes model enumeration O(changed part of the trail) per model.
    A call with a different assumption list backtracks to the longest
    still-valid assumption prefix first. *)

let solve ?(assumptions = []) s =
  if not s.ok then Unsat
  else begin
    let ints = Array.of_list (List.map to_internal assumptions) in
    let n_assumptions = Array.length ints in
    (* Longest prefix of [ints] that still labels the leading decision
       levels of the kept trail; everything above it is reusable only
       when the whole assumption list is unchanged. *)
    let matching = ref 0 in
    while
      !matching < s.n_assump_levels
      && !matching < n_assumptions
      && s.assump.(!matching) = ints.(!matching)
    do
      incr matching
    done;
    if not (!matching = n_assumptions && s.n_assump_levels = n_assumptions)
    then cancel_until s !matching;
    s.assump <- ints;
    let result = ref None in
    let restart_count = ref 0 in
    let conflict_budget = ref (100 * luby_at 1) in
    while !result = None do
      let conflict = propagate s in
      if conflict >= 0 then begin
        s.conflicts <- s.conflicts + 1;
        Abg_obs.Obs.Counter.incr obs_conflicts;
        decr conflict_budget;
        if decision_level s = 0 then begin
          s.ok <- false;
          result := Some Unsat
        end
        else if decision_level s <= n_assumptions then
          (* The conflict involves only assumption decisions: the formula
             is unsatisfiable under these assumptions (but may be
             satisfiable without them, so [ok] stays true). *)
          result := Some Unsat
        else begin
          let learnt, backjump = analyze s conflict in
          (* Never jump back into the middle of the assumption prefix with
             a clause asserting below it. *)
          let backjump = Stdlib.max backjump n_assumptions in
          cancel_until s backjump;
          (match learnt with
          | [] -> result := Some Unsat
          | [ l ] ->
              if lb_false (value_lit s l) then result := Some Unsat
              else if lb_unknown (value_lit s l) then enqueue s l (-1)
          | l :: _ ->
              let arr = Array.of_list learnt in
              let idx = push_clause s arr in
              Bytes.set s.learnt_mark idx '\001';
              s.cla_act.(idx) <- s.cla_inc;
              s.learnts_total <- s.learnts_total + 1;
              s.learnts_live <- s.learnts_live + 1;
              Abg_obs.Obs.Counter.incr obs_learnts;
              watch s arr.(0) idx arr.(1);
              watch s arr.(1) idx arr.(0);
              if lb_unknown (value_lit s l) then enqueue s l idx);
          decay_activities s
        end
      end
      else if !conflict_budget <= 0 && decision_level s > n_assumptions then begin
        incr restart_count;
        conflict_budget := 100 * luby_at (!restart_count + 1);
        cancel_until s n_assumptions
      end
      else begin
        if s.learnts_live > s.max_learnts then reduce_db s;
        let dl = decision_level s in
        if dl < n_assumptions then begin
          let a = ints.(dl) in
          match value_lit s a with
          | True ->
              s.trail_lim <- s.trail_size :: s.trail_lim;
              s.n_levels <- s.n_levels + 1;
              s.n_assump_levels <- dl + 1
          | False -> result := Some Unsat
          | Unknown ->
              s.trail_lim <- s.trail_size :: s.trail_lim;
              s.n_levels <- s.n_levels + 1;
              s.n_assump_levels <- dl + 1;
              enqueue s a (-1)
        end
        else begin
          match pick_branch_var s with
          | -1 -> result := Some (Sat (model_of s))
          | v ->
              s.trail_lim <- s.trail_size :: s.trail_lim;
              s.n_levels <- s.n_levels + 1;
              let lit = if s.polarity.(v) then 2 * v else (2 * v) + 1 in
              enqueue s lit (-1)
        end
      end
    done;
    let r = match !result with Some r -> r | None -> assert false in
    (* Keep the trail on Sat — the incremental-resume state for the next
       call. On Unsat, back out to the root: the assumption levels carry
       no reusable search state. *)
    (match r with Sat _ -> () | Unsat -> cancel_until s 0);
    r
  end

(** [randomize s ~seed] scrambles the saved phases (the polarity each
    unassigned variable will be tried with first). Model *enumeration*
    uses this between solve calls so that successive models sample
    scattered corners of the solution space instead of crawling
    lexicographically — the blocking-clause analogue of Z3's
    [:random-seed]/phase randomization. Does not affect soundness, only
    which model is found first. VSIDS activities are deliberately left
    alone: the branching order keeps its learned focus across the
    enumeration (and the heap needs no rebuild), so the scramble is O(n)
    cheap bit work on the hot path.

    Determinism: the scramble is a pure function of [seed] and the number
    of allocated variables, and the search that follows is a pure function
    of the clause database. A fixed seed sequence plus an identical
    clause-addition order therefore reproduces a bit-identical model
    sequence — the property the enumeration-determinism regression tests
    pin. *)
let randomize s ~seed =
  let state = ref (Int64.of_int (seed lxor 0x5DEECE66D)) in
  let next_bits () =
    (* splitmix64 step, as in the utility PRNG, inlined to keep this
       library's dependencies minimal. One 64-bit word seeds the phases
       of 64 variables. *)
    let open Int64 in
    state := add !state 0x9E3779B97F4A7C15L;
    let z = !state in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)
  in
  let word = ref 0L in
  for v = 0 to s.n_vars - 1 do
    if v land 63 = 0 then word := next_bits ();
    s.polarity.(v) <- Int64.logand !word 1L = 1L;
    word := Int64.shift_right_logical !word 1
  done

(** Search-effort statistics, cumulative over the solver's lifetime. *)
type stats = {
  propagations : int;
  conflicts : int;
  learnts_total : int;
  learnts_live : int;
  db_reductions : int;
}

let stats (s : t) =
  {
    propagations = s.propagations;
    conflicts = s.conflicts;
    learnts_total = s.learnts_total;
    learnts_live = s.learnts_live;
    db_reductions = s.db_reductions;
  }

(** Number of conflicts encountered so far (a search-effort statistic). *)
let conflicts (s : t) = s.conflicts

(** Number of variables allocated. *)
let num_vars s = s.n_vars

(** [set_max_learnts s n] lowers (or raises) the learnt-DB ceiling that
    triggers {!reduce_db}-style reduction; exposed for tests and tuning.
    The ceiling still grows 10% per reduction afterwards. *)
let set_max_learnts s n = s.max_learnts <- Stdlib.max 8 n
