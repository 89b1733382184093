(** CNF encoding helpers over {!Solver}.

    The sketch encoding needs a few standard gadgets: exactly-one /
    at-most-one over component sets, implications, Tseitin-style AND/OR
    definitions, a sequential-counter cardinality constraint for node
    budgets, and the lexicographic-comparison clauses behind the
    enumerator's symmetry-breaking circuit. *)

let pairwise_at_most_one s lits =
  let rec pairs = function
    | [] -> ()
    | l :: rest ->
        List.iter (fun l' -> Solver.add_clause s [ -l; -l' ]) rest;
        pairs rest
  in
  pairs lits

(* Above this size the commander encoding beats pairwise's O(n^2)
   clauses; below it, pairwise is both smaller and propagation-complete
   without auxiliary variables. *)
let commander_threshold = 6
let commander_group = 3

let rec chunk n = function
  | [] -> []
  | lits ->
      let rec take k acc = function
        | rest when k = 0 -> (List.rev acc, rest)
        | [] -> (List.rev acc, [])
        | l :: rest -> take (k - 1) (l :: acc) rest
      in
      let g, rest = take n [] lits in
      g :: chunk n rest

(** [at_most_one s lits] — pairwise for short lists; above
    {!commander_threshold} a commander encoding (Klieber–Kwon): the list
    is split into groups of three, each group gets the pairwise
    constraint plus a commander variable implied by its members, and
    at-most-one recurses over the commanders. O(n) clauses and auxiliary
    variables; equisatisfiable with pairwise when projected onto [lits]
    (any assignment with at most one true literal extends to the
    commanders, and two true literals falsify either a group's pairwise
    constraint or the commanders' own at-most-one). *)
let rec at_most_one s lits =
  if List.length lits <= commander_threshold then pairwise_at_most_one s lits
  else begin
    let commanders =
      List.map
        (fun group ->
          pairwise_at_most_one s group;
          let c = Solver.new_var s in
          List.iter (fun l -> Solver.add_clause s [ -l; c ]) group;
          c)
        (chunk commander_group lits)
    in
    at_most_one s commanders
  end

let exactly_one s lits =
  Solver.add_clause s lits;
  at_most_one s lits

(** [implies s a b] — a -> b. *)
let implies s a b = Solver.add_clause s [ -a; b ]

(** [implies_clause s a bs] — a -> (b1 \/ ... \/ bn). *)
let implies_clause s a bs = Solver.add_clause s (-a :: bs)

(** [at_most_k s lits k] — sequential-counter encoding (Sinz 2005):
    auxiliary registers r_{i,j} meaning "at least j of the first i+1
    literals are true"; O(n*k) clauses. *)
let at_most_k s lits k =
  let lits = Array.of_list lits in
  let n = Array.length lits in
  if k >= n then ()
  else if k = 0 then Array.iter (fun l -> Solver.add_clause s [ -l ]) lits
  else begin
    let r = Array.make_matrix n k 0 in
    for i = 0 to n - 1 do
      for j = 0 to k - 1 do
        r.(i).(j) <- Solver.new_var s
      done
    done;
    for i = 0 to n - 1 do
      (* lit i true -> register counts at least 1. *)
      Solver.add_clause s [ -lits.(i); r.(i).(0) ];
      if i > 0 then begin
        for j = 0 to k - 1 do
          (* Registers are monotone in i. *)
          Solver.add_clause s [ -r.(i - 1).(j); r.(i).(j) ]
        done;
        for j = 1 to k - 1 do
          (* lit i true and j of the prefix -> j+1 counted. *)
          Solver.add_clause s [ -lits.(i); -r.(i - 1).(j - 1); r.(i).(j) ]
        done;
        (* Overflow: lit i true while the prefix already holds k. *)
        Solver.add_clause s [ -lits.(i); -r.(i - 1).(k - 1) ]
      end
    done
  end

(* -- Lexicographic comparison over (gt, eq) digit pairs --

   The symmetry-breaking circuit compares two subtrees digit by digit:
   each aligned position pair contributes a [gt] and an [eq] literal
   (one-directional — forced true when the corresponding semantic
   relation holds, never forced false). A sequence is lexicographically
   greater when some digit is greater and every earlier digit is equal. *)

(** [lex_gt_implies s ~under ~target digits] — whenever all of [under]
    hold and the digit sequence is lexicographically greater (some [gt_i]
    with all earlier [eq_j]), force [target]:
    one clause [¬under ∨ ¬eq_1 ∨ … ∨ ¬eq_{i-1} ∨ ¬gt_i ∨ target] per
    digit. *)
let lex_gt_implies s ~under ~target digits =
  let neg_under = List.rev_map (fun l -> -l) under in
  let rec go eq_prefix = function
    | [] -> ()
    | (gt, eq) :: rest ->
        Solver.add_clause s (neg_under @ eq_prefix @ [ -gt; target ]);
        go (-eq :: eq_prefix) rest
  in
  go [] digits

(** [lex_le s ~under digits] — whenever all of [under] hold, forbid a
    lexicographically greater digit sequence: the sorted-operand
    constraint placed at each commutative node. The final digit's [eq]
    literal is unused. *)
let lex_le s ~under digits =
  let neg_under = List.rev_map (fun l -> -l) under in
  let rec go eq_prefix = function
    | [] -> ()
    | (gt, eq) :: rest ->
        Solver.add_clause s (neg_under @ eq_prefix @ [ -gt ]);
        go (-eq :: eq_prefix) rest
  in
  go [] digits
