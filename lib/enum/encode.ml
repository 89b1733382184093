(** Propositional encoding of the sketch space (§4.1) — the Z3-formula
    substitute.

    One SAT instance describes all well-sorted, unit-consistent sketches
    of a sub-DSL up to its depth and node budgets. Decision variables:

    - [active.(i)] — tree position [i] is part of the sketch;
    - [comp.(i).(c)] — position [i] holds DSL component [c];
    - [unit_vars.(i).(u)] — position [i] denotes a quantity of unit [u]
      (one-hot over a finite integer-exponent unit domain, exactly the
      quantifier-free finite-domain restriction the paper adopts);
    - [used_op.(o)] — operator [o] appears somewhere in the sketch: the
      bucket discriminator of §4.4, constrained via solver assumptions.

    The commutative canonical form of {!Abg_analysis.Canonical} is
    encoded directly as propositional constraints (a lex-leader circuit
    over the operand subtrees of commutative operators, with constant
    holes interchangeable), so the solver itself never produces a model
    the canonicalizer would fold; see {!add_symmetry_constraints}.
    Unused-slot symmetries are pinned too: an inactive node's one-hot
    unit variable is fixed to the first domain element. This circuit is
    the enumerator's only dedup.

    Models are decoded into {!Abg_dsl.Expr} sketches with constant holes;
    each returned sketch is excluded with a blocking clause, so repeated
    calls enumerate the space. One persistent solver serves the whole
    enumeration: buckets are selected purely via assumptions, and each
    bucket's blocking clauses live in a retractable {!Abg_sat.Solver}
    clause group so {!retire_bucket} can reclaim them when the
    refinement loop drops the bucket; a retired bucket stays closed.
    Post-decode, three pruning stages run before a sketch is handed to
    the scorer, each blocking-and-skipping the model: arithmetic
    simplifiability (§4.1's sympy filter), the interval walk of
    {!Abg_analysis.Absint.prune} (window provably <= 0 or non-finite,
    provably-zero denominators, guards constant over the whole input
    box), and the conditional walk of {!Abg_analysis.Relint.prune}
    (guards decided by the zone domain — the cross-signal relations of
    §5.6 — either outright or under the assumptions of enclosing
    guards). Each stage acts on its walk's first pruning finding. The
    walks decide every dead-handler rule, and [abagnale lint] reads the
    same walks, so no such rule is decided here. The conditional walk
    finds nothing in an Ite-free sketch, so an Ite-free DSL (reno)
    enumerates bit-identically with it on. Returned sketches are in
    {!Abg_analysis.Canonical} form; per-reason counters are surfaced via
    {!prune_stats}. *)

open Abg_dsl
open Abg_util

let unit_limit = 2

(* The prune ledger: why [next] skipped a decoded model. [reasons] is
   the reporting order, and a reason's position in it indexes both the
   per-enumerator count array and [obs_pruned]. *)
type reason =
  | Simplifiable
  | Dead of Abg_analysis.Absint.reason
  | Relational of Abg_analysis.Relint.reason

let reasons =
  (Simplifiable :: List.map (fun r -> Dead r) Abg_analysis.Absint.all_reasons)
  @ List.map (fun r -> Relational r) Abg_analysis.Relint.all_reasons

let reason_name = function
  | Simplifiable -> "simplifiable"
  | Dead r -> Abg_analysis.Absint.reason_name r
  | Relational r -> Abg_analysis.Relint.reason_name r

let slot r = Option.get (List.find_index (( = ) r) reasons)

type t = {
  solver : Abg_sat.Solver.t;
  nodes : int;
  components : Component.t array;
  active : int array;
  comp : int array array;
  used_op : (Component.t * int) list;
  bucket_groups : (Component.t list, Abg_sat.Solver.group option) Hashtbl.t;
      (** per-bucket blocking-clause groups, keyed by sorted operator set;
          [None] once the bucket is retired *)
  box : Abg_analysis.Absint.box;
      (** interval box: physical signal ranges, hole = the constant pool *)
  rel : Abg_analysis.Relint.t;
      (** the zone over the same box, for the relational prune stage *)
  pruned : int array;  (** per-{!reason} prune counts, in {!reasons} order *)
  mutable enumerated : int;
}

(* Telemetry: process-wide prune/enumeration counters, incremented
   alongside the per-enumerator cells above. The per-enc integers are
   semantic state (the solver's randomize seed is derived from them) and
   the run's own ledger ([prune_stats], which [Refinement.result.pruned]
   and [abagnale synth] read); the obs counters are the process-wide view
   the [--telemetry] report and the CI gate read, and they count nothing
   when telemetry is off. Enumeration totals are deterministic: every
   enumerator runs sequentially on the domain that owns it, and its
   model sequence depends only on the DSL and its own counters. *)
let obs_returned = Abg_obs.Obs.Counter.make "enum.returned"
let obs_sat = Abg_obs.Obs.Counter.make "enum.sat.sat"
let obs_unsat = Abg_obs.Obs.Counter.make "enum.sat.unsat"

let obs_pruned =
  Array.of_list
    (List.map
       (fun r -> Abg_obs.Obs.Counter.make ("enum.pruned." ^ reason_name r))
       reasons)

let find_comp_index components c =
  let rec go i =
    if i = Array.length components then None
    else if Component.equal components.(i) c then Some i
    else go (i + 1)
  in
  go 0

let unit_index_in unit_domain u =
  let rec go i =
    if i = Array.length unit_domain then None
    else if Units.equal unit_domain.(i) u then Some i
    else go (i + 1)
  in
  go 0

(* -- Symmetry breaking: the commutative canonical form, in clauses --

   [Abg_analysis.Canonical.normalize] orders the operands of every
   Add/Mul under a total preorder (constructor rank, then Signal/Macro
   order, then children lexicographically; holes compare equal). The
   circuit below mirrors that comparison inside the encoding so every
   model decodes to a tree that is already a fixed point of [normalize]:
   any non-canonical operand order is unsatisfiable, and the solver never
   wastes a solve-decode-block round trip on a commutative duplicate.

   For each aligned position pair (a, b) — sibling operands of a
   potentially commutative node, and recursively their aligned
   descendants — two auxiliary variables are defined one-directionally:
   [gt a b] (resp. [eq a b]) is *forced true* whenever the decoded
   subtree at [a] compares greater than (resp. equal to) the one at [b],
   and left free otherwise. Clauses:

   - cross-component: components of different canonical rank at (a, b)
     with rank(a) > rank(b) force [gt];
   - same nullary component (and the hole component, whose decoded
     indices the canonical order ignores) forces [eq];
   - same k-ary component: a lexicographic chain over the k child digit
     pairs forces [gt]/[eq] ({!Abg_sat.Cnf.lex_gt_implies}).

   At each node that can hold a commutative operator, [lex_le] forbids
   [gt child0 child1] under that operator's component variable.

   Completeness: in a model whose decoded tree is canonical, assigning
   every auxiliary variable its semantic truth value satisfies all the
   clauses above (the implications' premises hold only when their
   conclusions do, and no canonical tree triggers the top-level ban), so
   exactly one representative per commutativity class remains
   reachable. *)

(* Component order consistent with Canonical.compare_num on decoded
   subtree roots. Leaf_const decodes to a Hole (canonical rank 4); no
   component decodes to Const (rank 3). Boolean comparisons live in a
   separate sort, ranked by Canonical's brank (Lt < Gt < Mod_eq). *)
let canon_class = function
  | Component.Leaf_cwnd -> 0
  | Component.Leaf_signal _ -> 1
  | Component.Leaf_macro _ -> 2
  | Component.Leaf_const -> 4
  | Component.Op_add -> 5
  | Component.Op_sub -> 6
  | Component.Op_mul -> 7
  | Component.Op_div -> 8
  | Component.Op_ite -> 9
  | Component.Op_cube -> 10
  | Component.Op_cbrt -> 11
  | Component.Op_lt -> 20
  | Component.Op_gt -> 21
  | Component.Op_modeq -> 22

let canon_compare a b =
  let c = Int.compare (canon_class a) (canon_class b) in
  if c <> 0 then c
  else
    match (a, b) with
    | Component.Leaf_signal s, Component.Leaf_signal s' -> Signal.compare s s'
    | Component.Leaf_macro m, Component.Leaf_macro m' -> Macro.compare m m'
    | _ -> 0

let add_symmetry_constraints ~solver ~nodes ~(components : Component.t array)
    ~(comp : int array array) =
  let n_comp = Array.length components in
  (* Is component [ci] structurally possible at node [i]? (Nodes whose
     children would fall outside the tree already carry a unit ban.) *)
  let feasible i ci =
    let a = Component.arity components.(ci) in
    a = 0 || Shape.child i (a - 1) < nodes
  in
  let pair_tbl : (int * int, int * int) Hashtbl.t = Hashtbl.create 64 in
  let rec pair_vars a b =
    match Hashtbl.find_opt pair_tbl (a, b) with
    | Some p -> p
    | None ->
        let gt = Abg_sat.Solver.new_var solver in
        let eq = Abg_sat.Solver.new_var solver in
        Hashtbl.add pair_tbl (a, b) (gt, eq);
        (* Cross-component: a strictly greater canonical rank at [a]
           forces [gt]. *)
        for ci = 0 to n_comp - 1 do
          if feasible a ci then
            for cj = 0 to n_comp - 1 do
              if
                feasible b cj
                && canon_compare components.(ci) components.(cj) > 0
              then
                Abg_sat.Solver.add_clause solver
                  [ -comp.(a).(ci); -comp.(b).(cj); gt ]
            done
        done;
        (* Same component at both positions. *)
        for ci = 0 to n_comp - 1 do
          let k = Component.arity components.(ci) in
          if k = 0 then
            (* Identical leaves compare equal — including two holes,
               whose decoded indices the canonical order ignores. *)
            Abg_sat.Solver.add_clause solver
              [ -comp.(a).(ci); -comp.(b).(ci); eq ]
          else if feasible a ci && feasible b ci then begin
            let digits =
              List.init k (fun j -> pair_vars (Shape.child a j) (Shape.child b j))
            in
            Abg_sat.Cnf.lex_gt_implies solver
              ~under:[ comp.(a).(ci); comp.(b).(ci) ]
              ~target:gt digits;
            Abg_sat.Solver.add_clause solver
              (-comp.(a).(ci) :: -comp.(b).(ci)
              :: List.map (fun (_, e) -> -e) digits
              @ [ eq ])
          end
        done;
        (gt, eq)
  in
  for i = 0 to nodes - 1 do
    let c1 = Shape.child i 0 and c2 = Shape.child i 1 in
    if c2 < nodes then
      Array.iteri
        (fun ci c ->
          if Component.is_commutative c then begin
            let digit = pair_vars c1 c2 in
            Abg_sat.Cnf.lex_le solver ~under:[ comp.(i).(ci) ] [ digit ]
          end)
        components
  done

let create ?(symmetry = true) (dsl : Catalog.t) =
  let solver = Abg_sat.Solver.create () in
  let nodes = Shape.num_nodes ~depth:dsl.Catalog.max_depth in
  let components = Array.of_list dsl.Catalog.components in
  let n_comp = Array.length components in
  let active = Array.init nodes (fun _ -> Abg_sat.Solver.new_var solver) in
  let comp =
    Array.init nodes (fun _ ->
        Array.init n_comp (fun _ -> Abg_sat.Solver.new_var solver))
  in
  let unit_domain = Array.of_list (Units.domain ~limit:unit_limit) in
  let unit_vars =
    if dsl.Catalog.unit_check then
      Array.init nodes (fun _ ->
          Array.init (Array.length unit_domain) (fun _ ->
              Abg_sat.Solver.new_var solver))
    else Array.make nodes [||]
  in
  let used_op =
    List.map
      (fun op -> (op, Abg_sat.Solver.new_var solver))
      (Catalog.operators dsl)
  in
  (* Everything [decode]/[block] reads is allocated above; the symmetry
     circuits, commander variables and group selectors that follow are
     auxiliary, so models need not report them. *)
  Abg_sat.Solver.limit_model solver (Abg_sat.Solver.num_vars solver);
  let enc =
    {
      solver; nodes; components; active; comp; used_op;
      bucket_groups = Hashtbl.create 16;
      box = Abg_analysis.Absint.box_for dsl;
      rel = Abg_analysis.Relint.for_dsl dsl;
      pruned = Array.make (List.length reasons) 0;
      enumerated = 0;
    }
  in
  let unit_index u = unit_index_in unit_domain u in
  (* -- Structural constraints -- *)
  Abg_sat.Solver.add_clause solver [ active.(0) ];
  for i = 0 to nodes - 1 do
    (* Exactly one component on active nodes, none on inactive ones. *)
    Abg_sat.Cnf.implies_clause solver active.(i)
      (Array.to_list comp.(i));
    Abg_sat.Cnf.at_most_one solver (Array.to_list comp.(i));
    Array.iter (fun cv -> Abg_sat.Cnf.implies solver cv active.(i)) comp.(i);
    (* A component requires its children to exist within the tree. *)
    Array.iteri
      (fun ci c ->
        let arity = Component.arity c in
        if arity > 0 && Shape.child i (arity - 1) >= nodes then
          Abg_sat.Solver.add_clause solver [ -comp.(i).(ci) ])
      components
  done;
  (* Root denotes the handler's value: a num. *)
  Array.iteri
    (fun ci c ->
      if Component.sort c = Component.Bool then
        Abg_sat.Solver.add_clause solver [ -comp.(0).(ci) ])
    components;
  (* Child activation and sorts. *)
  for j = 1 to nodes - 1 do
    let p = Shape.parent j in
    let k = Shape.position j in
    let activating = ref [] in
    Array.iteri
      (fun ci c ->
        let arity = Component.arity c in
        if arity > k then begin
          (* Parent component with arity beyond k activates child j and
             pins its sort. *)
          Abg_sat.Cnf.implies solver comp.(p).(ci) active.(j);
          activating := comp.(p).(ci) :: !activating;
          let want = List.nth (Component.child_sorts c) k in
          Array.iteri
            (fun cj c' ->
              if Component.sort c' <> want then
                Abg_sat.Solver.add_clause solver
                  [ -comp.(p).(ci); -comp.(j).(cj) ])
            components
        end
        else Abg_sat.Solver.add_clause solver [ -comp.(p).(ci); -active.(j) ])
      components;
    (* Child j active only under some activating parent component. *)
    Abg_sat.Cnf.implies_clause solver active.(j) !activating
  done;
  (* Node budget. *)
  Abg_sat.Cnf.at_most_k solver (Array.to_list active) dsl.Catalog.max_nodes;
  (* Anti-folding: no arithmetic/comparison over two bare constants (the
     cheapest "simplifiable" patterns, pruned inside the formula). *)
  (match find_comp_index components Component.Leaf_const with
  | None -> ()
  | Some const_idx ->
      for i = 0 to nodes - 1 do
        Array.iteri
          (fun ci c ->
            match c with
            | Component.Op_add | Component.Op_sub | Component.Op_mul
            | Component.Op_div | Component.Op_lt | Component.Op_gt
            | Component.Op_modeq ->
                let c1 = Shape.child i 0 and c2 = Shape.child i 1 in
                if c2 < nodes then
                  Abg_sat.Solver.add_clause solver
                    [ -comp.(i).(ci); -comp.(c1).(const_idx);
                      -comp.(c2).(const_idx) ]
            | Component.Leaf_cwnd | Component.Leaf_signal _
            | Component.Leaf_const | Component.Leaf_macro _
            | Component.Op_ite | Component.Op_cube | Component.Op_cbrt ->
                ())
          components
      done);
  (* Identical-leaf bans: the decoded sketch would simplify (x - x,
     x / x, x < x, {c} ? x : x with equal leaf branches), so each such
     model would cost a wasted solve-and-block round trip. Constants are
     exempt: two holes concretize to different values. *)
  Array.iteri
    (fun li leaf ->
      let banned =
        Component.arity leaf = 0 && not (Component.equal leaf Component.Leaf_const)
      in
      if banned then
        for i = 0 to nodes - 1 do
          Array.iteri
            (fun ci c ->
              let pair a b =
                if b < nodes then
                  Abg_sat.Solver.add_clause solver
                    [ -comp.(i).(ci); -comp.(a).(li); -comp.(b).(li) ]
              in
              match c with
              | Component.Op_sub | Component.Op_div | Component.Op_lt
              | Component.Op_gt | Component.Op_modeq ->
                  pair (Shape.child i 0) (Shape.child i 1)
              | Component.Op_ite -> pair (Shape.child i 1) (Shape.child i 2)
              | Component.Leaf_cwnd | Component.Leaf_signal _
              | Component.Leaf_const | Component.Leaf_macro _
              | Component.Op_add | Component.Op_mul | Component.Op_cube
              | Component.Op_cbrt ->
                  ())
            components
        done)
    components;
  (* used_op definitions. *)
  List.iter
    (fun (op, v) ->
      match find_comp_index components op with
      | None -> ()
      | Some ci ->
          let occurrences = ref [] in
          for i = 0 to nodes - 1 do
            Abg_sat.Cnf.implies solver comp.(i).(ci) v;
            occurrences := comp.(i).(ci) :: !occurrences
          done;
          Abg_sat.Cnf.implies_clause solver v !occurrences)
    used_op;
  (* Commutative canonical form, in clauses. *)
  if symmetry then
    add_symmetry_constraints ~solver ~nodes ~components ~comp;
  (* -- Unit constraints (dimensional analysis) -- *)
  if dsl.Catalog.unit_check then begin
    let n_units = Array.length unit_domain in
    let uvar i u = unit_vars.(i).(u) in
    for i = 0 to nodes - 1 do
      Abg_sat.Cnf.exactly_one solver (Array.to_list unit_vars.(i))
    done;
    if symmetry then
      (* Unused-slot symmetry: an inactive node's one-hot unit row is
         otherwise unconstrained, so pin it to the first domain element —
         one assignment per sketch instead of |domain|^(inactive). *)
      for i = 0 to nodes - 1 do
        Abg_sat.Solver.add_clause solver [ active.(i); uvar i 0 ]
      done;
    (* Root produces bytes. *)
    (match unit_index Units.bytes with
    | Some u -> Abg_sat.Solver.add_clause solver [ uvar 0 u ]
    | None -> assert false);
    let fixed_unit i cv u =
      match unit_index u with
      | Some ui -> Abg_sat.Solver.add_clause solver [ -cv; uvar i ui ]
      | None -> Abg_sat.Solver.add_clause solver [ -cv ]
    in
    let equal_units cv a b =
      (* Under cv, node a and node b share their unit. *)
      for u = 0 to n_units - 1 do
        Abg_sat.Solver.add_clause solver [ -cv; -uvar a u; uvar b u ]
      done
    in
    for i = 0 to nodes - 1 do
      Array.iteri
        (fun ci c ->
          let cv = comp.(i).(ci) in
          let c1 = Shape.child i 0
          and c2 = Shape.child i 1
          and c3 = Shape.child i 2 in
          match c with
          | Component.Leaf_cwnd -> fixed_unit i cv Units.bytes
          | Component.Leaf_signal s -> fixed_unit i cv (Signal.unit_of s)
          | Component.Leaf_macro m -> fixed_unit i cv (Macro.unit_of m)
          | Component.Leaf_const ->
              (* Constants carry one of the scalar-ish units only (see
                 Abg_dsl.Unit_check.constant_units): letting a constant
                 stand for any unit would launder arbitrary
                 ill-dimensioned arithmetic and explode the space. *)
              let allowed =
                List.filter_map unit_index Unit_check.constant_units
              in
              Abg_sat.Solver.add_clause solver
                (-cv :: List.map (uvar i) allowed)
          | Component.Op_add | Component.Op_sub ->
              if c2 < nodes then begin
                equal_units cv i c1;
                equal_units cv i c2
              end
          | Component.Op_mul | Component.Op_div ->
              if c2 < nodes then
                for u1 = 0 to n_units - 1 do
                  for u2 = 0 to n_units - 1 do
                    let result =
                      match c with
                      | Component.Op_mul ->
                          Units.mul unit_domain.(u1) unit_domain.(u2)
                      | _ -> Units.div unit_domain.(u1) unit_domain.(u2)
                    in
                    match unit_index result with
                    | Some ur ->
                        Abg_sat.Solver.add_clause solver
                          [ -cv; -uvar c1 u1; -uvar c2 u2; uvar i ur ]
                    | None ->
                        Abg_sat.Solver.add_clause solver
                          [ -cv; -uvar c1 u1; -uvar c2 u2 ]
                  done
                done
          | Component.Op_ite ->
              if c3 < nodes then begin
                equal_units cv i c2;
                equal_units cv i c3
              end
          | Component.Op_lt | Component.Op_gt ->
              if c2 < nodes then equal_units cv c1 c2
          | Component.Op_modeq ->
              (* Exempt from unit agreement (the paper's synthesized BBR
                 handler compares CWND % 2.7). *)
              ()
          | Component.Op_cube ->
              if c1 < nodes then
                for u = 0 to n_units - 1 do
                  match unit_index (Units.pow unit_domain.(u) 3) with
                  | Some ur ->
                      Abg_sat.Solver.add_clause solver
                        [ -cv; -uvar c1 u; uvar i ur ]
                  | None ->
                      Abg_sat.Solver.add_clause solver [ -cv; -uvar c1 u ]
                done
          | Component.Op_cbrt ->
              if c1 < nodes then
                for u = 0 to n_units - 1 do
                  match Units.cbrt unit_domain.(u) with
                  | Some root -> begin
                      match unit_index root with
                      | Some ur ->
                          Abg_sat.Solver.add_clause solver
                            [ -cv; -uvar c1 u; uvar i ur ]
                      | None ->
                          Abg_sat.Solver.add_clause solver [ -cv; -uvar c1 u ]
                    end
                  | None ->
                      (* The integer-exponent domain cannot type this cube
                         root: reproduce the paper's Cubic limitation. *)
                      Abg_sat.Solver.add_clause solver [ -cv; -uvar c1 u ]
                done)
        components
    done
  end;
  enc

(* Decode the model at [enc] into a sketch; constant holes are numbered
   left-to-right in pre-order — the same order {!Abg_analysis.Canonical}
   renumbers in, so (with symmetry breaking on) a decoded sketch is
   already its own normal form. Children are bound explicitly: OCaml
   evaluates constructor arguments right to left. *)
let decode enc (model : bool array) =
  let hole_counter = ref 0 in
  let comp_at i =
    let found = ref None in
    Array.iteri
      (fun ci cv -> if model.(cv) then found := Some enc.components.(ci))
      enc.comp.(i);
    !found
  in
  let rec num i : Expr.num =
    match comp_at i with
    | None -> invalid_arg "Encode.decode: inactive node reached"
    | Some c -> begin
        match c with
        | Component.Leaf_cwnd -> Expr.Cwnd
        | Component.Leaf_signal s -> Expr.Signal s
        | Component.Leaf_macro m -> Expr.Macro m
        | Component.Leaf_const ->
            let h = !hole_counter in
            incr hole_counter;
            Expr.Hole h
        | Component.Op_add ->
            let a = num (Shape.child i 0) in
            let b = num (Shape.child i 1) in
            Expr.Add (a, b)
        | Component.Op_sub ->
            let a = num (Shape.child i 0) in
            let b = num (Shape.child i 1) in
            Expr.Sub (a, b)
        | Component.Op_mul ->
            let a = num (Shape.child i 0) in
            let b = num (Shape.child i 1) in
            Expr.Mul (a, b)
        | Component.Op_div ->
            let a = num (Shape.child i 0) in
            let b = num (Shape.child i 1) in
            Expr.Div (a, b)
        | Component.Op_ite ->
            let g = boolean (Shape.child i 0) in
            let t = num (Shape.child i 1) in
            let e = num (Shape.child i 2) in
            Expr.Ite (g, t, e)
        | Component.Op_cube -> Expr.Cube (num (Shape.child i 0))
        | Component.Op_cbrt -> Expr.Cbrt (num (Shape.child i 0))
        | Component.Op_lt | Component.Op_gt | Component.Op_modeq ->
            invalid_arg "Encode.decode: boolean component in num position"
      end
  and boolean i : Expr.boolean =
    match comp_at i with
    | Some Component.Op_lt ->
        let a = num (Shape.child i 0) in
        let b = num (Shape.child i 1) in
        Expr.Lt (a, b)
    | Some Component.Op_gt ->
        let a = num (Shape.child i 0) in
        let b = num (Shape.child i 1) in
        Expr.Gt (a, b)
    | Some Component.Op_modeq ->
        let a = num (Shape.child i 0) in
        let b = num (Shape.child i 1) in
        Expr.Mod_eq (a, b)
    | _ -> invalid_arg "Encode.decode: expected boolean component"
  in
  num 0

(* The group holding a bucket's blocking clauses. Buckets partition the
   sketch space (a sketch determines its exact operator set), so a
   blocking clause learned inside one bucket can never exclude a model of
   another — scoping it to the bucket's group is semantically free, and
   lets [retire_bucket] reclaim the clauses when the refinement loop
   drops the bucket. [None] once the bucket is retired. *)
let bucket_key ops = List.sort Component.compare ops

let group_for enc ops =
  let key = bucket_key ops in
  match Hashtbl.find_opt enc.bucket_groups key with
  | Some g -> g
  | None ->
      let g = Abg_sat.Solver.new_group enc.solver in
      Hashtbl.add enc.bucket_groups key (Some g);
      Some g

(* Exclude exactly this (shape, component) assignment from future models —
   under the bucket's group when enumeration is bucket-scoped. *)
let block ?group enc (model : bool array) =
  let clause = ref [] in
  for i = 0 to enc.nodes - 1 do
    if model.(enc.active.(i)) then
      Array.iter
        (fun cv -> if model.(cv) then clause := -cv :: !clause)
        enc.comp.(i)
    else clause := enc.active.(i) :: !clause
  done;
  match group with
  | None -> Abg_sat.Solver.add_clause enc.solver !clause
  | Some g -> Abg_sat.Solver.add_clause_in enc.solver g !clause

(** [assumptions_for_bucket enc ops] — solver assumptions pinning the
    §4.4 bucket discriminator: the sketch uses exactly the operator set
    [ops]. *)
let assumptions_for_bucket enc ops =
  List.map
    (fun (op, v) ->
      if List.exists (Component.equal op) ops then v else -v)
    enc.used_op

let skipped enc = Array.fold_left ( + ) 0 enc.pruned

(* Bucket-scoped enumeration state for one [next]/[next_raw] call: the
   assumption list (used_op pins plus the blocking group's selector) and
   the group new blocking clauses go into, or [None] when the bucket is
   retired. *)
let bucket_context enc bucket =
  match bucket with
  | None -> Some ([], None)
  | Some ops ->
      Option.map
        (fun g ->
          ( Abg_sat.Solver.group_lit g :: assumptions_for_bucket enc ops,
            Some g ))
        (group_for enc ops)

(* The first prune reason that applies to a decoded sketch, or its
   canonical form when none does. Simplifiability and the interval walk
   read the sketch as decoded; the conditional walk reads its canonical
   form. Each walk stops at its first pruning finding. *)
let classify enc sketch =
  if Simplify.is_simplifiable sketch then Error Simplifiable
  else
    match Abg_analysis.Absint.prune enc.box sketch with
    | Some (reason, _finding) -> Error (Dead reason)
    | None -> (
        let canonical = Abg_analysis.Canonical.normalize sketch in
        match Abg_analysis.Relint.prune enc.rel canonical with
        | Some reason -> Error (Relational reason)
        | None -> Ok canonical)

(** [next ?bucket enc] returns the next not-yet-enumerated sketch
    (optionally restricted to an operator bucket) in canonical form, or
    [None] when the (sub)space is exhausted or the bucket retired. Each
    model is solved, decoded, blocked and classified; a pruned one is
    counted under its reason and the search goes on.

    One persistent solver serves every bucket: switching buckets costs
    only a different assumption list, and a bucket's blocking clauses are
    scoped to its clause group (see {!retire_bucket}). *)
let next ?bucket enc =
  match bucket_context enc bucket with
  | None -> None
  | Some (assumptions, group) ->
      let rec go () =
        (* Scatter successive models across the bucket (deterministically). *)
        Abg_sat.Solver.randomize enc.solver
          ~seed:((enc.enumerated * 2654435761) + skipped enc + 17);
        match Abg_sat.Solver.solve ~assumptions enc.solver with
        | Abg_sat.Solver.Unsat ->
            Abg_obs.Obs.Counter.incr obs_unsat;
            None
        | Abg_sat.Solver.Sat model -> (
            Abg_obs.Obs.Counter.incr obs_sat;
            let sketch = decode enc model in
            block ?group enc model;
            match classify enc sketch with
            | Ok canonical ->
                enc.enumerated <- enc.enumerated + 1;
                Abg_obs.Obs.Counter.incr obs_returned;
                Some canonical
            | Error reason ->
                let i = slot reason in
                enc.pruned.(i) <- enc.pruned.(i) + 1;
                Abg_obs.Obs.Counter.incr obs_pruned.(i);
                go ())
      in
      go ()

(** [retire_bucket enc ops] retracts the bucket's blocking clauses (the
    refinement loop calls it when a bucket is dropped from the keep set,
    reclaiming solver memory) and closes the bucket: later {!next},
    {!next_raw} and {!check_bucket} calls on it answer at once, without
    a solve. *)
let retire_bucket enc ops =
  let key = bucket_key ops in
  (match Hashtbl.find_opt enc.bucket_groups key with
  | Some (Some g) -> Abg_sat.Solver.retire_group enc.solver g
  | Some None | None -> ());
  Hashtbl.replace enc.bucket_groups key None

(** [check_bucket enc ops] — one solve under the bucket's assumptions:
    does the bucket still contain an unenumerated model? No decoding, no
    blocking; the micro-benchmark behind [sat-solve-assumptions]. *)
let check_bucket enc ops =
  match bucket_context enc (Some ops) with
  | None -> false
  | Some (assumptions, _group) -> (
      match Abg_sat.Solver.solve ~assumptions enc.solver with
      | Abg_sat.Solver.Sat _ -> true
      | Abg_sat.Solver.Unsat -> false)

(** Enumeration statistics: (returned, rejected-as-simplifiable). *)
let stats enc = (enc.enumerated, enc.pruned.(slot Simplifiable))

(** Per-reason prune counters, in reporting order: the §4.1
    simplifiability filter, each {!Abg_analysis.Absint.reason}, then
    each {!Abg_analysis.Relint.reason}. *)
let prune_stats enc =
  List.mapi (fun i r -> (reason_name r, enc.pruned.(i))) reasons

(** Fraction of decoded sketches pruned before simulation. *)
let prune_rate enc =
  let total = enc.enumerated + skipped enc in
  if total = 0 then 0.0 else float_of_int (skipped enc) /. float_of_int total

(** Total SAT variables in the encoding (reported in §6.1-style output). *)
let num_vars enc = Abg_sat.Solver.num_vars enc.solver

(** Solver search-effort statistics for this enumerator's persistent
    instance (conflicts, propagations, learnt-DB state). *)
let solver_stats enc = Abg_sat.Solver.stats enc.solver

(** [next_raw ?bucket enc] is {!next} without any post-decode filtering —
    exposed for diagnosing the encoding's pruning quality (with symmetry
    breaking on, the raw stream already contains no commutative
    duplicates). *)
let next_raw ?bucket enc =
  match bucket_context enc bucket with
  | None -> None
  | Some (assumptions, group) -> (
      match Abg_sat.Solver.solve ~assumptions enc.solver with
      | Abg_sat.Solver.Unsat -> None
      | Abg_sat.Solver.Sat model ->
          let sketch = decode enc model in
          block ?group enc model;
          Some sketch)
