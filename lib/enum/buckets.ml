(** Bucketization of the search space (§4.4).

    The bucket discriminator is the exact subset of DSL *operators* a
    sketch uses; every sketch belongs to exactly one bucket, the property
    needed for the divide-and-conquer refinement loop. Buckets are
    generated as the power set of the DSL's operators, filtered by two
    structural facts of the grammar: boolean operators only ever occur
    under a conditional, and a conditional always contains exactly one
    boolean operator occurrence at its guard. Remaining infeasible subsets
    (e.g. too many operators for the node budget) simply enumerate as
    empty. *)

open Abg_dsl

type bucket = Component.t list

let is_bool_op = function
  | Component.Op_lt | Component.Op_gt | Component.Op_modeq -> true
  | _ -> false

let feasible ops =
  let has_ite = List.exists (Component.equal Component.Op_ite) ops in
  let has_bool = List.exists is_bool_op ops in
  (has_ite && has_bool) || ((not has_ite) && not has_bool)

(** [all dsl] is every feasible operator subset of [dsl], the empty set
    (pure-leaf sketches) included. *)
let all (dsl : Catalog.t) =
  let ops = Array.of_list (Catalog.operators dsl) in
  let n = Array.length ops in
  if n > 20 then
    invalid_arg
      (Printf.sprintf
         "Buckets.all: %d operators; the power-set bucketization is capped \
          at 20"
         n);
  let subsets = ref [] in
  for mask = 0 to (1 lsl n) - 1 do
    let subset = ref [] in
    for b = n - 1 downto 0 do
      if mask land (1 lsl b) <> 0 then subset := ops.(b) :: !subset
    done;
    if feasible !subset then subsets := !subset :: !subsets
  done;
  List.rev !subsets

(** [of_sketch sketch] — the bucket a sketch belongs to. *)
let of_sketch sketch = Abg_dsl.Sketch.operator_set sketch

let equal (a : bucket) b =
  List.length a = List.length b && List.for_all2 Component.equal a b
