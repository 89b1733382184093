(* Tests for the SAT-based sketch enumeration: shapes, counting, buckets
   and the encoding's guarantees (sorts, units, budgets, no duplicates,
   no simplifiable output). *)

open Abg_dsl

let test_shape_indexing () =
  Alcotest.(check int) "depth-3 nodes" 13 (Abg_enum.Shape.num_nodes ~depth:3);
  Alcotest.(check int) "depth-4 nodes" 40 (Abg_enum.Shape.num_nodes ~depth:4);
  Alcotest.(check int) "child" 1 (Abg_enum.Shape.child 0 0);
  Alcotest.(check int) "parent" 0 (Abg_enum.Shape.parent 3);
  Alcotest.(check int) "position" 2 (Abg_enum.Shape.position 3);
  for i = 1 to 39 do
    Alcotest.(check int) "parent/child inverse" i
      (Abg_enum.Shape.child (Abg_enum.Shape.parent i) (Abg_enum.Shape.position i))
  done;
  Alcotest.(check int) "root level" 0 (Abg_enum.Shape.level 0);
  Alcotest.(check int) "level of node 4" 2 (Abg_enum.Shape.level 4)

let test_count_monotone_in_depth () =
  let components = Catalog.reno.Catalog.components in
  let c3 = Abg_enum.Count.universe_at ~components ~depth:3 in
  let c4 = Abg_enum.Count.universe_at ~components ~depth:4 in
  Alcotest.(check bool) "positive" true (c3 > 0.0);
  Alcotest.(check bool) "grows with depth" true (c4 > c3)

let test_count_depth_zero () =
  Alcotest.(check (float 0.0)) "no trees at depth 0" 0.0
    (Abg_enum.Count.universe_at ~components:Catalog.reno.Catalog.components
       ~depth:0)

let test_count_leaf_only () =
  (* Depth 1: exactly the num-sorted leaves. *)
  let components = Catalog.reno.Catalog.components in
  let leaves =
    List.length (List.filter (fun c -> Component.arity c = 0) components)
  in
  Alcotest.(check (float 0.0)) "leaves" (float_of_int leaves)
    (Abg_enum.Count.universe_at ~components ~depth:1)

let test_buckets_feasibility () =
  let buckets = Abg_enum.Buckets.all Catalog.reno in
  Alcotest.(check bool) "empty bucket included" true
    (List.exists (fun b -> b = []) buckets);
  List.iter
    (fun b ->
      let has_ite = List.exists (Component.equal Component.Op_ite) b in
      let has_bool =
        List.exists
          (fun c -> Component.sort c = Component.Bool && Component.is_operator c)
          b
      in
      Alcotest.(check bool) "ite iff bool op" true (has_ite = has_bool))
    buckets

let test_buckets_count_reno () =
  (* 4 arithmetic ops (16 subsets) x (no conditional, or ite with any
     non-empty subset of 3 comparisons = 7): 16 * 8 = 128. *)
  Alcotest.(check int) "reno bucket count" 128
    (List.length (Abg_enum.Buckets.all Catalog.reno))

let test_enumerate_distinct () =
  let enc = Abg_enum.Encode.create Catalog.reno in
  let seen = ref [] in
  for _ = 1 to 60 do
    match Abg_enum.Encode.next enc with
    | Some sk ->
        Alcotest.(check bool) "not seen before" false
          (List.exists (Expr.equal_num sk) !seen);
        seen := sk :: !seen
    | None -> ()
  done

let test_enumerate_well_formed () =
  let dsl = Catalog.reno in
  let enc = Abg_enum.Encode.create dsl in
  for _ = 1 to 60 do
    match Abg_enum.Encode.next enc with
    | Some sk ->
        Alcotest.(check bool) "depth budget" true
          (Expr.depth sk <= dsl.Catalog.max_depth);
        Alcotest.(check bool) "node budget" true
          (Expr.size sk <= dsl.Catalog.max_nodes);
        Alcotest.(check bool) "unit-checked" true
          (Unit_check.check sk ~expected:Abg_util.Units.bytes);
        Alcotest.(check bool) "not simplifiable" false
          (Simplify.is_simplifiable sk)
    | None -> ()
  done

let test_enumerate_bucket_restriction () =
  let enc = Abg_enum.Encode.create Catalog.reno in
  let bucket = [ Component.Op_add; Component.Op_mul ] in
  let sorted = List.sort Component.compare bucket in
  for _ = 1 to 25 do
    match Abg_enum.Encode.next ~bucket enc with
    | Some sk ->
        Alcotest.(check bool) "exact operator set" true
          (Abg_enum.Buckets.equal (Abg_enum.Buckets.of_sketch sk) sorted)
    | None -> ()
  done

let test_enumerate_empty_bucket () =
  (* Six operators cannot fit in seven nodes together with their leaves. *)
  let enc = Abg_enum.Encode.create Catalog.reno in
  let bucket =
    [ Component.Op_add; Component.Op_sub; Component.Op_mul; Component.Op_div;
      Component.Op_ite; Component.Op_lt ]
  in
  Alcotest.(check bool) "unsatisfiable bucket" true
    (Abg_enum.Encode.next ~bucket enc = None)

let micro_dsl =
  (* cwnd/mss/add at depth 2, <= 3 nodes. Non-simplifiable num-trees:
     cwnd, mss, and the adds over distinct/same leaves: cwnd+cwnd,
     cwnd+mss, mss+cwnd, mss+mss — of which cwnd+mss and mss+cwnd are
     commutative duplicates, one canonical form. Total 5. *)
  {
    Catalog.name = "micro";
    components =
      [ Component.Leaf_cwnd; Component.Leaf_signal Signal.Mss;
        Component.Op_add ];
    max_depth = 2;
    max_nodes = 3;
    constant_pool = [| 1.0 |];
    unit_check = true;
  }

let exhaust ?bucket ?(cap = 100_000) enc =
  let acc = ref [] in
  let continue = ref true in
  let budget = ref cap in
  while !continue && !budget > 0 do
    decr budget;
    match Abg_enum.Encode.next ?bucket enc with
    | Some sk -> acc := sk :: !acc
    | None -> continue := false
  done;
  Alcotest.(check bool) "enumeration terminated" true (not !continue);
  List.rev !acc

let normal_forms sketches =
  List.sort_uniq compare (List.map Abg_analysis.Canonical.normalize sketches)

let test_enumerate_exhaustion_micro_dsl () =
  let enc = Abg_enum.Encode.create micro_dsl in
  let sketches = exhaust enc in
  Alcotest.(check int) "exhaustive count" 5 (List.length sketches);
  (* With in-encoding symmetry breaking the solver never even produces
     the mss+cwnd model: no normal form repeats in the stream. *)
  Alcotest.(check int) "no normal form repeats" 5
    (List.length (normal_forms sketches))

let test_enumerate_exhaustion_micro_dsl_no_symmetry () =
  (* Symmetry breaking off: the commutative duplicate is a model of its
     own, so cwnd+mss comes back once per operand order — 6 sketches,
     the same 5 normal forms. *)
  let enc = Abg_enum.Encode.create ~symmetry:false micro_dsl in
  let sketches = exhaust enc in
  Alcotest.(check int) "one sketch per model" 6 (List.length sketches);
  Alcotest.(check int) "five normal forms" 5
    (List.length (normal_forms sketches))

let test_enumerate_finds_reno_shape () =
  (* The paper's Reno sketch must be in the {+,*} bucket's enumeration. *)
  let enc = Abg_enum.Encode.create Catalog.reno in
  let bucket = [ Component.Op_add; Component.Op_mul ] in
  let target_found = ref false in
  let continue = ref true in
  let budget = ref 5000 in
  while !continue && !budget > 0 do
    decr budget;
    match Abg_enum.Encode.next ~bucket enc with
    | Some sk -> begin
        (* CWND + c * reno-inc, modulo hole numbering and operand order. *)
        match Simplify.simplify sk with
        | Expr.Add (Expr.Cwnd, Expr.Mul (Expr.Hole _, Expr.Macro Macro.Reno_inc))
        | Expr.Add (Expr.Cwnd, Expr.Mul (Expr.Macro Macro.Reno_inc, Expr.Hole _))
        | Expr.Add (Expr.Mul (Expr.Hole _, Expr.Macro Macro.Reno_inc), Expr.Cwnd)
        | Expr.Add (Expr.Mul (Expr.Macro Macro.Reno_inc, Expr.Hole _), Expr.Cwnd)
          ->
            target_found := true;
            continue := false
        | _ -> ()
      end
    | None -> continue := false
  done;
  Alcotest.(check bool) "reno sketch reachable" true !target_found

(* -- Symmetry-breaking contract: the in-encoding lex-leader circuit must
   change only *how* duplicates are removed, never *what* is enumerated. -- *)

let canonical_set sketches =
  List.sort_uniq String.compare (List.map Pretty.to_string sketches)

let richer_dsl =
  (* Small enough to exhaust in milliseconds, rich enough to exercise
     nested commutative operators, holes and both symmetric/asymmetric
     arities. *)
  {
    Catalog.name = "richer";
    components =
      [ Component.Leaf_cwnd; Component.Leaf_signal Signal.Mss;
        Component.Leaf_const; Component.Op_add; Component.Op_mul;
        Component.Op_sub ];
    max_depth = 3;
    max_nodes = 5;
    constant_pool = [| 1.0; 2.0 |];
    unit_check = true;
  }

let test_symmetry_completeness_exhaustive () =
  (* Symmetry on vs off: identical canonical sketch sets. *)
  let on = exhaust (Abg_enum.Encode.create ~symmetry:true richer_dsl) in
  let off = exhaust (Abg_enum.Encode.create ~symmetry:false richer_dsl) in
  Alcotest.(check (list string))
    "identical canonical sketch sets" (canonical_set off) (canonical_set on);
  Alcotest.(check int) "no duplicates with symmetry on"
    (List.length (canonical_set on))
    (List.length on)

let test_symmetry_raw_stream_canonical () =
  (* With symmetry on, even the unfiltered model stream contains no
     commutative duplicates: every decoded sketch is already its own
     canonical form, and no two decoded sketches share one. *)
  let enc = Abg_enum.Encode.create ~symmetry:true richer_dsl in
  let seen = ref [] in
  let continue = ref true in
  while !continue do
    match Abg_enum.Encode.next_raw enc with
    | None -> continue := false
    | Some sk ->
        let canon = Abg_analysis.Canonical.normalize sk in
        Alcotest.(check bool) "decoded sketch already canonical" true
          (Expr.equal_num canon sk);
        Alcotest.(check bool) "no canonical collision in raw stream" false
          (List.exists (Expr.equal_num canon) !seen);
        seen := canon :: !seen
  done;
  Alcotest.(check bool) "raw stream non-empty" true (!seen <> [])

let prop_symmetry_completeness_random =
  (* Random sub-catalogs and budgets: the exhaustive canonical sketch set
     never depends on the symmetry flag. *)
  let pool =
    [| Component.Leaf_cwnd; Component.Leaf_signal Signal.Mss;
       Component.Leaf_signal Signal.Rtt; Component.Leaf_const;
       Component.Leaf_macro Macro.Reno_inc; Component.Op_add;
       Component.Op_mul; Component.Op_sub; Component.Op_div |]
  in
  let gen =
    QCheck.Gen.triple
      (QCheck.Gen.int_bound ((1 lsl Array.length pool) - 1))
      (QCheck.Gen.int_range 1 5)
      (QCheck.Gen.int_range 2 3)
  in
  let arb = QCheck.make gen ~print:(fun (m, n, d) ->
      Printf.sprintf "mask=%d max_nodes=%d max_depth=%d" m n d)
  in
  QCheck.Test.make ~name:"symmetry on/off: identical canonical sets"
    ~count:40 arb (fun (mask, max_nodes, max_depth) ->
      let components =
        (* Always include cwnd so the root has a num leaf available. *)
        Component.Leaf_cwnd
        :: List.filteri (fun i _ -> mask land (1 lsl i) <> 0)
             (Array.to_list pool)
        |> List.sort_uniq Component.compare
      in
      let dsl =
        {
          Catalog.name = "qcheck";
          components;
          max_depth;
          max_nodes;
          constant_pool = [| 1.0; 2.0 |];
          unit_check = true;
        }
      in
      let on = exhaust (Abg_enum.Encode.create ~symmetry:true dsl) in
      let off = exhaust (Abg_enum.Encode.create ~symmetry:false dsl) in
      canonical_set on = canonical_set off)

let prop_symmetry_completeness_buckets =
  (* Same contract, restricted to a random bucket of the Reno catalog
     (small node budget keeps exhaustion fast). *)
  let dsl = { Catalog.reno with Catalog.max_nodes = 5 } in
  let buckets = Array.of_list (Abg_enum.Buckets.all dsl) in
  let arb =
    QCheck.make
      (QCheck.Gen.int_bound (Array.length buckets - 1))
      ~print:(fun i ->
        String.concat ","
          (List.map
             (fun c -> Format.asprintf "%a" Component.pp c)
             buckets.(i)))
  in
  QCheck.Test.make ~name:"symmetry on/off: identical bucket sets" ~count:15
    arb (fun i ->
      let bucket = buckets.(i) in
      let on =
        exhaust ~bucket (Abg_enum.Encode.create ~symmetry:true dsl)
      in
      let off =
        exhaust ~bucket (Abg_enum.Encode.create ~symmetry:false dsl)
      in
      canonical_set on = canonical_set off)

(* -- One persistent solver: bucket switching, retirement, check. -- *)

let test_shared_encoder_bucket_switching () =
  (* Interleave two buckets on a single encoder: each returned sketch
     lands in the requested bucket and no sketch repeats. *)
  let enc = Abg_enum.Encode.create Catalog.reno in
  let b1 = [ Component.Op_add ] in
  let b2 = [ Component.Op_add; Component.Op_mul ] in
  let seen = ref [] in
  for i = 1 to 20 do
    let bucket = if i mod 2 = 0 then b1 else b2 in
    match Abg_enum.Encode.next ~bucket enc with
    | None -> ()
    | Some sk ->
        Alcotest.(check bool) "sketch in requested bucket" true
          (Abg_enum.Buckets.equal
             (Abg_enum.Buckets.of_sketch sk)
             (List.sort Component.compare bucket));
        Alcotest.(check bool) "never repeated" false
          (List.exists (Expr.equal_num sk) !seen);
        seen := sk :: !seen
  done;
  Alcotest.(check bool) "both buckets produced" true (List.length !seen >= 10)

let test_retire_bucket_closes_it () =
  (* A retired bucket is closed: neither [next] nor [check_bucket] solves
     under it again, so nothing it returned before can come back. *)
  let enc = Abg_enum.Encode.create micro_dsl in
  let bucket = [ Component.Op_add ] in
  Alcotest.(check bool) "bucket non-empty" true
    (Abg_enum.Encode.next ~bucket enc <> None);
  Alcotest.(check bool) "models left before retirement" true
    (Abg_enum.Encode.check_bucket enc bucket);
  Abg_enum.Encode.retire_bucket enc bucket;
  Alcotest.(check bool) "next on a retired bucket" true
    (Abg_enum.Encode.next ~bucket enc = None);
  Alcotest.(check bool) "check_bucket on a retired bucket" false
    (Abg_enum.Encode.check_bucket enc bucket);
  (* Retiring a bucket never enumerated (here: the leaves) closes it
     too. *)
  Abg_enum.Encode.retire_bucket enc [];
  Alcotest.(check bool) "next_raw on a retired fresh bucket" true
    (Abg_enum.Encode.next_raw ~bucket:[] enc = None)

let test_check_bucket () =
  let enc = Abg_enum.Encode.create micro_dsl in
  let bucket = [ Component.Op_add ] in
  Alcotest.(check bool) "fresh bucket satisfiable" true
    (Abg_enum.Encode.check_bucket enc bucket);
  ignore (exhaust ~bucket enc);
  Alcotest.(check bool) "exhausted bucket unsatisfiable" false
    (Abg_enum.Encode.check_bucket enc bucket)

let test_solver_stats_exposed () =
  let enc = Abg_enum.Encode.create Catalog.reno in
  ignore (Abg_enum.Encode.next enc);
  let st = Abg_enum.Encode.solver_stats enc in
  Alcotest.(check bool) "propagations counted" true
    (st.Abg_sat.Solver.propagations > 0)

(* Pinned decode regression (first sketches of the Reno enumeration):
   guards the determinism contract — fixed seeds plus identical clause
   order must reproduce this exact sequence bit-for-bit. Regenerate only
   on a deliberate encoding or heuristic change. *)
let pinned_reno_prefix : string list =
  [
    "CWND";
    "acked";
    "mss";
    "reno-inc";
    "({reno-inc % time-since-loss = 0} ? reno-inc : acked)";
    "({reno-inc % c1 = 0} ? reno-inc : acked)";
    "({reno-inc % acked = 0} ? reno-inc : acked)";
    "({reno-inc % mss = 0} ? reno-inc : acked)";
    "({reno-inc % CWND = 0} ? reno-inc : acked)";
    "({time-since-loss % c1 = 0} ? reno-inc : acked)";
    "({time-since-loss % reno-inc = 0} ? reno-inc : acked)";
    "({time-since-loss % CWND = 0} ? reno-inc : acked)";
    "({time-since-loss % mss = 0} ? reno-inc : acked)";
    "({time-since-loss % acked = 0} ? reno-inc : acked)";
    "({acked % reno-inc = 0} ? reno-inc : acked)";
    "({acked % CWND = 0} ? reno-inc : acked)";
    "({acked % mss = 0} ? reno-inc : acked)";
    "({acked % time-since-loss = 0} ? reno-inc : acked)";
    "({acked % c1 = 0} ? reno-inc : acked)";
    "({mss % c1 = 0} ? reno-inc : acked)";
    "({mss % reno-inc = 0} ? reno-inc : acked)";
    "({mss % CWND = 0} ? reno-inc : acked)";
    "({mss % acked = 0} ? reno-inc : acked)";
    "({mss % time-since-loss = 0} ? reno-inc : acked)";
    "({c1 % time-since-loss = 0} ? reno-inc : acked)";
    "({c1 % CWND = 0} ? reno-inc : acked)";
    "({c1 % reno-inc = 0} ? reno-inc : acked)";
    "({c1 % acked = 0} ? reno-inc : acked)";
    "({c1 % mss = 0} ? reno-inc : acked)";
    "({CWND % c1 = 0} ? reno-inc : acked)";
    "({CWND % acked = 0} ? reno-inc : acked)";
    "({CWND % time-since-loss = 0} ? reno-inc : acked)";
  ]

let test_pinned_reno_prefix () =
  let enc = Abg_enum.Encode.create Catalog.reno in
  let got =
    List.filter_map (fun _ -> Abg_enum.Encode.next enc)
      (List.init (List.length pinned_reno_prefix) Fun.id)
    |> List.map Pretty.to_string
  in
  Alcotest.(check (list string)) "first Reno sketches" pinned_reno_prefix got

(* Pinned model stream of a conditional DSL: the first 2,000 sketches
   of the vegas sub-DSL (the seeded headline's hinted search space),
   where the relational prune stage fires. Order-sensitive, so it pins
   the seed formula, every prune stage and the returned canonical forms
   together. Regenerate only on a deliberate encoding or heuristic
   change. *)
let test_pinned_vegas_stream () =
  let enc = Abg_enum.Encode.create Catalog.vegas in
  let buf = Buffer.create (1 lsl 16) in
  for _ = 1 to 2000 do
    match Abg_enum.Encode.next enc with
    | Some sk ->
        Buffer.add_string buf (Pretty.to_string sk);
        Buffer.add_char buf '\n'
    | None -> Alcotest.fail "vegas exhausted before 2,000 sketches"
  done;
  Alcotest.(check string) "md5 of the first 2,000 vegas sketches"
    "394a39d9baaf242c39613ebf92c52701"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let test_stats_and_vars () =
  let enc = Abg_enum.Encode.create Catalog.reno in
  ignore (Abg_enum.Encode.next enc);
  let returned, _ = Abg_enum.Encode.stats enc in
  Alcotest.(check int) "one returned" 1 returned;
  Alcotest.(check bool) "vars allocated" true (Abg_enum.Encode.num_vars enc > 100)

let test_bucket_of_sketch_partition () =
  (* Enumerated sketches across different buckets never collide. *)
  let enc = Abg_enum.Encode.create Catalog.reno in
  let enc2 = Abg_enum.Encode.create Catalog.reno in
  let b1 = [ Component.Op_add ] in
  let b2 = [ Component.Op_add; Component.Op_mul ] in
  let from_b1 = List.filter_map (fun _ -> Abg_enum.Encode.next ~bucket:b1 enc) (List.init 10 Fun.id) in
  let from_b2 = List.filter_map (fun _ -> Abg_enum.Encode.next ~bucket:b2 enc2) (List.init 10 Fun.id) in
  List.iter
    (fun s1 ->
      List.iter
        (fun s2 ->
          Alcotest.(check bool) "disjoint" false (Expr.equal_num s1 s2))
        from_b2)
    from_b1

let suites =
  [
    ( "enum.shape",
      [ Alcotest.test_case "indexing" `Quick test_shape_indexing ] );
    ( "enum.count",
      [
        Alcotest.test_case "monotone in depth" `Quick test_count_monotone_in_depth;
        Alcotest.test_case "depth zero" `Quick test_count_depth_zero;
        Alcotest.test_case "leaves only" `Quick test_count_leaf_only;
      ] );
    ( "enum.buckets",
      [
        Alcotest.test_case "feasibility" `Quick test_buckets_feasibility;
        Alcotest.test_case "reno count" `Quick test_buckets_count_reno;
      ] );
    ( "enum.encode",
      [
        Alcotest.test_case "distinct models" `Quick test_enumerate_distinct;
        Alcotest.test_case "well-formed sketches" `Quick test_enumerate_well_formed;
        Alcotest.test_case "bucket restriction" `Quick test_enumerate_bucket_restriction;
        Alcotest.test_case "empty bucket" `Quick test_enumerate_empty_bucket;
        Alcotest.test_case "micro-DSL exhaustion" `Quick test_enumerate_exhaustion_micro_dsl;
        Alcotest.test_case "micro-DSL exhaustion (no symmetry)" `Quick
          test_enumerate_exhaustion_micro_dsl_no_symmetry;
        Alcotest.test_case "reno sketch reachable" `Slow test_enumerate_finds_reno_shape;
        Alcotest.test_case "stats" `Quick test_stats_and_vars;
        Alcotest.test_case "buckets partition" `Quick test_bucket_of_sketch_partition;
        Alcotest.test_case "pinned reno prefix" `Quick test_pinned_reno_prefix;
        Alcotest.test_case "pinned vegas stream" `Quick test_pinned_vegas_stream;
      ] );
    ( "enum.symmetry",
      [
        Alcotest.test_case "completeness (exhaustive)" `Quick
          test_symmetry_completeness_exhaustive;
        Alcotest.test_case "raw stream canonical" `Quick
          test_symmetry_raw_stream_canonical;
      ]
      @ List.map
          (QCheck_alcotest.to_alcotest ~long:false)
          [
            prop_symmetry_completeness_random;
            prop_symmetry_completeness_buckets;
          ] );
    ( "enum.incremental",
      [
        Alcotest.test_case "shared encoder bucket switching" `Quick
          test_shared_encoder_bucket_switching;
        Alcotest.test_case "retire bucket" `Quick test_retire_bucket_closes_it;
        Alcotest.test_case "check bucket" `Quick test_check_bucket;
        Alcotest.test_case "solver stats" `Quick test_solver_stats_exposed;
      ] );
  ]
