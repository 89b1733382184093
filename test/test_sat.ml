(* Tests for the CDCL SAT solver and CNF helpers, including a
   brute-force differential fuzz on random 3-SAT. *)

open Abg_sat

let fresh_vars s n = List.init n (fun _ -> Solver.new_var s)

let expect_sat s =
  match Solver.solve s with
  | Solver.Sat m -> m
  | Solver.Unsat -> Alcotest.fail "expected SAT"

let expect_unsat ?assumptions s =
  match Solver.solve ?assumptions s with
  | Solver.Sat _ -> Alcotest.fail "expected UNSAT"
  | Solver.Unsat -> ()

let test_trivial_sat () =
  let s = Solver.create () in
  let v = Solver.new_var s in
  Solver.add_clause s [ v ];
  let m = expect_sat s in
  Alcotest.(check bool) "v true" true m.(v)

let test_trivial_unsat () =
  let s = Solver.create () in
  let v = Solver.new_var s in
  Solver.add_clause s [ v ];
  Solver.add_clause s [ -v ];
  expect_unsat s

let test_unit_propagation_chain () =
  let s = Solver.create () in
  let vs = Array.of_list (fresh_vars s 10) in
  Solver.add_clause s [ vs.(0) ];
  for i = 0 to 8 do
    Solver.add_clause s [ -vs.(i); vs.(i + 1) ]
  done;
  let m = expect_sat s in
  Array.iter (fun v -> Alcotest.(check bool) "chain forced" true m.(v)) vs

let test_empty_formula_sat () =
  let s = Solver.create () in
  let _ = fresh_vars s 3 in
  ignore (expect_sat s)

let test_pigeonhole_unsat () =
  (* 4 pigeons, 3 holes. *)
  let s = Solver.create () in
  let p = Array.init 4 (fun _ -> Array.of_list (fresh_vars s 3)) in
  for i = 0 to 3 do
    Solver.add_clause s (Array.to_list p.(i))
  done;
  for h = 0 to 2 do
    for i = 0 to 3 do
      for j = i + 1 to 3 do
        Solver.add_clause s [ -p.(i).(h); -p.(j).(h) ]
      done
    done
  done;
  expect_unsat s

let test_model_satisfies () =
  let s = Solver.create () in
  let vs = fresh_vars s 6 in
  let clauses =
    [ [ List.nth vs 0; -List.nth vs 1 ]; [ List.nth vs 2; List.nth vs 3 ];
      [ -List.nth vs 4; List.nth vs 5; List.nth vs 0 ] ]
  in
  List.iter (Solver.add_clause s) clauses;
  let m = expect_sat s in
  List.iter
    (fun c ->
      Alcotest.(check bool) "clause satisfied" true
        (List.exists (fun l -> if l > 0 then m.(l) else not m.(-l)) c))
    clauses

let test_assumptions () =
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s in
  Solver.add_clause s [ -a; b ];
  expect_unsat ~assumptions:[ a; -b ] s;
  (match Solver.solve ~assumptions:[ a ] s with
  | Solver.Sat m -> Alcotest.(check bool) "b forced" true m.(b)
  | Solver.Unsat -> Alcotest.fail "expected SAT");
  (* The solver must stay usable after a failed-assumption call. *)
  ignore (expect_sat s)

let test_enumeration_count () =
  (* Count models of (x1 | x2 | x3): 7 of 8 assignments. *)
  let s = Solver.create () in
  let vs = fresh_vars s 3 in
  Solver.add_clause s vs;
  let count = ref 0 in
  let continue = ref true in
  while !continue do
    match Solver.solve s with
    | Solver.Sat m ->
        incr count;
        Solver.add_clause s (List.map (fun v -> if m.(v) then -v else v) vs)
    | Solver.Unsat -> continue := false
  done;
  Alcotest.(check int) "model count" 7 !count

let test_randomize_sound () =
  let s = Solver.create () in
  let vs = fresh_vars s 8 in
  List.iteri (fun i v -> if i mod 2 = 0 then Solver.add_clause s [ v ]) vs;
  for seed = 0 to 20 do
    Solver.randomize s ~seed;
    let m = expect_sat s in
    List.iteri
      (fun i v ->
        if i mod 2 = 0 then Alcotest.(check bool) "forced stays true" true m.(v))
      vs
  done

(* -- Cnf helpers -- *)

let count_models s vs =
  let count = ref 0 in
  let continue = ref true in
  while !continue do
    match Solver.solve s with
    | Solver.Sat m ->
        incr count;
        Solver.add_clause s (List.map (fun v -> if m.(v) then -v else v) vs)
    | Solver.Unsat -> continue := false
  done;
  !count

let test_exactly_one () =
  let s = Solver.create () in
  let vs = fresh_vars s 5 in
  Cnf.exactly_one s vs;
  Alcotest.(check int) "5 models" 5 (count_models s vs)

let test_at_most_one () =
  let s = Solver.create () in
  let vs = fresh_vars s 4 in
  Cnf.at_most_one s vs;
  Alcotest.(check int) "4 + empty" 5 (count_models s vs)

let binom n k =
  let rec go n k = if k = 0 then 1 else go (n - 1) (k - 1) * n / k in
  go n k

let test_at_most_k () =
  let n = 6 and k = 2 in
  let s = Solver.create () in
  let vs = fresh_vars s n in
  Cnf.at_most_k s vs k;
  let expected = binom n 0 + binom n 1 + binom n 2 in
  Alcotest.(check int) "sum of binomials" expected (count_models s vs)

let test_at_most_k_zero () =
  let s = Solver.create () in
  let vs = fresh_vars s 3 in
  Cnf.at_most_k s vs 0;
  Alcotest.(check int) "only empty" 1 (count_models s vs)

let test_at_most_k_slack () =
  let s = Solver.create () in
  let vs = fresh_vars s 3 in
  Cnf.at_most_k s vs 5;
  Alcotest.(check int) "unconstrained" 8 (count_models s vs)

let test_implies () =
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s in
  Cnf.implies s a b;
  expect_unsat ~assumptions:[ a; -b ] s

let test_at_most_one_commander () =
  (* 10 literals is above the commander threshold: the encoding recurses
     but stays equisatisfiable on the projection — 10 singletons plus the
     empty assignment. (Blocking clauses over the original variables kill
     every commander extension at once, so counting is unaffected.) *)
  let s = Solver.create () in
  let vs = fresh_vars s 10 in
  Cnf.at_most_one s vs;
  Alcotest.(check int) "10 + empty" 11 (count_models s vs)

let prop_commander_equisatisfiable =
  (* For any size and any forced sub-assignment, the commander encoding
     and the pairwise baseline agree on satisfiability. *)
  QCheck.Test.make ~name:"commander at_most_one equisatisfiable with pairwise"
    ~count:100
    QCheck.(pair (int_range 1 14) (int_range 0 3))
    (fun (n, forced) ->
      let forced = min forced n in
      let build amo =
        let s = Solver.create () in
        let vs = fresh_vars s n in
        amo s vs;
        (* Force the first [forced] literals true. *)
        List.iteri (fun i v -> if i < forced then Solver.add_clause s [ v ]) vs;
        match Solver.solve s with Solver.Sat _ -> true | Solver.Unsat -> false
      in
      build Cnf.at_most_one = build Cnf.pairwise_at_most_one)

let test_lex_gadgets () =
  let s = Solver.create () in
  let u = Solver.new_var s in
  let g1 = Solver.new_var s and e1 = Solver.new_var s in
  let g2 = Solver.new_var s and e2 = Solver.new_var s in
  let t = Solver.new_var s in
  Cnf.lex_gt_implies s ~under:[ u ] ~target:t [ (g1, e1); (g2, e2) ];
  (* First digit greater forces the target... *)
  expect_unsat ~assumptions:[ u; g1; -t ] s;
  (* ...so does the second when the first is equal... *)
  expect_unsat ~assumptions:[ u; e1; g2; -t ] s;
  (* ...but not without the equality prefix or the guard. *)
  ignore (expect_sat s);
  (match Solver.solve ~assumptions:[ u; -e1; g2; -t ] s with
  | Solver.Sat _ -> ()
  | Solver.Unsat -> Alcotest.fail "no forcing without eq prefix");
  (match Solver.solve ~assumptions:[ -u; g1; -t ] s with
  | Solver.Sat _ -> ()
  | Solver.Unsat -> Alcotest.fail "no forcing without guard");
  (* lex_le bans the greater sequences outright. *)
  let s2 = Solver.create () in
  let u' = Solver.new_var s2 in
  let g1' = Solver.new_var s2 and e1' = Solver.new_var s2 in
  let g2' = Solver.new_var s2 and e2' = Solver.new_var s2 in
  ignore e2';
  Cnf.lex_le s2 ~under:[ u' ] [ (g1', e1'); (g2', e2') ];
  expect_unsat ~assumptions:[ u'; g1' ] s2;
  expect_unsat ~assumptions:[ u'; e1'; g2' ] s2;
  match Solver.solve ~assumptions:[ -u'; g1' ] s2 with
  | Solver.Sat _ -> ()
  | Solver.Unsat -> Alcotest.fail "lex_le must be guarded"

(* -- Clause groups -- *)

let test_group_activation_and_retire () =
  let s = Solver.create () in
  let a = Solver.new_var s in
  let g = Solver.new_group s in
  Solver.add_clause_in s g [ a ];
  (* Inert without the selector... *)
  (match Solver.solve ~assumptions:[ -a ] s with
  | Solver.Sat _ -> ()
  | Solver.Unsat -> Alcotest.fail "group must be inert unassumed");
  (* ...binding under it... *)
  expect_unsat ~assumptions:[ Solver.group_lit g; -a ] s;
  (* ...and permanently off after retirement. *)
  Solver.retire_group s g;
  expect_unsat ~assumptions:[ Solver.group_lit g ] s;
  (match Solver.solve ~assumptions:[ -a ] s with
  | Solver.Sat _ -> ()
  | Solver.Unsat -> Alcotest.fail "retired group must not constrain");
  Solver.retire_group s g;
  (* Adding to a retired group is a programming error. *)
  match Solver.add_clause_in s g [ a ] with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_group_learnts_survive_retirement () =
  (* Pigeonhole inside a group: solving under the selector learns clauses
     that mention it; after retirement the instance must behave as if the
     group never existed. *)
  let s = Solver.create () in
  let p = Array.init 4 (fun _ -> Array.of_list (fresh_vars s 3)) in
  let g = Solver.new_group s in
  for i = 0 to 3 do
    Solver.add_clause_in s g (Array.to_list p.(i))
  done;
  for h = 0 to 2 do
    for i = 0 to 3 do
      for j = i + 1 to 3 do
        Solver.add_clause_in s g [ -p.(i).(h); -p.(j).(h) ]
      done
    done
  done;
  expect_unsat ~assumptions:[ Solver.group_lit g ] s;
  Solver.retire_group s g;
  (* All pigeon variables are free again. *)
  let m = expect_sat s in
  ignore m;
  match Solver.solve ~assumptions:[ p.(0).(0); p.(1).(0) ] s with
  | Solver.Sat _ -> ()
  | Solver.Unsat -> Alcotest.fail "retired constraints must not bind"

(* -- Learnt-DB reduction -- *)

let test_reduce_db_soundness () =
  (* A tiny learnt ceiling forces many reduction passes mid-search; the
     answer must not change. Pigeonhole 5->4 generates thousands of
     conflicts. *)
  let s = Solver.create () in
  let p = Array.init 5 (fun _ -> Array.of_list (fresh_vars s 4)) in
  Solver.set_max_learnts s 8;
  for i = 0 to 4 do
    Solver.add_clause s (Array.to_list p.(i))
  done;
  for h = 0 to 3 do
    for i = 0 to 4 do
      for j = i + 1 to 4 do
        Solver.add_clause s [ -p.(i).(h); -p.(j).(h) ]
      done
    done
  done;
  expect_unsat s;
  let st = Solver.stats s in
  Alcotest.(check bool) "reductions happened" true
    (st.Solver.db_reductions > 0);
  Alcotest.(check bool) "live learnts bounded below total" true
    (st.Solver.learnts_live <= st.Solver.learnts_total)

let test_enumeration_under_gc () =
  (* Model counting with an aggressive learnt GC: the count is exact
     regardless of which learnt clauses survive. *)
  let n = 6 and k = 2 in
  let s = Solver.create () in
  let vs = fresh_vars s n in
  Cnf.at_most_k s vs k;
  Solver.set_max_learnts s 8;
  let expected = binom n 0 + binom n 1 + binom n 2 in
  Alcotest.(check int) "count under GC" expected (count_models s vs)

let test_stats_move () =
  let s = Solver.create () in
  let vs = Array.of_list (fresh_vars s 10) in
  Solver.add_clause s [ vs.(0) ];
  for i = 0 to 8 do
    Solver.add_clause s [ -vs.(i); vs.(i + 1) ]
  done;
  ignore (expect_sat s);
  let st = Solver.stats s in
  Alcotest.(check bool) "propagations counted" true (st.Solver.propagations >= 10)

(* -- Determinism of randomized enumeration -- *)

let enumerate_with_seeds n_vars n_models =
  (* One fixed formula; randomize with seed i before the i-th solve and
     collect the model bit-strings. *)
  let s = Solver.create () in
  let vs = fresh_vars s n_vars in
  Solver.add_clause s vs;
  Cnf.at_most_k s vs 3;
  let out = ref [] in
  (try
     for i = 1 to n_models do
       Solver.randomize s ~seed:(i * 7919);
       match Solver.solve s with
       | Solver.Unsat -> raise Exit
       | Solver.Sat m ->
           out :=
             String.concat ""
               (List.map (fun v -> if m.(v) then "1" else "0") vs)
             :: !out;
           Solver.add_clause s (List.map (fun v -> if m.(v) then -v else v) vs)
     done
   with Exit -> ());
  List.rev !out

let test_randomize_deterministic () =
  (* The documented contract: fixed seed sequence + identical clause order
     => bit-identical model sequence. *)
  let a = enumerate_with_seeds 9 25 in
  let b = enumerate_with_seeds 9 25 in
  Alcotest.(check (list string)) "bit-identical model sequences" a b;
  Alcotest.(check bool) "non-trivial run" true (List.length a > 5)

(* -- Differential fuzz vs brute force -- *)

let brute_force_sat n clauses =
  let rec go assign v =
    if v = n then
      List.for_all
        (fun c ->
          List.exists
            (fun l -> if l > 0 then assign.(l - 1) else not assign.(-l - 1))
            c)
        clauses
    else begin
      assign.(v) <- true;
      go assign (v + 1)
      ||
      (assign.(v) <- false;
       go assign (v + 1))
    end
  in
  go (Array.make n false) 0

let prop_matches_brute_force =
  QCheck.Test.make ~name:"cdcl agrees with brute force on random 3-SAT"
    ~count:150
    QCheck.(pair (int_range 3 10) (int_range 1 40))
    (fun (n, m) ->
      let rng = Abg_util.Rng.create ((n * 1000) + m) in
      let clauses =
        List.init m (fun _ ->
            List.init 3 (fun _ ->
                let v = 1 + Abg_util.Rng.int rng n in
                if Abg_util.Rng.bool rng then v else -v))
      in
      let s = Solver.create () in
      ignore (fresh_vars s n);
      List.iter (Solver.add_clause s) clauses;
      let expected = brute_force_sat n clauses in
      match Solver.solve s with
      | Solver.Sat model ->
          expected
          && List.for_all
               (fun c ->
                 List.exists
                   (fun l -> if l > 0 then model.(l) else not model.(-l))
                   c)
               clauses
      | Solver.Unsat -> not expected)

let prop_incremental_enumeration_complete =
  QCheck.Test.make ~name:"enumeration finds the brute-force model count"
    ~count:50
    QCheck.(pair (int_range 2 6) (int_range 1 10))
    (fun (n, m) ->
      let rng = Abg_util.Rng.create ((n * 77) + m) in
      let clauses =
        List.init m (fun _ ->
            List.init 2 (fun _ ->
                let v = 1 + Abg_util.Rng.int rng n in
                if Abg_util.Rng.bool rng then v else -v))
      in
      let brute_count = ref 0 in
      let rec go assign v =
        if v = n then begin
          if
            List.for_all
              (fun c ->
                List.exists
                  (fun l -> if l > 0 then assign.(l - 1) else not assign.(-l - 1))
                  c)
              clauses
          then incr brute_count
        end
        else begin
          assign.(v) <- true;
          go assign (v + 1);
          assign.(v) <- false;
          go assign (v + 1)
        end
      in
      go (Array.make n false) 0;
      let s = Solver.create () in
      let vs = fresh_vars s n in
      List.iter (Solver.add_clause s) clauses;
      count_models s vs = !brute_count)

(* Incremental use as enumeration drives it: clauses, groups, retirements,
   heuristic scrambles and assumption-scoped solves interleaved on one
   instance. Each answer is checked against brute force over the clauses
   active for that call: the permanent ones, plus those of every live
   group whose selector is assumed. Assuming a retired group's selector
   must be Unsat, since retirement pins it false. *)
let prop_incremental_differential =
  QCheck.Test.make ~name:"incremental groups and assumptions agree with brute force"
    ~count:200
    QCheck.(pair (int_range 1 8) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let rng = Abg_util.Rng.create seed in
      let lit () =
        let v = 1 + Abg_util.Rng.int rng n in
        if Abg_util.Rng.bool rng then v else -v
      in
      let clause lo hi =
        List.init (lo + Abg_util.Rng.int rng (hi - lo + 1)) (fun _ -> lit ())
      in
      let holds model l = if l > 0 then model.(l) else not model.(-l) in
      let s = Solver.create () in
      ignore (fresh_vars s n);
      let permanent = ref [] in
      (* (group, its clauses, retired) *)
      let groups = ref [] in
      let ok = ref true in
      for _ = 1 to 40 do
        match Abg_util.Rng.int rng 10 with
        | 0 ->
            let c = clause 2 3 in
            Solver.add_clause s c;
            permanent := c :: !permanent
        | 1 -> groups := (Solver.new_group s, ref [], ref false) :: !groups
        | 2 | 3 -> (
            match List.filter (fun (_, _, r) -> not !r) !groups with
            | [] -> ()
            | live ->
                let g, cs, _ =
                  List.nth live (Abg_util.Rng.int rng (List.length live))
                in
                let c = clause 1 3 in
                Solver.add_clause_in s g c;
                cs := c :: !cs)
        | 4 -> (
            match !groups with
            | [] -> ()
            | gs ->
                let g, _, r = List.nth gs (Abg_util.Rng.int rng (List.length gs)) in
                Solver.retire_group s g;
                r := true)
        | 5 -> Solver.randomize s ~seed:(Abg_util.Rng.int rng 1000)
        | _ ->
            let assumed =
              List.filter (fun _ -> Abg_util.Rng.bool rng) !groups
            in
            let var_lits = List.init (Abg_util.Rng.int rng 3) (fun _ -> lit ()) in
            let assumptions =
              List.map (fun (g, _, _) -> Solver.group_lit g) assumed @ var_lits
            in
            let active =
              !permanent
              @ List.concat_map (fun (_, cs, _) -> !cs) assumed
              @ List.map (fun l -> [ l ]) var_lits
            in
            let expected =
              (not (List.exists (fun (_, _, r) -> !r) assumed))
              && brute_force_sat n active
            in
            (match Solver.solve ~assumptions s with
            | Solver.Sat model ->
                if
                  not
                    (expected
                    && List.for_all (List.exists (holds model)) active
                    && List.for_all (holds model) assumptions)
                then ok := false
            | Solver.Unsat -> if expected then ok := false)
      done;
      !ok)

let qcheck tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let suites =
  [
    ( "sat.solver",
      [
        Alcotest.test_case "trivial sat" `Quick test_trivial_sat;
        Alcotest.test_case "trivial unsat" `Quick test_trivial_unsat;
        Alcotest.test_case "unit propagation chain" `Quick test_unit_propagation_chain;
        Alcotest.test_case "empty formula" `Quick test_empty_formula_sat;
        Alcotest.test_case "pigeonhole 4->3 unsat" `Quick test_pigeonhole_unsat;
        Alcotest.test_case "model satisfies clauses" `Quick test_model_satisfies;
        Alcotest.test_case "assumptions" `Quick test_assumptions;
        Alcotest.test_case "enumeration count" `Quick test_enumeration_count;
        Alcotest.test_case "randomize is sound" `Quick test_randomize_sound;
        Alcotest.test_case "randomize is deterministic" `Quick
          test_randomize_deterministic;
        Alcotest.test_case "groups: activate and retire" `Quick
          test_group_activation_and_retire;
        Alcotest.test_case "groups: learnts survive retirement" `Quick
          test_group_learnts_survive_retirement;
        Alcotest.test_case "learnt-DB reduction sound" `Quick
          test_reduce_db_soundness;
        Alcotest.test_case "enumeration under GC" `Quick
          test_enumeration_under_gc;
        Alcotest.test_case "stats" `Quick test_stats_move;
      ]
      @ qcheck
          [
            prop_matches_brute_force;
            prop_incremental_enumeration_complete;
            prop_incremental_differential;
          ]
    );
    ( "sat.cnf",
      [
        Alcotest.test_case "exactly_one" `Quick test_exactly_one;
        Alcotest.test_case "at_most_one" `Quick test_at_most_one;
        Alcotest.test_case "at_most_one commander" `Quick
          test_at_most_one_commander;
        Alcotest.test_case "at_most_k counts" `Quick test_at_most_k;
        Alcotest.test_case "at_most_k zero" `Quick test_at_most_k_zero;
        Alcotest.test_case "at_most_k slack" `Quick test_at_most_k_slack;
        Alcotest.test_case "implies" `Quick test_implies;
        Alcotest.test_case "lex gadgets" `Quick test_lex_gadgets;
      ]
      @ qcheck [ prop_commander_equisatisfiable ] );
  ]
