(* Tests for the CDCL solver: hand-written instances, pigeonhole
   problems, and random CNFs cross-checked against brute force. *)

open Ilv_sat

let t name f = Alcotest.test_case name `Quick f

let result =
  Alcotest.testable
    (fun fmt -> function
      | Sat.Sat -> Format.pp_print_string fmt "SAT"
      | Sat.Unsat -> Format.pp_print_string fmt "UNSAT")
    ( = )

let mk n_vars clauses =
  let s = Sat.create () in
  for _ = 1 to n_vars do
    ignore (Sat.new_var s)
  done;
  List.iter (Sat.add_clause s) clauses;
  s

let solve n_vars clauses = Sat.solve (mk n_vars clauses)

let unit_tests =
  [
    t "empty problem is sat" (fun () ->
        Alcotest.check result "sat" Sat.Sat (solve 0 []));
    t "single unit" (fun () ->
        let s = mk 1 [ [ 1 ] ] in
        Alcotest.check result "sat" Sat.Sat (Sat.solve s);
        Alcotest.(check bool) "v1" true (Sat.value s 1));
    t "contradicting units" (fun () ->
        Alcotest.check result "unsat" Sat.Unsat (solve 1 [ [ 1 ]; [ -1 ] ]));
    t "empty clause" (fun () ->
        Alcotest.check result "unsat" Sat.Unsat (solve 1 [ [] ]));
    t "tautology is dropped" (fun () ->
        Alcotest.check result "sat" Sat.Sat (solve 1 [ [ 1; -1 ] ]));
    t "implication chain forces value" (fun () ->
        (* 1, 1->2, 2->3, 3->4 *)
        let s = mk 4 [ [ 1 ]; [ -1; 2 ]; [ -2; 3 ]; [ -3; 4 ] ] in
        Alcotest.check result "sat" Sat.Sat (Sat.solve s);
        List.iter
          (fun v -> Alcotest.(check bool) (string_of_int v) true (Sat.value s v))
          [ 1; 2; 3; 4 ]);
    t "xor chain unsat" (fun () ->
        (* x1 xor x2 = 1, x2 xor x3 = 1, x1 xor x3 = 1 is unsatisfiable *)
        let xor_cnf a b =
          [ [ a; b ]; [ -a; -b ] ]
        in
        let clauses = xor_cnf 1 2 @ xor_cnf 2 3 @ xor_cnf 1 3 in
        Alcotest.check result "unsat" Sat.Unsat (solve 3 clauses));
    t "add_clause rejects unknown vars" (fun () ->
        let s = mk 1 [] in
        try
          Sat.add_clause s [ 2 ];
          Alcotest.fail "expected Invalid_argument"
        with Invalid_argument _ -> ());
    t "incremental: clauses can be added between solves" (fun () ->
        let s = mk 2 [ [ 1; 2 ] ] in
        Alcotest.check result "sat" Sat.Sat (Sat.solve s);
        Sat.add_clause s [ -1 ];
        Alcotest.check result "still sat" Sat.Sat (Sat.solve s);
        Alcotest.(check bool) "v2 forced" true (Sat.value s 2);
        Sat.add_clause s [ -2 ];
        Alcotest.check result "now unsat" Sat.Unsat (Sat.solve s));
    t "assumptions restrict without committing" (fun () ->
        let s = mk 2 [ [ 1; 2 ] ] in
        Alcotest.check result "unsat under -1 -2" Sat.Unsat
          (Sat.solve ~assumptions:[ -1; -2 ] s);
        Alcotest.check result "sat under -1" Sat.Sat
          (Sat.solve ~assumptions:[ -1 ] s);
        Alcotest.(check bool) "model has 2" true (Sat.value s 2);
        Alcotest.check result "sat unconstrained" Sat.Sat (Sat.solve s));
    t "assumption contradicting a unit is unsat" (fun () ->
        let s = mk 1 [ [ 1 ] ] in
        Alcotest.check result "unsat" Sat.Unsat (Sat.solve ~assumptions:[ -1 ] s);
        Alcotest.check result "sat again" Sat.Sat (Sat.solve s));
  ]

(* Pigeonhole principle: [php p h] encodes "p pigeons into h holes". *)
let php pigeons holes =
  let var p h = (p * holes) + h + 1 in
  let n_vars = pigeons * holes in
  let every_pigeon_somewhere =
    List.init pigeons (fun p -> List.init holes (fun h -> var p h))
  in
  let no_two_in_same_hole =
    List.concat_map
      (fun h ->
        List.concat_map
          (fun p1 ->
            List.filter_map
              (fun p2 ->
                if p1 < p2 then Some [ -var p1 h; -var p2 h ] else None)
              (List.init pigeons Fun.id))
          (List.init pigeons Fun.id))
      (List.init holes Fun.id)
  in
  (n_vars, every_pigeon_somewhere @ no_two_in_same_hole)

let pigeonhole_tests =
  [
    t "php 3 into 3 is sat" (fun () ->
        let n, cs = php 3 3 in
        Alcotest.check result "sat" Sat.Sat (solve n cs));
    t "php 4 into 3 is unsat" (fun () ->
        let n, cs = php 4 3 in
        Alcotest.check result "unsat" Sat.Unsat (solve n cs));
    t "php 6 into 5 is unsat" (fun () ->
        let n, cs = php 6 5 in
        Alcotest.check result "unsat" Sat.Unsat (solve n cs));
    t "php 7 into 7 is sat with valid model" (fun () ->
        let n, cs = php 7 7 in
        let s = mk n cs in
        Alcotest.check result "sat" Sat.Sat (Sat.solve s);
        let ok =
          List.for_all
            (fun clause ->
              List.exists (fun l -> Sat.value s (abs l) = (l > 0)) clause)
            cs
        in
        Alcotest.(check bool) "model satisfies" true ok);
  ]

(* --- activation literals and between-query maintenance: the solver
   side of the incremental assumption-based checking scheme --- *)

let activation_tests =
  [
    t "activation literal deactivates its cone" (fun () ->
        (* act guards a contradiction: unsat only while act is assumed *)
        let s = mk 2 [] in
        Sat.add_clause ~activation:true s [ -1; 2 ];
        Sat.add_clause ~activation:true s [ -1; -2 ];
        Alcotest.check result "unsat under act" Sat.Unsat
          (Sat.solve ~assumptions:[ 1 ] s);
        Alcotest.check result "sat without act" Sat.Sat (Sat.solve s);
        (* retiring the cone (unit -act) leaves the instance sat *)
        Sat.add_clause ~activation:true s [ -1 ];
        Alcotest.check result "sat after retire" Sat.Sat (Sat.solve s));
    t "independent cones coexist in one solver" (fun () ->
        (* cone 1 forces x, cone 2 forces -x: each is consistent alone,
           both together clash *)
        let s = mk 3 [] in
        Sat.add_clause ~activation:true s [ -1; 3 ];
        Sat.add_clause ~activation:true s [ -2; -3 ];
        Alcotest.check result "cone 1 alone" Sat.Sat
          (Sat.solve ~assumptions:[ 1 ] s);
        Alcotest.(check bool) "forces x" true (Sat.value s 3);
        Alcotest.check result "cone 2 alone" Sat.Sat
          (Sat.solve ~assumptions:[ 2 ] s);
        Alcotest.(check bool) "forces -x" false (Sat.value s 3);
        Alcotest.check result "both cones clash" Sat.Unsat
          (Sat.solve ~assumptions:[ 1; 2 ] s));
    t "learnt clauses persist across assumption solves" (fun () ->
        (* The same hard query twice: with clause learning carrying
           over, the second solve must need strictly fewer conflicts
           (in practice near zero).  This is the property the shared
           per-design solver of the engine relies on. *)
        let n, cs = php 5 4 in
        let s = mk (n + 1) [] in
        let act = n + 1 in
        List.iter (fun c -> Sat.add_clause ~activation:true s (-act :: c)) cs;
        let c0 = (Sat.stats s).Sat.conflicts in
        Alcotest.check result "first solve unsat" Sat.Unsat
          (Sat.solve ~assumptions:[ act ] s);
        let c1 = (Sat.stats s).Sat.conflicts in
        Alcotest.check result "second solve unsat" Sat.Unsat
          (Sat.solve ~assumptions:[ act ] s);
        let c2 = (Sat.stats s).Sat.conflicts in
        Alcotest.(check bool)
          "first solve had to work" true
          (c1 - c0 > 0);
        Alcotest.(check bool)
          (Printf.sprintf "second solve cheaper (%d < %d)" (c2 - c1) (c1 - c0))
          true
          (c2 - c1 < c1 - c0));
    t "problem and activation clauses are counted separately" (fun () ->
        let s = mk 5 [ [ 4; 5 ]; [ -4; 5 ] ] in
        Sat.add_clause ~activation:true s [ -1; 3 ];
        Sat.add_clause ~activation:true s [ -1; 2 ];
        Alcotest.(check int) "problem" 2 (Sat.num_problem_clauses s);
        Alcotest.(check int) "activation" 2 (Sat.num_activation_clauses s);
        Alcotest.(check int) "total" 4 (Sat.num_clauses s);
        (* a retire unit becomes a level-0 fact, not a stored clause,
           and level-0 simplification then sheds the satisfied guards *)
        Sat.add_clause ~activation:true s [ -1 ];
        Alcotest.(check int) "unit not stored" 4 (Sat.num_clauses s);
        ignore (Sat.simplify ~subsume:false s);
        Alcotest.(check int) "guards shed" 0 (Sat.num_activation_clauses s);
        Alcotest.(check int) "problem intact" 2 (Sat.num_problem_clauses s));
    t "age_activity leaves verdicts intact" (fun () ->
        let n, cs = php 4 3 in
        let s = mk n cs in
        Alcotest.check result "unsat" Sat.Unsat (Sat.solve s);
        Sat.age_activity s;
        Alcotest.check result "still unsat" Sat.Unsat (Sat.solve s);
        (* repeated aging must not overflow the activity scale *)
        for _ = 1 to 50 do
          Sat.age_activity s
        done;
        Alcotest.check result "after 50 agings" Sat.Unsat (Sat.solve s));
  ]

let simplify_tests =
  [
    t "simplify propagates units and sheds satisfied clauses" (fun () ->
        (* the unit arrives after the clauses are attached, as a retire
           unit would: both survive in the DB until simplify runs *)
        let s = mk 3 [ [ 1; 2 ]; [ -1; 3 ] ] in
        Sat.add_clause s [ 1 ];
        let removed = Sat.simplify s in
        (* [1;2] is satisfied by the unit; [-1;3] reduces to the fact 3 *)
        Alcotest.(check int) "both clauses shed" 2 removed;
        Alcotest.check result "sat" Sat.Sat (Sat.solve s);
        Alcotest.(check bool) "v1" true (Sat.value s 1);
        Alcotest.(check bool) "v3" true (Sat.value s 3));
    t "subsumption stage is optional" (fun () ->
        let dup = [ [ 1; 2 ]; [ 1; 2 ]; [ 1; 2; 3 ] ] in
        let s = mk 3 dup in
        Alcotest.(check int)
          "linear passes alone remove nothing here" 0
          (Sat.simplify ~subsume:false s);
        let s' = mk 3 dup in
        Alcotest.(check bool)
          "full pass removes the duplicate and the subsumed clause" true
          (Sat.simplify s' >= 2);
        Alcotest.check result "still sat" Sat.Sat (Sat.solve s'));
    t "simplify after retire sheds the retired cone's guards" (fun () ->
        let s = mk 2 [] in
        Sat.add_clause ~activation:true s [ -1; 2 ];
        Sat.add_clause ~activation:true s [ -1; -2 ];
        Sat.add_clause ~activation:true s [ -1 ];
        (* the unit -act satisfies both guarded clauses *)
        Alcotest.(check bool)
          "both guards shed" true
          (Sat.simplify ~subsume:false s >= 2);
        Alcotest.check result "sat" Sat.Sat (Sat.solve s));
    t "simplify on an unsat instance is sound" (fun () ->
        let s = mk 1 [ [ 1 ]; [ -1 ] ] in
        ignore (Sat.simplify s);
        Alcotest.check result "unsat" Sat.Unsat (Sat.solve s));
  ]

(* Random CNF cross-check against brute force. *)

let brute_force n_vars clauses =
  let rec go assignment v =
    if v > n_vars then
      if
        List.for_all
          (List.exists (fun l ->
               let value = List.nth assignment (abs l - 1) in
               if l > 0 then value else not value))
          clauses
      then Some assignment
      else None
    else
      match go (assignment @ [ true ]) (v + 1) with
      | Some a -> Some a
      | None -> go (assignment @ [ false ]) (v + 1)
  in
  go [] 1

let arb_cnf =
  let gen =
    QCheck.Gen.(
      int_range 1 9 >>= fun n_vars ->
      int_range 0 40 >>= fun n_clauses ->
      let lit = int_range 1 n_vars >>= fun v -> oneofl [ v; -v ] in
      let clause = list_size (int_range 1 3) lit in
      list_size (return n_clauses) clause >>= fun clauses ->
      return (n_vars, clauses))
  in
  QCheck.make
    ~print:(fun (n, cs) ->
      Printf.sprintf "%d vars: %s" n
        (String.concat " "
           (List.map
              (fun c -> "(" ^ String.concat "|" (List.map string_of_int c) ^ ")")
              cs)))
    gen

let prop_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"random cnf matches brute force" ~count:400
         arb_cnf (fun (n_vars, clauses) ->
           let expected =
             match brute_force n_vars clauses with
             | Some _ -> Sat.Sat
             | None -> Sat.Unsat
           in
           solve n_vars clauses = expected));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"sat models satisfy all clauses" ~count:400
         arb_cnf (fun (n_vars, clauses) ->
           let s = mk n_vars clauses in
           match Sat.solve s with
           | Sat.Unsat -> true
           | Sat.Sat ->
             List.for_all
               (fun clause ->
                 clause = []
                 || List.exists (fun l -> Sat.value s (abs l) = (l > 0)) clause)
               clauses));
  ]

let arb_cnf_with_assumptions =
  QCheck.make
    ~print:(fun ((n, cs), assumptions) ->
      Printf.sprintf "%d vars, %d clauses, assume %s" n (List.length cs)
        (String.concat "," (List.map string_of_int assumptions)))
    QCheck.Gen.(
      int_range 1 8 >>= fun n_vars ->
      let lit = int_range 1 n_vars >>= fun v -> oneofl [ v; -v ] in
      list_size (int_range 0 30) (list_size (int_range 1 3) lit)
      >>= fun clauses ->
      list_size (int_range 0 3) lit >>= fun assumptions ->
      return ((n_vars, clauses), assumptions))

let incremental_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"solving under assumptions equals solving with unit clauses"
         ~count:400 arb_cnf_with_assumptions
         (fun ((n_vars, clauses), assumptions) ->
           let s = mk n_vars clauses in
           let under = Sat.solve ~assumptions s in
           let s' = mk n_vars (clauses @ List.map (fun l -> [ l ]) assumptions) in
           under = Sat.solve s'));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"a second unconstrained solve is consistent with the first"
         ~count:200 arb_cnf_with_assumptions
         (fun ((n_vars, clauses), assumptions) ->
           let s = mk n_vars clauses in
           let first = Sat.solve s in
           ignore (Sat.solve ~assumptions s);
           first = Sat.solve s));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"simplify (either variant) preserves the verdict" ~count:300
         arb_cnf_with_assumptions
         (fun ((n_vars, clauses), assumptions) ->
           let reference = Sat.solve ~assumptions (mk n_vars clauses) in
           let s_full = mk n_vars clauses in
           ignore (Sat.simplify s_full);
           let s_linear = mk n_vars clauses in
           ignore (Sat.simplify ~subsume:false s_linear);
           Sat.solve ~assumptions s_full = reference
           && Sat.solve ~assumptions s_linear = reference));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"age_activity preserves the verdict" ~count:200
         arb_cnf_with_assumptions
         (fun ((n_vars, clauses), assumptions) ->
           let s = mk n_vars clauses in
           let first = Sat.solve ~assumptions s in
           Sat.age_activity s;
           first = Sat.solve ~assumptions s));
  ]

(* --- clause arena: learnt-clause reduction, compaction and the
   memory of a long-lived incremental solver --- *)

let satisfies s clauses =
  List.for_all
    (List.exists (fun l -> Sat.value s (abs l) = (l > 0)))
    clauses

let obs_count name =
  Option.value ~default:0 (List.assoc_opt name (Ilv_obs.Obs.counters ()))

(* The problem clauses of [export] (units excluded, which learnt level-0
   facts add to) as a sorted multiset of sorted clauses: propagation
   reorders literals inside a clause, never the clause set. *)
let problem_clauses s =
  snd (Sat.export s)
  |> List.filter (fun c -> List.length c > 1)
  |> List.map (List.sort compare)
  |> List.sort compare

(* [php_block ~first ~guard p] encodes [p] pigeons into [p-1] holes plus
   an extra hole that opens only under [guard + 1]; every clause is
   enabled by [guard].  Variables start at [first].  Under [guard] the
   block is satisfiable with [guard + 1] and unsatisfiable (a hard
   pigeonhole refutation) without it. *)
let php_block ~first ~guard pigeons =
  let holes = pigeons - 1 in
  let var p h = first + (p * (holes + 1)) + h in
  let extra = guard + 1 in
  let pigeon_clauses =
    List.init pigeons (fun p ->
        [ -guard :: List.init (holes + 1) (fun h -> var p h);
          [ -guard; extra; -var p holes ] ])
  in
  let hole_clauses =
    List.init (holes + 1) (fun h ->
        List.concat
          (List.init pigeons (fun p1 ->
               List.init (pigeons - p1 - 1) (fun d ->
                   [ -guard; -var p1 h; -var (p1 + d + 1) h ]))))
  in
  List.concat (pigeon_clauses @ hole_clauses)

let arena_tests =
  [
    t "reduce_db and compaction keep verdicts, models and the problem"
      (fun () ->
        (* two 8-into-7 pigeonhole blocks on one solver: each refutation
           takes thousands of conflicts, past the 4000-learnt threshold *)
        let pigeons = 8 in
        let block_vars = pigeons * pigeons in
        let g1 = 1 and g2 = block_vars + 3 in
        let b1 = php_block ~first:(g1 + 2) ~guard:g1 pigeons in
        let b2 = php_block ~first:(g2 + 2) ~guard:g2 pigeons in
        let clauses = b1 @ b2 in
        let s = mk (g2 + 1 + block_vars) clauses in
        let before = problem_clauses s in
        Ilv_obs.Obs.configure ~metrics:true ();
        let queries =
          [
            ([ g1; g1 + 1 ], Sat.Sat);
            ([ g1; -(g1 + 1) ], Sat.Unsat);
            ([ g2; g2 + 1; g1 ], Sat.Sat);
            ([ g2; -(g2 + 1) ], Sat.Unsat);
            ([ g1; g2; g1 + 1; g2 + 1 ], Sat.Sat);
            ([ g1; -(g1 + 1); g2 ], Sat.Unsat);
            ([ -g1; -g2 ], Sat.Sat);
          ]
        in
        List.iter
          (fun (assumptions, expected) ->
            let r = Sat.solve ~assumptions s in
            Alcotest.check result
              (String.concat "," (List.map string_of_int assumptions))
              expected r;
            if r = Sat.Sat then
              Alcotest.(check bool) "model satisfies every clause" true
                (satisfies s clauses))
          queries;
        let reductions = obs_count "sat.reductions"
        and compactions = obs_count "sat.compactions" in
        Ilv_obs.Obs.shutdown ();
        Alcotest.(check bool)
          (Printf.sprintf "at least two reductions (%d)" reductions)
          true (reductions >= 2);
        Alcotest.(check bool)
          (Printf.sprintf "at least one compaction (%d)" compactions)
          true (compactions >= 1);
        Alcotest.(check bool) "export keeps the problem clauses" true
          (before = problem_clauses s));
    t "a resident solver's memory plateaus over add/solve/retire rounds"
      (fun () ->
        (* the resident-frame pattern: each round guards a clause group
           with a fresh activation literal, solves under it and retires
           it with a unit; [simplify] then deletes the group and any
           learnt clause mentioning it, and compaction must hand the
           words back.  The per-variable tables grow by doubling, so
           between 1,025 and 2,047 variables they stay put and the
           solver must not grow at all; unreclaimed clauses would add
           over 70 words a round. *)
        let base = 40 and rounds = 2000 in
        let s = Sat.create () in
        for _ = 1 to base do
          ignore (Sat.new_var s)
        done;
        let rng = Random.State.make [| 13 |] in
        let lit () =
          let v = 1 + Random.State.int rng base in
          if Random.State.bool rng then v else -v
        in
        let plateau = ref 0 in
        for r = 1 to rounds do
          let act = Sat.new_var s in
          let group = List.init 12 (fun _ -> [ -act; lit (); lit (); lit () ]) in
          List.iter (Sat.add_clause s) group;
          (match Sat.solve ~assumptions:[ act; lit () ] s with
          | Sat.Sat ->
            Alcotest.(check bool) "model satisfies the group" true
              (satisfies s group)
          | Sat.Unsat -> ());
          Sat.add_clause s [ -act ];
          ignore (Sat.simplify ~subsume:false s);
          Sat.age_activity s;
          if r >= 1000 && r mod 50 = 0 then begin
            let words = Obj.reachable_words (Obj.repr s) in
            if r = 1000 then plateau := words
            else if words > !plateau + (!plateau / 20) then
              Alcotest.failf "round %d: %d words, %d at round 1000" r words
                !plateau
          end
        done;
        Alcotest.(check bool)
          (Printf.sprintf "under a fixed bound (%d words)" !plateau)
          true (!plateau < 60_000));
  ]

let suite =
  [
    ("sat:unit", unit_tests);
    ("sat:pigeonhole", pigeonhole_tests);
    ("sat:activation", activation_tests);
    ("sat:simplify", simplify_tests);
    ("sat:props", prop_tests);
    ("sat:incremental", incremental_props);
    ("sat:arena", arena_tests);
  ]
