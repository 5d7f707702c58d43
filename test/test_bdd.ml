(* Tests for the BDD package (the engine behind symbolic
   reachability, [Ilv_core.Reach]), including cross-checks against
   truth tables and the SAT backend on random formulas. *)

open Ilv_expr
open Ilv_sat

let t name f = Alcotest.test_case name `Quick f

let bdd_tests =
  [
    t "canonicity: same function, same node" (fun () ->
        let m = Bdd.manager () in
        let x = Bdd.var m 0 and y = Bdd.var m 1 in
        let a = Bdd.mk_and m x y in
        let b = Bdd.neg m (Bdd.mk_or m (Bdd.neg m x) (Bdd.neg m y)) in
        Alcotest.(check bool) "de morgan" true (Bdd.equal a b));
    t "tautology reduces to the true leaf" (fun () ->
        let m = Bdd.manager () in
        let x = Bdd.var m 0 in
        Alcotest.(check bool) "x or !x" true
          (Bdd.is_tt (Bdd.mk_or m x (Bdd.neg m x)));
        Alcotest.(check bool) "x and !x" true
          (Bdd.is_ff (Bdd.mk_and m x (Bdd.neg m x))));
    t "exists drops the variable" (fun () ->
        let m = Bdd.manager () in
        let x = Bdd.var m 0 and y = Bdd.var m 1 in
        let f = Bdd.mk_and m x y in
        Alcotest.(check bool) "exists x (x and y) = y" true
          (Bdd.equal (Bdd.exists m [ 0 ] f) y);
        Alcotest.(check bool) "forall x (x and y) = ff" true
          (Bdd.is_ff (Bdd.forall m [ 0 ] f)));
    t "rename shifts variables" (fun () ->
        let m = Bdd.manager () in
        let f = Bdd.mk_xor m (Bdd.var m 0) (Bdd.var m 2) in
        let g = Bdd.rename m (fun v -> v + 1) f in
        Alcotest.(check bool) "same as building directly" true
          (Bdd.equal g (Bdd.mk_xor m (Bdd.var m 1) (Bdd.var m 3))));
    t "non-monotone rename is rejected" (fun () ->
        let m = Bdd.manager () in
        let f = Bdd.mk_and m (Bdd.var m 0) (Bdd.var m 1) in
        try
          ignore (Bdd.rename m (fun v -> 1 - v) f);
          Alcotest.fail "expected Invalid_argument"
        with Invalid_argument _ -> ());
    t "restrict cofactors" (fun () ->
        let m = Bdd.manager () in
        let x = Bdd.var m 0 and y = Bdd.var m 1 in
        let f = Bdd.mk_ite m x y (Bdd.neg m y) in
        Alcotest.(check bool) "f[x:=1] = y" true
          (Bdd.equal (Bdd.restrict m 0 true f) y);
        Alcotest.(check bool) "f[x:=0] = !y" true
          (Bdd.equal (Bdd.restrict m 0 false f) (Bdd.neg m y)));
    t "any_sat finds a witness" (fun () ->
        let m = Bdd.manager () in
        let f = Bdd.mk_and m (Bdd.var m 0) (Bdd.neg m (Bdd.var m 1)) in
        match Bdd.any_sat f with
        | Some assignment ->
          Alcotest.(check (list (pair int bool)))
            "witness"
            [ (0, true); (1, false) ]
            (List.sort compare assignment)
        | None -> Alcotest.fail "expected sat");
  ]

(* Random propositional formulas over [n_vars] variables, lowered both
   to a BDD and to a boolean expression for the SAT backend. *)
type formula =
  | V of int
  | Not of formula
  | And of formula * formula
  | Or of formula * formula
  | Xor of formula * formula
  | Ite of formula * formula * formula

let n_vars = 5

let rec to_bdd m = function
  | V i -> Bdd.var m i
  | Not a -> Bdd.neg m (to_bdd m a)
  | And (a, b) -> Bdd.mk_and m (to_bdd m a) (to_bdd m b)
  | Or (a, b) -> Bdd.mk_or m (to_bdd m a) (to_bdd m b)
  | Xor (a, b) -> Bdd.mk_xor m (to_bdd m a) (to_bdd m b)
  | Ite (c, a, b) -> Bdd.mk_ite m (to_bdd m c) (to_bdd m a) (to_bdd m b)

let var_name i = Printf.sprintf "b%d" i

let rec to_expr = function
  | V i -> Build.bool_var (var_name i)
  | Not a -> Expr.not_ (to_expr a)
  | And (a, b) -> Expr.and_ (to_expr a) (to_expr b)
  | Or (a, b) -> Expr.or_ (to_expr a) (to_expr b)
  | Xor (a, b) -> Expr.xor_ (to_expr a) (to_expr b)
  | Ite (c, a, b) -> Expr.ite (to_expr c) (to_expr a) (to_expr b)

let rec eval env = function
  | V i -> env i
  | Not a -> not (eval env a)
  | And (a, b) -> eval env a && eval env b
  | Or (a, b) -> eval env a || eval env b
  | Xor (a, b) -> eval env a <> eval env b
  | Ite (c, a, b) -> if eval env c then eval env a else eval env b

(* the BDD's value under a total assignment, by cofactoring every
   variable away *)
let bdd_value m f env =
  let rec go v f =
    if v = n_vars then Bdd.is_tt f else go (v + 1) (Bdd.restrict m v (env v) f)
  in
  go 0 f

let assignments =
  List.init (1 lsl n_vars) (fun bits i -> (bits lsr i) land 1 = 1)

let arb_formula =
  let gen =
    QCheck.Gen.(
      let leaf = int_range 0 (n_vars - 1) >|= fun i -> V i in
      let rec formula n =
        if n = 0 then leaf
        else
          let sub = formula (n - 1) in
          frequency
            [
              (1, leaf);
              (1, sub >|= fun a -> Not a);
              (2, pair sub sub >|= fun (a, b) -> And (a, b));
              (2, pair sub sub >|= fun (a, b) -> Or (a, b));
              (1, pair sub sub >|= fun (a, b) -> Xor (a, b));
              (1, triple sub sub sub >|= fun (c, a, b) -> Ite (c, a, b));
            ]
      in
      formula 4)
  in
  QCheck.make ~print:(fun f -> Pp_expr.to_string (to_expr f)) gen

let cross_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"BDD agrees with the truth table" ~count:200
         arb_formula (fun f ->
           let m = Bdd.manager () in
           let b = to_bdd m f in
           List.for_all (fun env -> bdd_value m b env = eval env f) assignments));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"BDD and SAT agree on satisfiability"
         ~count:200 arb_formula (fun f ->
           let bdd_sat = not (Bdd.is_ff (to_bdd (Bdd.manager ()) f)) in
           let ctx = Bitblast.create () in
           Bitblast.assert_bool ctx (to_expr f);
           match Bitblast.check ctx with
           | Bitblast.Unsat -> not bdd_sat
           | Bitblast.Sat _ -> bdd_sat
           | Bitblast.Unknown _ -> false));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"BDD witnesses satisfy the formula" ~count:200
         arb_formula (fun f ->
           match Bdd.any_sat (to_bdd (Bdd.manager ()) f) with
           | None -> List.for_all (fun env -> not (eval env f)) assignments
           | Some partial ->
             (* unassigned variables are don't-cares: pin them false *)
             let env i =
               Option.value ~default:false (List.assoc_opt i partial)
             in
             let expr_env =
               Eval.env_of_list
                 (List.init n_vars (fun i ->
                      (var_name i, Value.of_bool (env i))))
             in
             eval env f && Eval.eval_bool expr_env (to_expr f)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"quantifiers match Shannon expansion" ~count:200
         QCheck.(pair arb_formula arb_formula)
         (fun (f, g) ->
           let m = Bdd.manager () in
           let f = to_bdd m f and g = to_bdd m g in
           List.for_all
             (fun v ->
               let lo = Bdd.restrict m v false f
               and hi = Bdd.restrict m v true f in
               Bdd.equal (Bdd.exists m [ v ] f) (Bdd.mk_or m lo hi)
               && Bdd.equal (Bdd.forall m [ v ] f) (Bdd.mk_and m lo hi)
               && Bdd.equal
                    (Bdd.and_exists m [ v ] f g)
                    (Bdd.exists m [ v ] (Bdd.mk_and m f g)))
             (List.init n_vars Fun.id)));
  ]

let suite = [ ("bdd:core", bdd_tests); ("bdd:cross", cross_tests) ]
