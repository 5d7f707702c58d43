(* signoff: the Proved path.  One pass is the golden sweep of
   Catalog.all (Table I's golden column) in-process, the way
   `ilaverif table` runs it with -j 1: incremental solving, memory
   abstraction passed explicitly as the CLI's effective default `auto`
   (the library default is off), no proof cache, no budget.

   Every pass runs in a fresh forked child.  The expression hash-cons
   table and the simplifier's state are process-global and never
   evicted, so a second sweep in the same process starts from the first
   one's heap: on a 2-core x86-64 host it ran 26 major collections
   against 34 for the first, its wall clock within the host's
   pass-to-pass noise.  Fresh children keep every pass the cold run a
   user gets from `ilaverif`. *)

open Ilv_core
open Ilv_designs

type pass = {
  wall_s : float;
  instr_s : float list;  (* per-instruction check time *)
  failures : string list;
  hwm_mb : float;
}

let expected_instructions =
  List.fold_left
    (fun n d -> n + Module_ila.total_instructions d.Design.module_ila)
    0 Catalog.all

let verify d = Design.verify ~incremental:true ~memory_abstraction:true d

let results (r : Verify.report) =
  List.concat_map (fun (p : Verify.port_report) -> p.Verify.instr_results)
    r.Verify.ports

let not_proved (r : Verify.report) =
  List.filter_map
    (fun (ir : Verify.instr_result) ->
      match ir.Verify.verdict with
      | Checker.Proved -> None
      | Checker.Failed _ | Checker.Unknown _ ->
        Some (r.Verify.design ^ "/" ^ ir.Verify.instr ^ " not proved"))
    (results r)

let pass () =
  let reports, wall_s = Util.time (fun () -> List.map verify Catalog.all) in
  let all = List.concat_map results reports in
  let missing = expected_instructions - List.length all in
  {
    wall_s;
    instr_s = List.map (fun (ir : Verify.instr_result) -> ir.Verify.time_s) all;
    failures =
      List.concat_map not_proved reports
      @ (if missing > 0 then [ Printf.sprintf "%d instructions unchecked" missing ]
         else []);
    hwm_mb = Util.vm_hwm_mb ();
  }

(* The same sweep, staged through Layers; verdicts go through the same
   oracle. *)
let traced_pass () =
  let failures = ref [] in
  let on_mismatch m = failures := m :: !failures in
  let t, wall, checked =
    Layers.traced_pass (fun t ->
        List.concat_map
          (fun (d : Design.t) ->
            List.map
              (fun (_port, (c : Layers.checked)) -> (d.Design.name, c))
              (Layers.design t ~memory_abstraction:true ~on_mismatch
                 ~name:d.Design.name
                 d.Design.module_ila d.Design.rtl
                 ~refmap_for:(d.Design.refmap_for d.Design.rtl)))
          Catalog.all)
  in
  List.iter
    (fun (d, (c : Layers.checked)) ->
      if c.Layers.verdict <> Checker.Proved then
        on_mismatch (d ^ "/" ^ c.Layers.instr ^ " not proved"))
    checked;
  let missing = expected_instructions - List.length checked in
  if missing > 0 then
    on_mismatch (Printf.sprintf "%d instructions unchecked" missing);
  (t, wall, List.rev !failures)
