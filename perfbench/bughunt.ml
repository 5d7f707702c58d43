(* bughunt: the Failed path, in two parts per pass.

   1. Table I's t(bug) column for the paper's three bugs, computed the
      way `ilaverif table` computes it: [Design.verify_buggy] with the
      library defaults (incremental, memory abstraction off, stop at
      the first failure), the first bug of each design, as in
      [Table_one.measure].  The abstraction stays off on purpose: that
      is what the table runs today, so a change that routes bug hunts
      through the abstraction shows up here as a t(bug) gain.
   2. A seeded mutation campaign with the `ilaverif mutate` defaults:
      its four designs, 40 mutants per design, the 50k-conflict / 10 s
      budget with two 4x escalations, the co-simulation hunt for
      survivors, on 2 pool workers.

   Each part runs in its own fresh child (see Signoff for why passes
   never share a process). *)

open Ilv_core
open Ilv_designs

(* design, bug, the instruction the paper's bug is caught at *)
let hunts =
  [
    (Axi_slave.design, "rd_burst", "RD_DATA_PREPARE");
    (L2_cache.design, "msg_flag", "P1_LOAD_MISS");
    (Store_buffer.design, "full_flag", "SB_IN_IDLE & SB_POP");
  ]

let bug_of (d : Design.t) label =
  List.find (fun (b : Design.bug) -> b.Design.bug_label = label) d.Design.bugs

let mutate_designs =
  [ Clock_gen.design; Uart_tx.design; Axi_slave.design; Noc_router.design ]

let max_mutants = 40
let jobs = 2

(* the seed of pass [i]: distinct mutant samples per pass, all drawn
   from the benchmark seed *)
let campaign_seed ~seed i = (seed * 1000) + i

type hunt_pass = {
  t_bug_s : float list;  (* per hunt, in [hunts] order *)
  hunt_failures : string list;
  hunt_hwm_mb : float;
}

let check_failure (d : Design.t) bug expected (r : Verify.report) =
  match r.Verify.first_failure with
  | None -> [ d.Design.name ^ " " ^ bug.Design.bug_label ^ ": bug not found" ]
  | Some ir when ir.Verify.instr <> expected ->
    [
      Printf.sprintf "%s %s: caught at %s, expected %s" d.Design.name
        bug.Design.bug_label ir.Verify.instr expected;
    ]
  | Some ir -> (
    match ir.Verify.verdict with
    | Checker.Failed trace -> (
      let rtl = bug.Design.buggy_rtl in
      match
        Module_ila.find_port d.Design.module_ila ir.Verify.port
      with
      | None -> [ d.Design.name ^ ": failing port missing" ]
      | Some ila -> (
        let refmap = d.Design.refmap_for rtl ir.Verify.port in
        match Replay.confirm ~ila ~rtl ~refmap trace with
        | Replay.Confirmed _ -> []
        | Replay.Not_reproduced | Replay.Inapplicable _ ->
          [ d.Design.name ^ " " ^ bug.Design.bug_label
            ^ ": trace does not replay" ]))
    | Checker.Proved | Checker.Unknown _ ->
      [ d.Design.name ^ ": first failure without a counterexample" ])

let hunt_pass () =
  let timed =
    List.map
      (fun (d, label, expected) ->
        let bug = bug_of d label in
        let r, dt = Util.time (fun () -> Design.verify_buggy d bug) in
        (dt, (d, bug, expected, r)))
      hunts
  in
  {
    t_bug_s = List.map fst timed;
    hunt_failures =
      List.concat_map
        (fun (_, (d, bug, expected, r)) -> check_failure d bug expected r)
        timed;
    hunt_hwm_mb = Util.vm_hwm_mb ();
  }

type campaign_pass = {
  campaign_wall_s : float;
  mutants : int;
  kill_s : float list;
  survivor_s : float list;
  job_s : float;  (* summed per-mutant time over all mutants *)
  property_kills : int;
  confirmed_kills : int;
  campaign_failures : string list;
  campaign_hwm_mb : float;  (* the coordinator *)
  workers_hwm_mb : float;  (* the largest of its reaped pool workers *)
}

let campaign_pass ~seed () =
  let module C = Ilv_fault.Campaign in
  let campaigns, wall =
    Util.time (fun () ->
        List.map
          (fun d ->
            C.run ~seed ~max_mutants ~budget:C.default_budget ~jobs d)
          mutate_designs)
  in
  let reports =
    List.concat_map
      (fun (c : C.t) -> List.map (fun r -> (c.C.design, r)) c.C.mutants)
      campaigns
  in
  let times p =
    List.filter_map
      (fun (_, (r : C.mutant_report)) ->
        if p r.C.classification then Some r.C.time_s else None)
      reports
  in
  let describe (d, (r : C.mutant_report)) =
    d ^ " [" ^ Ilv_fault.Mutate.describe r.C.mutation ^ "]"
  in
  let property_kills =
    List.filter
      (fun (_, (r : C.mutant_report)) ->
        match r.C.classification with
        | C.Killed (C.By_property _) -> true
        | _ -> false)
      reports
  in
  let unconfirmed =
    List.filter (fun (_, r) -> r.C.replay_confirmed <> Some true) property_kills
  in
  let inconclusive =
    List.filter_map
      (fun ((_, (r : C.mutant_report)) as m) ->
        match r.C.classification with
        | C.Inconclusive why -> Some (describe m ^ ": inconclusive: " ^ why)
        | _ -> None)
      reports
  in
  {
    campaign_wall_s = wall;
    mutants = List.length reports;
    kill_s = times (function C.Killed _ -> true | _ -> false);
    survivor_s = times (fun c -> c = C.Survived);
    job_s = Util.sum (times (fun _ -> true));
    property_kills = List.length property_kills;
    confirmed_kills = List.length property_kills - List.length unconfirmed;
    campaign_failures =
      inconclusive
      @ List.map (fun m -> describe m ^ ": kill not replay-confirmed") unconfirmed;
    campaign_hwm_mb = Util.vm_hwm_mb ();
    workers_hwm_mb = Util.children_hwm_mb ();
  }

(* Part 1 staged through Layers (library defaults: no abstraction). *)
let traced_hunt_pass () =
  let failures = ref [] in
  let on_mismatch m = failures := m :: !failures in
  let t, wall, () =
    Layers.traced_pass (fun t ->
        List.iter
          (fun ((d : Design.t), label, expected) ->
            let bug = bug_of d label in
            let rtl = bug.Design.buggy_rtl in
            let checked =
              Layers.design t ~memory_abstraction:false ~on_mismatch
                ~name:d.Design.name d.Design.module_ila rtl
                ~refmap_for:(d.Design.refmap_for rtl)
            in
            let failed (_, c) = Layers.is_failed c.Layers.verdict in
            match List.find_opt failed checked with
            | Some (_, c) when c.Layers.instr = expected -> ()
            | Some (_, c) ->
              on_mismatch
                (Printf.sprintf "%s %s: caught at %s, expected %s"
                   d.Design.name label c.Layers.instr expected)
            | None ->
              on_mismatch (d.Design.name ^ " " ^ label ^ ": bug not found"))
          hunts)
  in
  (t, wall, List.rev !failures)

(* The campaign's layer split, from its own per-mutant records: kill
   and survivor time are wall-equivalent (summed job time over the
   workers), the pool overhead is what is left of the campaign's wall
   clock. *)
let campaign_layers (c : campaign_pass) =
  let t = Layers.create () in
  let per_worker x = x /. float_of_int jobs in
  Layers.add t "campaign.kill_s" (per_worker (Util.sum c.kill_s));
  Layers.add t "campaign.survivor_s" (per_worker (Util.sum c.survivor_s));
  Layers.add t "pool.overhead_s" (c.campaign_wall_s -. per_worker c.job_s);
  Layers.add t "pool.busy_s" c.job_s;
  Layers.add t "pool.capacity_s" (float_of_int jobs *. c.campaign_wall_s);
  Layers.add t "pool.worker_hwm_mb" c.workers_hwm_mb;
  Layers.addi t "replay.attempts" c.property_kills;
  Layers.addi t "replay.confirmed" c.confirmed_kills;
  t
