(* The traced run's per-layer ledger.

   Nothing inside the program is instrumented: the traced run replays
   each port's pipeline stage by stage, one public call per stage, and
   times the calls from out here.  The stages are

     Propgen.generate           -> propgen.s
     Mem_abstract.create        -> cegar.s   (the abstraction rewrite)
     Verify.prepare_port        -> prepare.s (regeneration + context)
     Checker.shared_freeze      -> encode.s  (bit-blast + CNF pass)
     Verify.check_port_instr    -> check.s   (incremental solving)
     Sat.solve ~assumptions     -> sat.s     (SAT-only re-solve)
     Replay.confirm             -> replay.s

   so a stage may repeat work another stage already did (prepare_port
   regenerates what Propgen.generate produced; the re-solve repeats the
   search inside check_port_instr).  The stage times partition the
   traced pass, not the untraced one: they sum, with the glue between
   calls reported as unattributed.s, to the traced pass's wall clock. *)

open Ilv_core
module Obs = Ilv_obs.Obs

type t = (string, float) Hashtbl.t

let create () : t = Hashtbl.create 64
let get (t : t) k = Option.value (Hashtbl.find_opt t k) ~default:0.0
let add (t : t) k v = Hashtbl.replace t k (get t k +. v)
let addi t k n = add t k (float_of_int n)

let timed t k f =
  let r, dt = Util.time f in
  add t k dt;
  r

let merge ~into (t : t) = Hashtbl.iter (fun k v -> add into k v) t

(* Distinct expression nodes across a property set: the shared DAG the
   bit-blaster walks. *)
let dag_nodes (props : Property.t list) =
  let seen = Hashtbl.create 4096 in
  let rec go e =
    let id = Ilv_expr.Expr.id e in
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.add seen id ();
      List.iter go (Ilv_expr.Expr.children e)
    end
  in
  List.iter
    (fun (p : Property.t) ->
      List.iter go p.Property.assumptions;
      List.iter
        (fun (ob : Property.obligation) ->
          go ob.Property.guard;
          go ob.Property.goal)
        p.Property.obligations)
    props;
  Hashtbl.length seen

(* Program counters read through Obs (the traced child enables the
   in-memory aggregation).  Deltas over one stage. *)
let counter name = Option.value (List.assoc_opt name (Obs.counters ())) ~default:0

let counter_names =
  [ "sat.solves"; "sat.conflicts"; "sat.decisions"; "sat.propagations";
    "checker.degradations" ]

let snapshot_counters () = List.map (fun n -> (n, counter n)) counter_names

let add_counter_deltas t before =
  List.iter
    (fun (n, v0) -> addi t ("counter." ^ n) (counter n - v0))
    before

(* Runs [f t] as one traced pass (in a forked child: Obs stays off in
   the parent) and returns the ledger, the pass's wall clock and [f]'s
   result.  Counter deltas and GC figures cover the pass only. *)
let traced_pass f =
  Obs.configure ~metrics:true ();
  let t = create () in
  let before = snapshot_counters () in
  let rss0 = Util.vm_rss_mb () in
  let alloc0 = Gc.allocated_bytes () in
  let major0 = (Gc.quick_stat ()).Gc.major_collections in
  let r, wall = Util.time (fun () -> f t) in
  add_counter_deltas t before;
  add t "gc.allocated_mb" ((Gc.allocated_bytes () -. alloc0) /. 1_048_576.0);
  addi t "gc.major_collections" ((Gc.quick_stat ()).Gc.major_collections - major0);
  add t "rss_growth_mb" (Util.vm_rss_mb () -. rss0);
  (t, wall, r)

(* SAT-only timing: load the frozen frame into a fresh solver and decide
   every checked obligation under its selector assumptions.  Returns,
   per checked instruction, whether some obligation was satisfiable. *)
let resolve_frame t sh slots =
  (* the re-solve's own solves must not count as the pipeline's *)
  let before = snapshot_counters () in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun (n, v0) -> addi t ("counter." ^ n) (v0 - counter n))
        before)
  @@ fun () ->
  timed t "sat.s" (fun () ->
      let n_vars, clauses = Checker.shared_cnf sh in
      let s = Ilv_sat.Sat.create () in
      for _ = 1 to n_vars do
        ignore (Ilv_sat.Sat.new_var s)
      done;
      List.iter (Ilv_sat.Sat.add_clause s) clauses;
      let answers =
        List.map
          (fun (c, idx) ->
            let sat =
              List.exists
                (fun sels ->
                  add t "sat.solves" 1.0;
                  Ilv_sat.Sat.solve ~assumptions:sels s = Ilv_sat.Sat.Sat)
                (Checker.shared_frame_selectors sh idx)
            in
            (c, sat))
          slots
      in
      let st = Ilv_sat.Sat.stats s in
      addi t "sat.conflicts" st.Ilv_sat.Sat.conflicts;
      addi t "sat.decisions" st.Ilv_sat.Sat.decisions;
      addi t "sat.propagations" st.Ilv_sat.Sat.propagations;
      answers)

type checked = { instr : string; verdict : Checker.verdict; rung : string }

let is_failed = function Checker.Failed _ -> true | _ -> false

(* The preparation stages of one port: generate, rewrite (abstraction),
   prepare the shared context, freeze its frame. *)
let prepare_port t ~memory_abstraction ~name ~(port : Ila.t) ~rtl ~refmap =
  let props =
    timed t "propgen.s" (fun () -> Propgen.generate ~ila:port ~rtl ~refmap)
  in
  addi t "propgen.properties" (List.length props);
  addi t "propgen.dag_nodes" (dag_nodes props);
  if memory_abstraction then
    timed t "cegar.s" (fun () ->
        match Mem_abstract.create ~label:name props with
        | Some _ -> add t "cegar.abstract_groups" 1.0
        | None -> ());
  let pr =
    timed t "prepare.s" (fun () ->
        Verify.prepare_port ~memory_abstraction ~name ~port ~rtl ~refmap ())
  in
  let sh = Verify.prepared_shared pr in
  timed t "encode.s" (fun () -> Checker.shared_freeze sh);
  let vars, clauses = Checker.shared_cnf sh in
  addi t "encode.cnf_vars" vars;
  addi t "encode.cnf_clauses" (List.length clauses);
  addi t "encode.cnf_removed" (Checker.shared_simplify_removed sh);
  pr

(* One port, staged exactly like [Verify.run]'s incremental path: every
   port is prepared, checking stops after the first failure of the
   design ([stop] is shared across its ports).  Failed verdicts are
   replayed concretely; [on_mismatch] hears every oracle violation of
   the stages themselves (a re-solve disagreeing with the verdict, a
   failure replay does not confirm). *)
let port t ~memory_abstraction ~stop ~on_mismatch ~name ~(port : Ila.t) ~rtl
    ~refmap =
  let pr = prepare_port t ~memory_abstraction ~name ~port ~rtl ~refmap in
  let sh0 = Verify.prepared_shared pr in
  let checked =
    List.filter_map
      (fun instr ->
        if !stop then None
        else begin
          let verdict, _stats, rung =
            timed t "check.s" (fun () -> Verify.check_port_instr pr instr)
          in
          if is_failed verdict then stop := true;
          if rung = "abstract>concrete" then
            add t "cegar.concrete_fallbacks" 1.0;
          Some { instr; verdict; rung }
        end)
      (Verify.prepared_instrs pr)
  in
  (match Verify.prepared_abstraction pr with
  | Some ab -> addi t "cegar.refinements" (Mem_abstract.refinements ab)
  | None -> ());
  (* a CEGAR refinement replaced the frame: freezing the refined one is
     abstraction work, not first encoding *)
  let sh = Verify.prepared_shared pr in
  if sh != sh0 then timed t "cegar.s" (fun () -> Checker.shared_freeze sh);
  let slots =
    List.filter_map
      (fun c ->
        match Verify.prepared_slot pr c.instr with
        | Ok idx when c.rung <> "abstract>concrete" -> Some (c, idx)
        | _ -> None)
      checked
  in
  List.iter
    (fun (c, sat) ->
      if (c.verdict = Checker.Proved) = sat then
        on_mismatch
          (Printf.sprintf "%s/%s %s: re-solve says %s" name port.Ila.name
             c.instr
             (if sat then "sat" else "unsat")))
    (resolve_frame t sh slots);
  List.iter
    (fun c ->
      match c.verdict with
      | Checker.Failed trace -> (
        add t "replay.attempts" 1.0;
        match
          timed t "replay.s" (fun () ->
              Replay.confirm ~ila:port ~rtl ~refmap trace)
        with
        | Replay.Confirmed _ -> add t "replay.confirmed" 1.0
        | Replay.Not_reproduced | Replay.Inapplicable _ ->
          on_mismatch
            (Printf.sprintf "%s/%s %s: counterexample does not replay" name
               port.Ila.name c.instr))
      | Checker.Proved | Checker.Unknown _ -> ())
    checked;
  checked

(* A whole design, ports in declaration order, stopping at its first
   failure. *)
let design t ~memory_abstraction ~on_mismatch ~name
    (module_ila : Module_ila.t) rtl ~refmap_for =
  let stop = ref false in
  List.concat_map
    (fun (p : Ila.t) ->
      List.map
        (fun c -> (p.Ila.name, c))
        (port t ~memory_abstraction ~stop ~on_mismatch ~name ~port:p ~rtl
           ~refmap:(refmap_for p.Ila.name)))
    module_ila.Module_ila.ports

(* ---- the printed ledger ---- *)

(* The daemon's request kinds (Daemon_load.kind), each with its share of
   the requests and of the server time in the ledger. *)
let request_kinds =
  [ "verify"; "verify-ports"; "table"; "mutate"; "ping"; "stats" ]

(* Every per-layer metric, in report order.  [time] marks the stage
   seconds that partition the traced pass (unattributed.s is derived
   from them). *)
let metrics =
  [
    ("propgen.s", "s", `Time);
    ("propgen.properties", "count", `Other);
    ("propgen.dag_nodes", "count", `Other);
    ("prepare.s", "s", `Time);
    ("encode.s", "s", `Time);
    ("encode.cnf_vars", "count", `Other);
    ("encode.cnf_clauses", "count", `Other);
    ("encode.cnf_removed", "count", `Other);
    ("check.s", "s", `Time);
    ("sat.s", "s", `Time);
    ("sat.solves", "count", `Other);
    ("sat.conflicts", "count", `Other);
    ("sat.decisions", "count", `Other);
    ("sat.propagations", "count", `Other);
    ("counter.sat.solves", "count", `Other);
    ("counter.sat.conflicts", "count", `Other);
    ("counter.sat.decisions", "count", `Other);
    ("counter.sat.propagations", "count", `Other);
    ("cegar.s", "s", `Time);
    ("cegar.abstract_groups", "count", `Other);
    ("cegar.refinements", "count", `Other);
    ("cegar.concrete_fallbacks", "count", `Other);
    ("ladder.demotions", "count", `Other);
    ("replay.s", "s", `Time);
    ("replay.confirmed_ratio", "ratio", `Other);
    ("campaign.kill_s", "s", `Time);
    ("campaign.survivor_s", "s", `Time);
    ("pool.busy_ratio", "ratio", `Other);
    ("pool.overhead_s", "s", `Time);
    ("pool.worker_hwm_mb", "MB", `Other);
    ("cache.key_s", "s", `Time);
    ("cache.lookup_s", "s", `Time);
    ("cache.store_s", "s", `Time);
    ("cache.hit_ratio", "ratio", `Other);
    ("daemon.server_s", "s", `Time);
    ("daemon.wait_codec_s", "s", `Time);
    ("client.s", "s", `Time);
    ("daemon.dedup_ratio", "ratio", `Other);
    ("daemon.frames", "count", `Other);
    ("daemon.max_batch", "count", `Other);
  ]
  @ List.concat_map
      (fun k ->
        [ ("mix." ^ k ^ ".requests", "ratio", `Other);
          ("mix." ^ k ^ ".server", "ratio", `Other) ])
      request_kinds
  @ [
    ("daemon.heap_mb", "MB", `Other);
    ("gc.allocated_mb", "MB", `Other);
    ("rss_growth_mb", "MB", `Other);
    ("gc.major_collections", "count", `Other);
    ("unattributed.s", "s", `Other);
    ("trace.pass_s", "s", `Other);
    ("trace.overhead_s", "s", `Other);
  ]

let ratio t num den =
  let d = get t den in
  if d > 0.0 then get t num /. d else 0.0

(* [t] holds sums over [passes] traced passes whose summed wall clock is
   [wall]; every figure is reported per pass.  [overhead_s] is the
   traced pass's wall clock minus the untraced one's. *)
let to_metrics t ~passes ~wall ~overhead_s =
  let per_pass = 1.0 /. float_of_int passes in
  let stage_sum =
    List.fold_left
      (fun acc (k, _, kind) -> if kind = `Time then acc +. get t k else acc)
      0.0 metrics
  in
  let derived =
    [
      ("replay.confirmed_ratio", ratio t "replay.confirmed" "replay.attempts");
      ("cache.hit_ratio", ratio t "cache.hits" "cache.lookups");
      ("pool.busy_ratio", ratio t "pool.busy_s" "pool.capacity_s");
      ("daemon.dedup_ratio", ratio t "daemon.dedup_hits" "daemon.jobs");
      ("unattributed.s", (wall -. stage_sum) *. per_pass);
      ("trace.pass_s", wall *. per_pass);
      ("trace.overhead_s", overhead_s);
      ("ladder.demotions", get t "counter.checker.degradations" *. per_pass);
    ]
  in
  List.map
    (fun (k, unit, _) ->
      let v =
        match List.assoc_opt k derived with
        | Some v -> v
        | None -> (
          match k with
          | "daemon.max_batch" | "daemon.frames" | "daemon.heap_mb" ->
            get t k
          | _ -> get t k *. per_pass)
      in
      Util.metric k unit v)
    metrics
