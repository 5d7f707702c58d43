type instr_result = {
  instr : string;
  port : string;
  verdict : Checker.verdict;
  stats : Checker.stats;
  rung : string;
  time_s : float;
}

type port_report = {
  port_name : string;
  instr_results : instr_result list;
  port_time_s : float;
}

type report = {
  design : string;
  ports : port_report list;
  total_time_s : float;
  first_failure : instr_result option;
}

let proved r =
  r.first_failure = None
  && List.for_all
       (fun p ->
         List.for_all
           (fun ir ->
             match ir.verdict with
             | Checker.Proved -> true
             | Checker.Failed _ | Checker.Unknown _ -> false)
           p.instr_results)
       r.ports

let unknowns r =
  List.concat_map
    (fun p ->
      List.filter
        (fun ir ->
          match ir.verdict with
          | Checker.Unknown _ -> true
          | Checker.Proved | Checker.Failed _ -> false)
        p.instr_results)
    r.ports

(* Errors while checking one instruction (a malformed mutant tripping
   the bit-blaster, an ill-sorted refinement expression, ...) must not
   abort the whole report: they become that instruction's verdict. *)
let message_of_exn = function
  | (Out_of_memory | Stack_overflow) as fatal -> raise fatal
  | e -> Printexc.to_string e

(* ---- prepare-once / check-many ----

   One port's instructions share a single incremental solver context
   ([Checker.prepare_shared]); preparing is the expensive step (property
   generation + shared-frame setup), checking an individual instruction
   against the prepared context is the cheap, repeatable one.  [run]
   uses this for its incremental branch, and long-lived callers (the
   verification daemon) keep [prepared_port] values alive across many
   requests instead of re-preparing per request. *)

type prepared_port = {
  pp_port : Ila.t;
  mutable pp_shared : Checker.shared;
      (* rebuilt (with a grown window) after a CEGAR refinement *)
  pp_slots : (string, (int, string) result) Hashtbl.t;
      (* instruction name -> property index in [pp_shared], or the
         generation error that made it uncheckable *)
  pp_instrs : Ila.instruction list;
  pp_concrete : Property.t array;  (* slot-ordered concrete properties *)
  pp_abstraction : Mem_abstract.t option;
  pp_label : string;
  mutable pp_frame_gen : int;
      (* abstraction generation [pp_shared] was built from *)
}

(* The shared frame: concrete properties directly, or their
   memory-abstracted rewrite with the CEGAR replay hook installed. *)
let make_shared ~label ~abstraction concrete =
  match abstraction with
  | None -> Checker.prepare_shared ~label concrete
  | Some ab ->
    Checker.prepare_shared ~label
      ~on_sat:(Mem_abstract.hook ab)
      (Array.to_list (Mem_abstract.abstract_properties ab))

let abstraction_generation = function
  | Some ab -> Mem_abstract.generation ab
  | None -> 0

let prepare_port ?(memory_abstraction = true) ~name ~port ~rtl
    ~refmap () =
  let instrs = Ila.leaf_instructions port in
  let gens =
    List.map
      (fun (i : Ila.instruction) ->
        ( i.Ila.instr_name,
          try Ok (Propgen.generate_for ~ila:port ~rtl ~refmap i)
          with e -> Error (message_of_exn e) ))
      instrs
  in
  let label = name ^ "/" ^ port.Ila.name in
  let concrete = List.filter_map (fun (_, g) -> Result.to_option g) gens in
  let abstraction =
    if memory_abstraction then Mem_abstract.create ~label concrete else None
  in
  let sh = make_shared ~label ~abstraction concrete in
  let slots = Hashtbl.create 16 in
  let next = ref 0 in
  List.iter
    (fun (instr_name, g) ->
      match g with
      | Ok _ ->
        Hashtbl.replace slots instr_name (Ok !next);
        incr next
      | Error msg -> Hashtbl.replace slots instr_name (Error msg))
    gens;
  {
    pp_port = port;
    pp_shared = sh;
    pp_slots = slots;
    pp_instrs = instrs;
    pp_concrete = Array.of_list concrete;
    pp_abstraction = abstraction;
    pp_label = label;
    pp_frame_gen = abstraction_generation abstraction;
  }

let prepared_port_name pr = pr.pp_port.Ila.name
let prepared_instrs pr = List.map (fun i -> i.Ila.instr_name) pr.pp_instrs
let prepared_shared pr = pr.pp_shared
let prepared_abstraction pr = pr.pp_abstraction

let prepared_slot pr instr_name =
  match Hashtbl.find_opt pr.pp_slots instr_name with
  | Some r -> r
  | None -> Error "instruction not prepared"

(* Refinement ceiling per instruction: each round adds at least one
   concrete address, so this only trips on pathological window churn —
   the concrete fallback then still produces a definite verdict. *)
let max_cegar_rounds = 16

(* The CEGAR loop, shared by the prepared-port and the fresh paths.
   [solve] decides the current abstract encoding and names its rung;
   a spurious-counterexample unknown re-encodes the refined window
   ([reencode], when the window moved past [frame_gen]) and retries,
   and when refinement stalls [concrete] decides the concrete property
   on a fresh solver.  The rung gains ["+abstract"] or ["+cegarN"], or
   reads ["abstract>concrete"] after the fallback. *)
let cegar ab ~frame_gen ~solve ~reencode ~concrete =
  let rec attempt round stats_acc =
    let v, s, rung = solve () in
    let stats_acc = Checker.merge_stats stats_acc s in
    match v with
    | Checker.Unknown r when Checker.is_spurious_reason r ->
      if Mem_abstract.generation ab > frame_gen () && round < max_cegar_rounds
      then begin
        reencode ();
        attempt (round + 1) stats_acc
      end
      else
        let v, s = concrete () in
        (v, Checker.merge_stats stats_acc s, "abstract>concrete")
    | _ ->
      ( v,
        stats_acc,
        if round = 0 then rung ^ "+abstract"
        else Printf.sprintf "%s+cegar%d" rung round )
  in
  attempt 0 Checker.empty_stats

let rebuild_frame pr =
  pr.pp_shared <-
    make_shared ~label:pr.pp_label
      ~abstraction:pr.pp_abstraction
      (Array.to_list pr.pp_concrete);
  pr.pp_frame_gen <- abstraction_generation pr.pp_abstraction

let check_port_instr ?budget pr instr_name =
  match prepared_slot pr instr_name with
  | Error msg ->
    (Checker.Unknown ("exception: " ^ msg), Checker.empty_stats, "error")
  | Ok idx -> (
    (* the ladder: incremental -> fresh -> tightened -> Unknown, each
       demotion observable *)
    let ladder () =
      try Checker.check_shared_degrading ?budget pr.pp_shared idx
      with e ->
        ( Checker.Unknown ("exception: " ^ message_of_exn e),
          Checker.empty_stats,
          "error" )
    in
    match pr.pp_abstraction with
    | None -> ladder ()
    | Some ab ->
      cegar ab
        ~frame_gen:(fun () -> pr.pp_frame_gen)
        ~solve:ladder
        ~reencode:(fun () -> rebuild_frame pr)
        ~concrete:(fun () -> Checker.check ?budget pr.pp_concrete.(idx)))

let check_property ?budget ?(memory_abstraction = true) p =
  match if memory_abstraction then Mem_abstract.create [ p ] else None with
  | None ->
    let v, s = Checker.check ?budget p in
    (v, s, "fresh")
  | Some ab ->
    let frame_gen = ref (Mem_abstract.generation ab) in
    cegar ab
      ~frame_gen:(fun () -> !frame_gen)
      ~solve:(fun () ->
        let v, s =
          Checker.check ?budget
            ~on_sat:(Mem_abstract.hook ab ~prop_index:0)
            (Mem_abstract.abstract_properties ab).(0)
        in
        (v, s, "fresh"))
      ~reencode:(fun () -> frame_gen := Mem_abstract.generation ab)
      ~concrete:(fun () -> Checker.check ?budget p)

type task = { task_port : Ila.t; task_instr : Ila.instruction }

let enumerate ?only_ports (module_ila : Module_ila.t) =
  let selected =
    match only_ports with
    | None -> module_ila.Module_ila.ports
    | Some names ->
      List.filter
        (fun (p : Ila.t) -> List.mem p.Ila.name names)
        module_ila.Module_ila.ports
  in
  List.concat_map
    (fun (port : Ila.t) ->
      List.map
        (fun (i : Ila.instruction) -> { task_port = port; task_instr = i })
        (Ila.leaf_instructions port))
    selected

let run ?(stop_at_first_failure = true) ?only_ports ?budget ?timeout_s
    ?(incremental = true) ?(memory_abstraction = true) ~name module_ila rtl
    ~refmap_for =
  let t0 = Unix.gettimeofday () in
  let first_failure = ref None in
  let selected =
    match only_ports with
    | None -> module_ila.Module_ila.ports
    | Some names ->
      List.filter
        (fun (p : Ila.t) -> List.mem p.Ila.name names)
        module_ila.Module_ila.ports
  in
  let ports =
    List.map
      (fun (port : Ila.t) ->
        let pt0 = Unix.gettimeofday () in
        (* the timeout is per obligation group — here, per port: each
           port's clock starts when its first instruction is picked up,
           so a slow early port cannot starve the rest of the report *)
        let budget = Checker.with_timeout timeout_s budget in
        let refmap =
          try Ok (refmap_for port.Ila.name)
          with e -> Error (message_of_exn e)
        in
        let results = ref [] in
        (* Incremental mode generates every property of the port up
           front and shares one solver context across them (encoding
           inside the context stays lazy, so early stopping still skips
           the unchecked instructions' CNF).  Fresh mode regenerates
           and re-blasts per instruction. *)
        let check_instr =
          match refmap with
          | Error msg ->
            fun _ ->
              ( Checker.Unknown ("exception: " ^ msg),
                Checker.empty_stats,
                "error" )
          | Ok refmap when incremental ->
            let pr =
              prepare_port ~memory_abstraction ~name ~port ~rtl ~refmap ()
            in
            fun (i : Ila.instruction) ->
              check_port_instr ?budget pr i.Ila.instr_name
          | Ok refmap -> (
            fun i ->
              match Propgen.generate_for ~ila:port ~rtl ~refmap i with
              | p -> check_property ?budget ~memory_abstraction p
              | exception e ->
                ( Checker.Unknown ("exception: " ^ message_of_exn e),
                  Checker.empty_stats,
                  "error" ))
        in
        let rec check_all = function
          | [] -> ()
          | (i : Ila.instruction) :: rest ->
            if stop_at_first_failure && !first_failure <> None then ()
            else begin
              (* wall time per instruction (property generation included),
                 captured as one gettimeofday delta around the check *)
              let span =
                if Ilv_obs.Obs.enabled () then
                  Some
                    (Ilv_obs.Obs.span_begin "verify.instr"
                       [
                         ("design", Ilv_obs.Obs.S name);
                         ("port", Ilv_obs.Obs.S port.Ila.name);
                         ("instr", Ilv_obs.Obs.S i.Ila.instr_name);
                       ])
                else None
              in
              let it0 = Unix.gettimeofday () in
              let verdict, stats, rung = check_instr i in
              (match span with
              | None -> ()
              | Some id ->
                let open Ilv_obs.Obs in
                count "verify.instructions" 1;
                span_end
                  ~fields:
                    [
                      ( "verdict",
                        S
                          (match verdict with
                          | Checker.Proved -> "proved"
                          | Checker.Failed _ -> "failed"
                          | Checker.Unknown _ -> "unknown") );
                      ("attempts", I stats.Checker.attempts);
                      ("backend", S rung);
                    ]
                  id);
              let result =
                {
                  instr = i.Ila.instr_name;
                  port = port.Ila.name;
                  verdict;
                  stats;
                  rung;
                  time_s = Unix.gettimeofday () -. it0;
                }
              in
              results := result :: !results;
              (match verdict with
              | Checker.Failed _ when !first_failure = None ->
                first_failure := Some result
              | Checker.Failed _ | Checker.Proved | Checker.Unknown _ -> ());
              check_all rest
            end
        in
        check_all (Ila.leaf_instructions port);
        {
          port_name = port.Ila.name;
          instr_results = List.rev !results;
          port_time_s = Unix.gettimeofday () -. pt0;
        })
      selected
  in
  {
    design = name;
    ports;
    total_time_s = Unix.gettimeofday () -. t0;
    first_failure = !first_failure;
  }

let pp_report fmt r =
  let open Format in
  fprintf fmt "@[<v>verification report: %s (%.3fs)@," r.design r.total_time_s;
  List.iter
    (fun p ->
      fprintf fmt "  port %s (%.3fs):@," p.port_name p.port_time_s;
      List.iter
        (fun ir ->
          let status =
            match ir.verdict with
            | Checker.Proved -> "proved"
            | Checker.Failed _ -> "FAILED"
            | Checker.Unknown _ -> "UNKNOWN"
          in
          fprintf fmt "    %-34s %-7s %.3fs (%d obligations, %d conflicts)@,"
            ir.instr status ir.time_s ir.stats.Checker.n_obligations
            ir.stats.Checker.conflicts;
          match ir.verdict with
          | Checker.Unknown reason -> fprintf fmt "      reason: %s@," reason
          | Checker.Proved | Checker.Failed _ -> ())
        p.instr_results)
    r.ports;
  (match r.first_failure with
  | Some ir -> (
    match ir.verdict with
    | Checker.Failed trace -> fprintf fmt "%a@," Trace.pp trace
    | Checker.Proved | Checker.Unknown _ -> ())
  | None -> ());
  let result =
    if proved r then "PROVED"
    else if r.first_failure <> None then "FAILED"
    else if unknowns r <> [] then "UNKNOWN"
    else "FAILED"
  in
  fprintf fmt "result: %s@]" result
