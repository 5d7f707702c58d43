open Ilv_core

type job = {
  id : int;
  design : string;
  variant : string option;
  port : string;
  instr : string;
  prepare : memory_abstraction:bool -> Verify.prepared_port;
}

(* "design" or "design+variant": the name a variant's ports are
   prepared (and chaos-keyed) under *)
let variant_name design variant =
  design ^ match variant with None -> "" | Some v -> "+" ^ v

let jobs_of ?variant ?only_ports ?(first_id = 0) ~name module_ila rtl
    ~refmap_for () =
  let label = variant_name name variant in
  List.mapi
    (fun i (t : Verify.task) ->
      let port = t.Verify.task_port in
      {
        id = first_id + i;
        design = name;
        variant;
        port = port.Ila.name;
        instr = t.Verify.task_instr.Ila.instr_name;
        prepare =
          (fun ~memory_abstraction ->
            Verify.prepare_port ~memory_abstraction ~name:label ~port ~rtl
              ~refmap:(refmap_for port.Ila.name) ());
      })
    (Verify.enumerate ?only_ports module_ila)

type result = {
  job_id : int;
  r_design : string;
  r_variant : string option;
  r_port : string;
  r_instr : string;
  verdict : Checker.verdict;
  stats : Checker.stats;
  time_s : float;
  backend : string;
  cache_hit : bool;
}

type summary = {
  n_jobs : int;
  n_proved : int;
  n_failed : int;
  n_unknown : int;
  n_errors : int;
  n_poisoned : int;
  n_degraded : int;
  cache_hits : int;
  cache_misses : int;
  fresh_sat_attempts : int;
  wall_s : float;
  jobs_used : int;
}

let result_of_job (j : job) ~verdict ~stats ~time_s ~backend ~cache_hit =
  {
    job_id = j.id;
    r_design = j.design;
    r_variant = j.variant;
    r_port = j.port;
    r_instr = j.instr;
    verdict;
    stats;
    time_s;
    backend;
    cache_hit;
  }

let verdict_string = function
  | Checker.Proved -> "proved"
  | Checker.Failed _ -> "failed"
  | Checker.Unknown _ -> "unknown"

(* Chaos injection: the ["pool.kill"] fault takes down the current
   worker with SIGKILL — indistinguishable from an OOM kill as far as
   the pool's supervision is concerned, which is the point.  Guarded by
   [Pool.in_worker] so an in-process run ([jobs <= 1]) can never shoot
   the main process; keyed on the job's {e group} identity (design +
   variant + port — the pool's scheduling atom), so the one-shot ledger
   both survives the retry running in a different worker and
   guarantees at most one kill per group: a second kill on any job of
   the same group would poison the whole group. *)
let job_chaos_key (j : job) = variant_name j.design j.variant ^ "/" ^ j.port

let chaos_kill_point (j : job) =
  if
    Pool.in_worker ()
    && Ilv_obs.Inject.fire_once ~point:"pool.kill" ~key:(job_chaos_key j)
       = Ilv_obs.Inject.Fault
  then Unix.kill (Unix.getpid ()) Sys.sigkill

(* ---- one obligation against a prepared port ----

   The single checking step shared by the engine and the daemon: key
   the obligation, consult the memo and the proof cache, otherwise
   decide it with [Verify.check_port_instr] and store the verdict. *)

type port = {
  prepared : Verify.prepared_port;
  key_sh : Checker.shared;
      (* the generation-0 shared context, pinned at preparation time:
         keys must be deterministic across runs, and the live frame is
         replaced when a CEGAR refinement rebuilds it *)
  mutable key_frame : string option;
      (* [Proof_cache.frame_digest] of [key_sh]'s frozen CNF, computed
         on first use (freezing costs one encoding pass) *)
  mutable stored_frame : (Checker.shared * (int * int list list)) option;
      (* canonical CNF of the last frame an entry was stored against *)
}

let port_of prepared =
  {
    prepared;
    key_sh = Verify.prepared_shared prepared;
    key_frame = None;
    stored_frame = None;
  }

let prepared port = port.prepared

type source = Solved | Cache_hit | Memo_hit

let obligation_key port instr =
  match Verify.prepared_slot port.prepared instr with
  | Error _ -> None
  | Ok idx -> (
    match Checker.shared_frame_selectors port.key_sh idx with
    | [] -> None (* encoding failed: uncacheable *)
    | selectors ->
      let frame =
        match port.key_frame with
        | Some d -> d
        | None ->
          let d = Proof_cache.frame_digest (Checker.shared_cnf port.key_sh) in
          port.key_frame <- Some d;
          d
      in
      let mode =
        Option.map
          (fun _ -> "abstract")
          (Verify.prepared_abstraction port.prepared)
      in
      Some (Proof_cache.key_of_shared ?mode ~frame ~selectors ()))

(* The stored CNF + selectors are the decision-time frame's (after a
   CEGAR refinement, the rebuilt one), so [Proof_cache.validate]
   re-solves to the stored verdict shape; the key stays the
   generation-0 one. *)
let store_entry cache port ~design ~instr ~key verdict stats =
  let sh = Verify.prepared_shared port.prepared in
  let cnf =
    match port.stored_frame with
    | Some (sh', cnf) when sh' == sh -> cnf
    | _ ->
      let cnf = Proof_cache.canonical_cnf (Checker.shared_cnf sh) in
      port.stored_frame <- Some (sh, cnf);
      cnf
  in
  match Verify.prepared_slot port.prepared instr with
  | Error _ -> ()
  | Ok idx ->
    Proof_cache.store cache
      {
        Proof_cache.key;
        engine_version = Proof_cache.version;
        design;
        instr = Verify.prepared_port_name port.prepared ^ "." ^ instr;
        verdict;
        stats;
        cnf;
        hyps =
          Proof_cache.canonical_hyps (Checker.shared_frame_selectors sh idx);
        created_s = Unix.gettimeofday ();
      }

let check_instr ?budget ?cache ?memo ~design port instr =
  let key =
    if cache = None && memo = None then None else obligation_key port instr
  in
  let remember verdict rung =
    match (key, memo) with
    | Some k, Some m -> Hashtbl.replace m k (verdict, rung)
    | _ -> ()
  in
  let find tbl f =
    Option.bind key (fun k -> Option.bind tbl (fun t -> f t k))
  in
  match find memo Hashtbl.find_opt with
  | Some (verdict, rung) -> (verdict, Checker.empty_stats, rung, Memo_hit)
  | None -> (
    match find cache Proof_cache.lookup with
    | Some e ->
      remember e.Proof_cache.verdict "cache";
      (e.Proof_cache.verdict, e.Proof_cache.stats, "cache", Cache_hit)
    | None ->
      let verdict, stats, rung =
        Verify.check_port_instr ?budget port.prepared instr
      in
      remember verdict rung;
      (* a concrete-fallback verdict has no abstract frame to validate
         against, so it is never stored *)
      (match (cache, key) with
      | Some c, Some key when rung <> "abstract>concrete" ->
        store_entry c port ~design ~instr ~key verdict stats
      | _ -> ());
      (verdict, stats, rung, Solved))

let discharge ~cache ~budget port (j : job) =
  chaos_kill_point j;
  let t0 = Unix.gettimeofday () in
  let result verdict stats backend ~cache_hit =
    result_of_job j ~verdict ~stats
      ~time_s:(Unix.gettimeofday () -. t0)
      ~backend ~cache_hit
  in
  let errored msg =
    result (Checker.Unknown ("engine: " ^ msg)) Checker.empty_stats "error"
      ~cache_hit:false
  in
  match port with
  | Error msg -> errored msg
  | Ok port -> (
    match check_instr ?budget ?cache ~design:j.design port j.instr with
    | verdict, stats, rung, source ->
      result verdict stats rung ~cache_hit:(source = Cache_hit)
    | exception ((Out_of_memory | Stack_overflow) as fatal) -> raise fatal
    | exception e -> errored (Printexc.to_string e))

(* Group jobs by (design, variant, port), preserving first-appearance
   group order and within-group (instruction) order.  The port is the
   sharing unit: a module's ports are pairwise independent by
   construction (no shared states), while instructions of one port
   share the port's decode and next-state frame almost entirely. *)
let group_jobs job_list =
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun j ->
      let k = (j.design, j.variant, j.port) in
      match Hashtbl.find_opt tbl k with
      | Some r -> r := j :: !r
      | None ->
        let r = ref [ j ] in
        Hashtbl.add tbl k r;
        order := k :: !order)
    job_list;
  List.rev_map (fun k -> List.rev !(Hashtbl.find tbl k)) !order

(* The instrumented job: one span per obligation job, tagged at the
   end with what actually happened (backend, verdict, cache hit). *)
let instrumented discharge_fn (j : job) =
  if not (Ilv_obs.Obs.enabled ()) then discharge_fn j
  else begin
    let open Ilv_obs.Obs in
    let span =
      span_begin "engine.job"
        ([
           ("job_id", I j.id);
           ("design", S j.design);
           ("port", S j.port);
           ("instr", S j.instr);
         ]
        @ match j.variant with None -> [] | Some v -> [ ("variant", S v) ])
    in
    count "engine.jobs" 1;
    let r = discharge_fn j in
    span_end
      ~fields:
        [
          ("backend", S r.backend);
          ("verdict", S (verdict_string r.verdict));
          ("cache_hit", B r.cache_hit);
        ]
      span;
    r
  end

(* The ladder rung a backend names, without its abstraction suffix. *)
let base_rung backend =
  match String.index_opt backend '+' with
  | Some i -> String.sub backend 0 i
  | None -> backend

let degraded backend =
  match base_rung backend with
  | "fresh" | "tightened" | "degraded" | "abstract>concrete" -> true
  | _ -> false

let run ?(jobs = 1) ?cache ?budget ?timeout_s ?(memory_abstraction = true)
    job_list =
  let t0 = Unix.gettimeofday () in
  let run_span =
    if Ilv_obs.Obs.enabled () then
      Some
        (Ilv_obs.Obs.span_begin "engine.run"
           [
             ("n_jobs", Ilv_obs.Obs.I (List.length job_list));
             ("workers", Ilv_obs.Obs.I (max 1 jobs));
             ("cache", Ilv_obs.Obs.B (cache <> None));
           ])
    else None
  in
  (* The group — one port's jobs — is the scheduling atom: a worker
     takes a whole group, prepares the port once, and checks the
     group's instructions back to back so every query after the first
     inherits the earlier ones' learnt clauses.  Workers persist across
     groups (one fork per worker for the whole sweep, not per group). *)
  let groups = group_jobs job_list in
  let discharge_group group =
    (* per-group absolute deadline: the clock starts when the group is
       picked up, preparation included *)
    let budget = Checker.with_timeout timeout_s budget in
    let port =
      match group with
      | [] -> Error "empty group"
      | j :: _ -> (
        match j.prepare ~memory_abstraction with
        | pr -> Ok (port_of pr)
        | exception ((Out_of_memory | Stack_overflow) as fatal) -> raise fatal
        | exception e -> Error (Printexc.to_string e))
    in
    List.map (instrumented (discharge ~cache ~budget port)) group
  in
  let outcomes =
    List.concat
      (List.map2
         (fun g outcome ->
           match outcome with
           | Pool.Done rs when List.length rs = List.length g ->
             List.map (fun r -> Pool.Done r) rs
           | Pool.Done _ ->
             List.map
               (fun _ -> Pool.Crashed "engine: group result arity mismatch")
               g
           | Pool.Crashed reason -> List.map (fun _ -> Pool.Crashed reason) g
           | Pool.Poisoned reason -> List.map (fun _ -> Pool.Poisoned reason) g)
         groups
         (Pool.map ~jobs discharge_group groups))
  in
  let results =
    List.map2
      (fun j outcome ->
        match outcome with
        | Pool.Done r -> r
        | Pool.Crashed reason ->
          result_of_job j
            ~verdict:(Checker.Unknown ("engine: " ^ reason))
            ~stats:Checker.empty_stats ~time_s:0.0 ~backend:"error"
            ~cache_hit:false
        | Pool.Poisoned reason ->
          (* quarantined by pool supervision: an explicit, machine-
             readable verdict with the kill history, not a hang *)
          result_of_job j
            ~verdict:(Checker.Unknown ("engine: poisoned: " ^ reason))
            ~stats:Checker.empty_stats ~time_s:0.0 ~backend:"poisoned"
            ~cache_hit:false)
      (List.concat groups) outcomes
  in
  let results = List.sort (fun a b -> compare a.job_id b.job_id) results in
  let count p = List.length (List.filter p results) in
  let solved r =
    (not r.cache_hit)
    && base_rung r.backend <> "error"
    && r.backend <> "poisoned"
  in
  let summary =
    {
      n_jobs = List.length results;
      n_proved =
        count (fun r ->
            match r.verdict with Checker.Proved -> true | _ -> false);
      n_failed =
        count (fun r ->
            match r.verdict with Checker.Failed _ -> true | _ -> false);
      n_unknown =
        count (fun r ->
            match r.verdict with Checker.Unknown _ -> true | _ -> false);
      n_errors = count (fun r -> base_rung r.backend = "error");
      n_poisoned = count (fun r -> r.backend = "poisoned");
      n_degraded = count (fun r -> degraded r.backend);
      cache_hits = count (fun r -> r.cache_hit);
      cache_misses = (match cache with None -> 0 | Some _ -> count solved);
      fresh_sat_attempts =
        List.fold_left
          (fun acc r ->
            if r.cache_hit then acc else acc + r.stats.Checker.attempts)
          0 results;
      wall_s = Unix.gettimeofday () -. t0;
      jobs_used = max 1 jobs;
    }
  in
  (match run_span with
  | None -> ()
  | Some id ->
    Ilv_obs.Obs.span_end
      ~fields:
        [
          ("proved", Ilv_obs.Obs.I summary.n_proved);
          ("failed", Ilv_obs.Obs.I summary.n_failed);
          ("unknown", Ilv_obs.Obs.I summary.n_unknown);
          ("errors", Ilv_obs.Obs.I summary.n_errors);
          ("poisoned", Ilv_obs.Obs.I summary.n_poisoned);
          ("degraded", Ilv_obs.Obs.I summary.n_degraded);
          ("cache_hits", Ilv_obs.Obs.I summary.cache_hits);
          ("cache_misses", Ilv_obs.Obs.I summary.cache_misses);
        ]
      id);
  (results, summary)

let report_of ~name ~results =
  let rec group = function
    | [] -> []
    | r :: _ as rs ->
      let mine, rest =
        List.partition (fun x -> x.r_port = r.r_port) rs
      in
      (r.r_port, mine) :: group rest
  in
  let instr_result r =
    {
      Verify.instr = r.r_instr;
      port = r.r_port;
      verdict = r.verdict;
      stats = r.stats;
      rung = r.backend;
      time_s = r.time_s;
    }
  in
  let ports =
    List.map
      (fun (port_name, rs) ->
        {
          Verify.port_name;
          instr_results = List.map instr_result rs;
          port_time_s =
            List.fold_left (fun acc r -> acc +. r.time_s) 0.0 rs;
        })
      (group results)
  in
  let first_failure =
    List.find_map
      (fun r ->
        match r.verdict with
        | Checker.Failed _ -> Some (instr_result r)
        | _ -> None)
      results
  in
  {
    Verify.design = name;
    ports;
    total_time_s =
      List.fold_left (fun acc r -> acc +. r.time_s) 0.0 results;
    first_failure;
  }

let pp_summary fmt s =
  Format.fprintf fmt
    "@[<v>engine: %d jobs on %d worker%s in %.3fs@,\
    \  verdicts: %d proved, %d failed, %d unknown (%d engine errors)@,\
    \  resilience: %d poisoned, %d degraded@,\
    \  cache: %d hits, %d misses@,\
    \  fresh SAT attempts: %d (cache hits solve zero)@]"
    s.n_jobs s.jobs_used
    (if s.jobs_used = 1 then "" else "s")
    s.wall_s s.n_proved s.n_failed s.n_unknown s.n_errors s.n_poisoned
    s.n_degraded s.cache_hits s.cache_misses s.fresh_sat_attempts
