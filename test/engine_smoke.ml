(* Smoke test for the parallel verification engine, wired into the
   default test alias: a tiny two-design parallel sweep against a
   throwaway proof cache, then a warm rerun that must be served from
   the cache (hit count positive, zero fresh SAT attempts) and must
   not be slower than the cold run beyond a generous slack.  Finally,
   the differential sweep: every catalog design (quick configuration),
   golden and every bug, with the memory abstraction on and off, must
   get the same verdict {e and} rung per obligation from every path
   that checks it — [Verify.run], the engine at -j1 and -j2 on a cold
   cache, and the daemon — the same verdict from the engine on a warm
   cache (rung "cache" wherever the cold run stored one), and the same
   verdict from the fresh-solver reference path. *)

open Ilv_core
open Ilv_designs
open Ilv_engine
module Json = Ilv_obs.Json

let fail fmt = Format.kasprintf (fun s -> prerr_endline s; exit 1) fmt

let design name = List.find (fun d -> d.Design.name = name) Catalog.all

let jobs_of (d : Design.t) first_id =
  Engine.jobs_of ~first_id ~name:d.Design.name d.Design.module_ila
    d.Design.rtl
    ~refmap_for:(fun port -> d.Design.refmap_for d.Design.rtl port)
    ()

let all_jobs () =
  let d1 = design "AXI Slave" and d2 = design "Mem. Interface" in
  let j1 = jobs_of d1 0 in
  j1 @ jobs_of d2 (List.length j1)

(* ---- the differential sweep ---- *)

let shape = function
  | Checker.Proved -> "proved"
  | Checker.Failed _ -> "failed"
  | Checker.Unknown _ -> "unknown"

(* (port, instr, verdict, rung) per obligation, in report order *)
let of_report (r : Verify.report) =
  List.concat_map
    (fun (p : Verify.port_report) ->
      List.map
        (fun (ir : Verify.instr_result) ->
          ( ir.Verify.port,
            ir.Verify.instr,
            shape ir.Verify.verdict,
            ir.Verify.rung ))
        p.Verify.instr_results)
    r.Verify.ports

let of_engine results =
  List.map
    (fun (r : Engine.result) ->
      ( r.Engine.r_port,
        r.Engine.r_instr,
        shape r.Engine.verdict,
        r.Engine.backend ))
    results

let of_daemon reply =
  let rows =
    match Json.member "results" reply with Some (Json.List rs) -> rs | _ -> []
  in
  List.map
    (fun row ->
      let s k =
        Option.value
          (Option.bind (Json.member k row) Json.to_string)
          ~default:"?"
      in
      (s "port", s "instr", s "verdict", s "rung"))
    rows

let temp_path tag =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "ilv-engine-smoke-%s-%d" tag (Unix.getpid ()))

let with_daemon f =
  let socket = temp_path "sock" in
  match Unix.fork () with
  | 0 ->
    (try Ilv_server.Daemon.serve ~socket () with _ -> ());
    Unix._exit 0
  | pid ->
    let rec wait n =
      if n = 0 then fail "engine smoke: daemon did not come up"
      else if not (Ilv_server.Client.ping socket) then begin
        Unix.sleepf 0.02;
        wait (n - 1)
      end
    in
    wait 250;
    let stop () =
      ignore
        (Ilv_server.Client.with_connection socket (fun c ->
             Ilv_server.Client.request c
               (Json.Obj [ ("op", Json.String "stop") ])));
      ignore (Unix.waitpid [] pid)
    in
    Fun.protect ~finally:stop (fun () -> f socket)

let daemon_rows socket ~memory_abstraction (d : Design.t) bug =
  let req =
    Json.Obj
      ([
         ("op", Json.String "verify");
         ("design", Json.String d.Design.name);
         ( "memory_abstraction",
           Json.String (if memory_abstraction then "on" else "off") );
       ]
      @ match bug with Some b -> [ ("bug", Json.String b) ] | None -> [])
  in
  match
    Ilv_server.Client.with_connection socket (fun c ->
        Ilv_server.Client.request c req)
  with
  | Ok reply when Ilv_server.Client.ok reply -> of_daemon reply
  | Ok reply ->
    fail "engine smoke: daemon error: %s" (Ilv_server.Client.error_of reply)
  | Error msg -> fail "engine smoke: daemon unreachable: %s" msg

(* A warm run must serve from the cache every obligation the cold run
   stored (definitive verdicts not decided by the concrete fallback)
   and agree on the verdict everywhere. *)
let warm_matches cold warm =
  List.length cold = List.length warm
  && List.for_all2
       (fun (p, i, v, rung) (p', i', v', rung') ->
         p = p' && i = i' && v = v'
         &&
         if v <> "unknown" && rung <> "abstract>concrete" then rung' = "cache"
         else rung' = rung)
       cold warm

let differential_sweep () =
  with_daemon (fun socket ->
      List.iter
        (fun memory_abstraction ->
          List.iter
            (fun (d : Design.t) ->
              let variants =
                (None, d.Design.rtl)
                :: List.map
                     (fun (b : Design.bug) ->
                       (Some b.Design.bug_label, b.Design.buggy_rtl))
                     d.Design.bugs
              in
              List.iter
                (fun (bug, rtl) ->
                  let label =
                    Printf.sprintf "%s%s (abstraction %s)" d.Design.name
                      (match bug with Some b -> " [" ^ b ^ "]" | None -> "")
                      (if memory_abstraction then "on" else "off")
                  in
                  let refmap_for = d.Design.refmap_for rtl in
                  let verify incremental =
                    Verify.run ~stop_at_first_failure:false ~incremental
                      ~memory_abstraction ~name:d.Design.name
                      d.Design.module_ila rtl ~refmap_for
                  in
                  let reference = of_report (verify true) in
                  let fresh = of_report (verify false) in
                  let engine ~jobs cache =
                    of_engine
                      (fst
                         (Engine.run ~jobs ~cache ~memory_abstraction
                            (Engine.jobs_of ?variant:bug ~name:d.Design.name
                               d.Design.module_ila rtl ~refmap_for ())))
                  in
                  let fresh_cache tag =
                    let c = Proof_cache.open_ ~dir:(temp_path tag) () in
                    ignore (Proof_cache.clear c);
                    c
                  in
                  let ca = fresh_cache "a" and cb = fresh_cache "b" in
                  let cold_j1 = engine ~jobs:1 ca in
                  let warm_j2 = engine ~jobs:2 ca in
                  let cold_j2 = engine ~jobs:2 cb in
                  let warm_j1 = engine ~jobs:1 cb in
                  List.iter (fun c -> ignore (Proof_cache.clear c)) [ ca; cb ];
                  let daemon = daemon_rows socket ~memory_abstraction d bug in
                  let verdicts = List.map (fun (p, i, v, _) -> (p, i, v)) in
                  let check what ok =
                    if not ok then fail "engine smoke: %s: %s" label what
                  in
                  check "no obligations" (reference <> []);
                  check "fresh reference verdicts differ"
                    (verdicts fresh = verdicts reference);
                  check "engine -j1 (cold cache) differs" (cold_j1 = reference);
                  check "engine -j2 (cold cache) differs" (cold_j2 = reference);
                  check "engine -j2 (warm cache) differs"
                    (warm_matches reference warm_j2);
                  check "engine -j1 (warm cache) differs"
                    (warm_matches reference warm_j1);
                  check "daemon differs" (daemon = reference);
                  Format.printf
                    "engine smoke: %-48s %2d obligations agree on every \
                     path@."
                    label (List.length reference))
                variants)
            Catalog.quick)
        [ true; false ])

let () =
  let cache_dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ilv-engine-smoke-%d" (Unix.getpid ()))
  in
  let cache = Proof_cache.open_ ~dir:cache_dir () in
  ignore (Proof_cache.clear cache);
  let _, cold = Engine.run ~jobs:2 ~cache (all_jobs ()) in
  Format.printf "cold: %a@." Engine.pp_summary cold;
  if cold.Engine.n_proved <> cold.Engine.n_jobs then
    fail "engine smoke: cold run proved %d of %d jobs" cold.Engine.n_proved
      cold.Engine.n_jobs;
  if cold.Engine.cache_misses <> cold.Engine.n_jobs then
    fail "engine smoke: cold run should miss on all %d jobs, missed %d"
      cold.Engine.n_jobs cold.Engine.cache_misses;
  let _, warm = Engine.run ~jobs:2 ~cache (all_jobs ()) in
  Format.printf "warm: %a@." Engine.pp_summary warm;
  ignore (Proof_cache.clear cache);
  (try Unix.rmdir cache_dir with Unix.Unix_error _ -> ());
  if warm.Engine.cache_hits <= 0 then
    fail "engine smoke: warm run had no cache hits";
  if warm.Engine.cache_hits <> warm.Engine.n_jobs then
    fail "engine smoke: warm run hit %d of %d jobs" warm.Engine.cache_hits
      warm.Engine.n_jobs;
  if warm.Engine.fresh_sat_attempts <> 0 then
    fail "engine smoke: warm run made %d fresh SAT attempts"
      warm.Engine.fresh_sat_attempts;
  (* A cache hit skips SAT entirely, so the warm sweep must not lose to
     the cold one; the slack absorbs scheduler noise on busy machines. *)
  let slack = (1.5 *. cold.Engine.wall_s) +. 0.25 in
  if warm.Engine.wall_s > slack then
    fail "engine smoke: warm run (%.3fs) slower than cold + slack (%.3fs)"
      warm.Engine.wall_s slack;
  Format.printf
    "engine smoke: %d jobs, warm rerun served entirely from cache@."
    warm.Engine.n_jobs;
  differential_sweep ()
