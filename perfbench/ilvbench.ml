(* The repository benchmark.  See README.md for the workloads, the
   metrics and how each layer maps onto them.

     ilvbench.exe --workload signoff|bughunt|daemon --seed N --seconds S
                  --trace 0|1

   The last line of standard output is the JSON result; the lines
   before it are the human-readable report. *)

open Util

type outcome = {
  attempted : int;
  failures : string list;
  metrics : Util.metric list;
}

(* Set-up shared by the in-process workloads: starting the program,
   which runs every module initialiser (the catalog builds all eight
   designs' ILAs, RTL and refinement maps).  Every `ilaverif`
   invocation pays it.  One start-up takes about 7 ms, so probes taken
   back to back sample the host's speed at one instant, and their
   median moved by a third between runs whose passes agreed.  Instead,
   [startup_probes] fresh executions follow every pass, and [setup_s]
   is the median over the run, sampled across the run as the passes
   are. *)
let startup_probes = 3

(* Appends [startup_probes] start-up times to [acc]. *)
let probe_startup acc =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let once () =
    snd
      (Util.time (fun () ->
           let pid =
             Unix.create_process Sys.executable_name
               [| Sys.executable_name; "--startup-probe" |]
               devnull devnull devnull
           in
           match Util.waitpid_noeintr pid with
           | Unix.WEXITED 0 -> ()
           | _ -> failwith "startup probe failed"))
  in
  let samples = List.init startup_probes (fun _ -> once ()) in
  Unix.close devnull;
  acc := samples @ !acc

(* Runs [pass] in fresh children until [seconds] have elapsed (at least
   once).  In a traced run, untraced and traced passes alternate, so the
   tracing overhead compares passes measured under the same load. *)
let repeat ~seconds f =
  let deadline = Util.now () +. seconds in
  let rec go acc =
    let acc = f () :: acc in
    if Util.now () < deadline then go acc else List.rev acc
  in
  go []

let ok_passes results =
  List.filter_map (function Ok p -> Some p | Error _ -> None) results

let child_errors results =
  List.filter_map
    (function Ok _ -> None | Error e -> Some ("pass failed: " ^ e))
    results

let ms = List.map (fun s -> s *. 1000.0)

let report_timing name unit ~scale xs =
  let n = List.length xs in
  match Util.tail_percentile n with
  | Some q ->
    report "  %-16s p50 %.4f %s, p%g %.4f %s (n=%d)" name
      (scale *. Util.median xs) unit (100.0 *. q)
      (scale *. Util.quantile q xs)
      unit n
  | None ->
    report "  %-16s p50 %.4f %s (n=%d)" name (scale *. Util.median xs) unit n

(* ---- signoff ---- *)

let signoff ~seconds ~trace =
  report "signoff: incremental, memory abstraction auto (explicit), jobs 1, \
          no cache, no budget; seed unused";
  if not trace then begin
    let probes = ref [] in
    let results =
      repeat ~seconds (fun () ->
          let r = Util.in_child Signoff.pass in
          probe_startup probes;
          r)
    in
    let passes = ok_passes results in
    let instr_s = List.concat_map (fun p -> p.Signoff.instr_s) passes in
    let walls = List.map (fun p -> p.Signoff.wall_s) passes in
    let n_obl = List.length instr_s in
    report "signoff: %d passes, golden sweep of %d designs" (List.length passes)
      (List.length Ilv_designs.Catalog.all);
    report_timing "startup_ms" "ms" ~scale:1000.0 !probes;
    report_timing "wall_s" "s" ~scale:1.0 walls;
    report_timing "obligation_ms" "ms" ~scale:1000.0 instr_s;
    report "  %-16s %.3f 1/s (n=%d)" "obligations_per_s"
      (float_of_int n_obl /. Util.sum walls) n_obl;
    let failures =
      child_errors results @ List.concat_map (fun p -> p.Signoff.failures) passes
    in
    {
      attempted = List.length results * Signoff.expected_instructions;
      failures;
      metrics =
        [
          metric "setup_s" "s" ~n:(List.length !probes) (Util.median !probes);
          metric "sweep_s" "s" ~n:(List.length walls) (Util.median walls);
          metric "ops_per_s" "1/s" ~n:n_obl (float_of_int n_obl /. Util.sum walls);
          metric "latency_p50_ms" "ms" ~n:n_obl (Util.median (ms instr_s));
          metric "latency_tail_ms" "ms" ~n:n_obl (Util.quantile 0.9 (ms instr_s));
          metric "peak_rss_mb" "MB" ~n:(List.length passes)
            (Util.median (List.map (fun p -> p.Signoff.hwm_mb) passes));
        ];
    }
  end
  else begin
    let rounds =
      repeat ~seconds (fun () ->
          let u = Util.in_child Signoff.pass in
          let t = Util.in_child Signoff.traced_pass in
          (u, t))
    in
    let untraced = ok_passes (List.map fst rounds) in
    let traced = ok_passes (List.map snd rounds) in
    let ledger = Layers.create () in
    List.iter (fun (t, _, _) -> Layers.merge ~into:ledger t) traced;
    let wall = Util.sum (List.map (fun (_, w, _) -> w) traced) in
    let failures =
      child_errors (List.map fst rounds)
      @ child_errors (List.map snd rounds)
      @ List.concat_map (fun p -> p.Signoff.failures) untraced
      @ List.concat_map (fun (_, _, f) -> f) traced
    in
    {
      attempted = 2 * List.length rounds * Signoff.expected_instructions;
      failures;
      metrics =
        Layers.to_metrics ledger ~passes:(max 1 (List.length traced)) ~wall
          ~overhead_s:
            (Util.mean (List.map (fun (_, w, _) -> w) traced)
            -. Util.mean (List.map (fun p -> p.Signoff.wall_s) untraced));
    }
  end

(* ---- bughunt ---- *)

let bughunt ~seed ~seconds ~trace =
  report "bughunt: t(bug) with library defaults (incremental, memory \
          abstraction off), no cache, no budget; campaign jobs %d, %d \
          mutants/design, 50k conflicts / 10 s x2 escalations, cache off; \
          seed %d" Bughunt.jobs Bughunt.max_mutants seed;
  let counter = ref 0 in
  let campaign () =
    let i = !counter in
    incr counter;
    Util.in_child (Bughunt.campaign_pass ~seed:(Bughunt.campaign_seed ~seed i))
  in
  let hunt_attempts = List.length Bughunt.hunts in
  let campaign_checks results =
    ( List.fold_left
        (fun n -> function Ok c -> n + c.Bughunt.mutants | Error _ -> n + 1)
        0 results,
      child_errors results
      @ List.concat_map (fun c -> c.Bughunt.campaign_failures) (ok_passes results) )
  in
  if not trace then begin
    let probes = ref [] in
    let rounds =
      repeat ~seconds (fun () ->
          let h = Util.in_child Bughunt.hunt_pass in
          probe_startup probes;
          let c = campaign () in
          probe_startup probes;
          (h, c))
    in
    let hunts = ok_passes (List.map fst rounds) in
    let camps = ok_passes (List.map snd rounds) in
    let t_bug = List.map (fun h -> Util.sum h.Bughunt.t_bug_s) hunts in
    let kills = List.concat_map (fun c -> c.Bughunt.kill_s) camps in
    let mutants = List.fold_left (fun n c -> n + c.Bughunt.mutants) 0 camps in
    let camp_wall = Util.sum (List.map (fun c -> c.Bughunt.campaign_wall_s) camps) in
    report "bughunt: %d passes (seeds %d..%d), %d mutants" (List.length rounds)
      (Bughunt.campaign_seed ~seed 0)
      (Bughunt.campaign_seed ~seed (List.length rounds - 1))
      mutants;
    List.iteri
      (fun i ((d : Ilv_designs.Design.t), label, _) ->
        report_timing
          (Printf.sprintf "t_bug %s %s" d.Ilv_designs.Design.name label)
          "s" ~scale:1.0
          (List.map (fun h -> List.nth h.Bughunt.t_bug_s i) hunts))
      Bughunt.hunts;
    report_timing "startup_ms" "ms" ~scale:1000.0 !probes;
    report_timing "t_bug_s" "s" ~scale:1.0 t_bug;
    report_timing "kill_s" "s" ~scale:1.0 kills;
    report "  %-16s %.3f 1/s (n=%d, %.2f s of campaign)" "mutants_per_s"
      (float_of_int mutants /. camp_wall) mutants camp_wall;
    report "  %-16s hunt %.2f MB, campaign %.2f MB, its pool workers %.2f MB"
      "peak_rss_mb"
      (Util.median (List.map (fun h -> h.Bughunt.hunt_hwm_mb) hunts))
      (Util.median (List.map (fun c -> c.Bughunt.campaign_hwm_mb) camps))
      (Util.median (List.map (fun c -> c.Bughunt.workers_hwm_mb) camps));
    let attempted_c, failures_c = campaign_checks (List.map snd rounds) in
    {
      attempted = (List.length rounds * hunt_attempts) + attempted_c;
      failures =
        child_errors (List.map fst rounds)
        @ List.concat_map (fun h -> h.Bughunt.hunt_failures) hunts
        @ failures_c;
      metrics =
        [
          metric "setup_s" "s" ~n:(List.length !probes) (Util.median !probes);
          metric "sweep_s" "s" ~n:(List.length t_bug) (Util.median t_bug);
          metric "ops_per_s" "1/s" ~n:mutants (float_of_int mutants /. camp_wall);
          metric "latency_p50_ms" "ms" ~n:(List.length kills)
            (Util.median (ms kills));
          metric "latency_tail_ms" "ms" ~n:(List.length kills)
            (Util.quantile 0.9 (ms kills));
          metric "peak_rss_mb" "MB" ~n:(List.length hunts)
            (Util.median
               (List.filter_map
                  (function
                    | Ok h, Ok c ->
                      Some
                        (List.fold_left Float.max h.Bughunt.hunt_hwm_mb
                           [ c.Bughunt.campaign_hwm_mb; c.Bughunt.workers_hwm_mb ])
                    | _ -> None)
                  rounds));
        ];
    }
  end
  else begin
    let rounds =
      repeat ~seconds (fun () ->
          let u = Util.in_child Bughunt.hunt_pass in
          let t = Util.in_child Bughunt.traced_hunt_pass in
          (u, t, campaign ()))
    in
    let untraced = ok_passes (List.map (fun (u, _, _) -> u) rounds) in
    let traced = ok_passes (List.map (fun (_, t, _) -> t) rounds) in
    let camps = ok_passes (List.map (fun (_, _, c) -> c) rounds) in
    let ledger = Layers.create () in
    List.iter (fun (t, _, _) -> Layers.merge ~into:ledger t) traced;
    List.iter (fun c -> Layers.merge ~into:ledger (Bughunt.campaign_layers c)) camps;
    let camp_wall =
      Util.mean (List.map (fun c -> c.Bughunt.campaign_wall_s) camps)
    in
    let passes = max 1 (List.length traced) in
    let wall =
      Util.sum (List.map (fun (_, w, _) -> w) traced)
      +. (camp_wall *. float_of_int passes)
    in
    let attempted_c, failures_c =
      campaign_checks (List.map (fun (_, _, c) -> c) rounds)
    in
    {
      attempted = (2 * List.length rounds * hunt_attempts) + attempted_c;
      failures =
        child_errors (List.map (fun (u, _, _) -> u) rounds)
        @ child_errors (List.map (fun (_, t, _) -> t) rounds)
        @ List.concat_map (fun h -> h.Bughunt.hunt_failures) untraced
        @ List.concat_map (fun (_, _, f) -> f) traced
        @ failures_c;
      metrics =
        Layers.to_metrics ledger ~passes ~wall
          ~overhead_s:
            (Util.mean (List.map (fun (_, w, _) -> w) traced)
            -. Util.mean (List.map (fun h -> Util.sum h.Bughunt.t_bug_s) untraced));
    }
  end

(* ---- daemon ---- *)

let daemon ~seed ~seconds ~trace =
  report "daemon: ilaverifd defaults (incremental, memory abstraction auto, \
          no budget), proof cache on disk, %d connections closed loop; seed %d"
    Daemon_load.connections seed;
  let module D = Daemon_load in
  Util.rm_rf D.work_dir;
  Util.mkdir_p D.work_dir;
  let oracle =
    match Util.in_child D.oracle with
    | Ok o -> o
    | Error e -> failwith ("in-process oracle: " ^ e)
  in
  (* a fresh daemon, timed until it has answered its first pass *)
  let fresh_daemon ~traced =
    let t0 = Util.now () in
    let child = D.start ~traced in
    let errors = D.first_pass oracle in
    (child, Util.now () -. t0, errors)
  in
  let colds =
    List.init D.cold_sweeps (fun _ ->
        Util.rm_rf D.cache_dir;
        let child, dt, errors = fresh_daemon ~traced:false in
        ignore (D.stop child);
        (dt, errors))
  in
  let cold_s = List.map fst colds in
  let restarts =
    List.init D.restarts (fun i ->
        let child, dt, errors = fresh_daemon ~traced:false in
        if i < D.restarts - 1 then ignore (D.stop child);
        (child, dt, errors))
  in
  let setup = Util.median (List.map (fun (_, dt, _) -> dt) restarts) in
  let setup_errors =
    List.concat_map snd colds @ List.concat_map (fun (_, _, e) -> e) restarts
  in
  let first_pass_attempts =
    (D.cold_sweeps + D.restarts) * List.length D.variants
  in
  let live, _, _ = List.nth restarts (D.restarts - 1) in
  let pid = string_of_int live.Util.pid in
  if not trace then begin
    let rss0 = Util.vm_rss_mb ~pid () in
    let samples, errors, attempted, wall, _ =
      D.closed_loop ~seed ~seconds oracle
    in
    let rss1 = Util.vm_rss_mb ~pid () and hwm = Util.vm_hwm_mb ~pid () in
    let stop_errors =
      match D.stop live with Ok _ -> [] | Error e -> [ "daemon: " ^ e ]
    in
    Util.rm_rf D.work_dir;
    let rtt = List.map (fun s -> s.D.rtt_s) samples in
    let tables =
      List.filter_map
        (fun s -> if s.D.req = D.Table then Some s.D.rtt_s else None)
        samples
    in
    report "daemon: %d requests over %d connections in %.2f s" (List.length samples)
      D.connections wall;
    report_timing "cold_sweep_s" "s" ~scale:1.0 cold_s;
    report_timing "restart_s" "s" ~scale:1.0
      (List.map (fun (_, dt, _) -> dt) restarts);
    List.iter
      (fun k ->
        let xs =
          List.filter_map
            (fun s -> if D.kind s.D.req = k then Some s.D.rtt_s else None)
            samples
        in
        if xs <> [] then report_timing k "ms" ~scale:1000.0 xs)
      D.kinds;
    List.iter
      (fun (k, req, server) ->
        report "  share %-12s %5.1f%% of requests, %5.1f%% of server time" k
          (100.0 *. req) (100.0 *. server))
      (D.shares samples);
    report_timing "latency_ms" "ms" ~scale:1000.0 rtt;
    let window_s, wins = D.windows ~seconds samples in
    (* per window: its replies' rate, from the first reply's arrival to
       the last's, and a percentile of their round trips *)
    let per_window_rps =
      List.filter_map
        (fun ws ->
          match List.map (fun s -> s.D.at_s) ws with
          | [] | [ _ ] -> None
          | ats ->
            let span =
              List.fold_left Float.max 0.0 ats
              -. List.fold_left Float.min infinity ats
            in
            if span > 0.0 then Some (float_of_int (List.length ats - 1) /. span)
            else None)
        wins
    in
    let per_window_ms q =
      List.filter_map
        (function
          | [] -> None
          | ws -> Some (Util.quantile q (ms (List.map (fun s -> s.D.rtt_s) ws))))
        wins
    in
    let per_window_p99_ms = per_window_ms 0.99 in
    report "  %-16s %.1f 1/s over the run, median %.1f 1/s over %d windows \
            of %.2f s (n=%d)"
      "throughput_rps"
      (float_of_int (List.length rtt) /. wall)
      (Util.median per_window_rps) (List.length per_window_rps) window_s
      (List.length rtt);
    List.iter
      (fun (name, xs) ->
        report "  %-16s median over the windows %.4f ms (n=%d windows)" name
          (Util.median xs) (List.length xs))
      [
        ("latency_p90_ms", per_window_ms 0.9);
        ("latency_p99_ms", per_window_p99_ms);
      ];
    report "  %-16s %.2f MB (VmRSS after the first pass to the end)"
      "rss_growth_mb" (rss1 -. rss0);
    {
      attempted = first_pass_attempts + attempted;
      failures = setup_errors @ errors @ stop_errors;
      metrics =
        [
          metric "setup_s" "s" ~n:D.restarts setup;
          metric "sweep_s" "s" ~n:D.cold_sweeps (Util.median cold_s);
          (* throughput and tail are medians over the loop's windows: a
             pause of the host over a few seconds of one run moves
             neither *)
          metric "ops_per_s" "1/s" ~n:(List.length per_window_rps)
            (Util.median per_window_rps);
          (* whole-catalog tables: most requests are memo-served, so
             the median over all of them is mostly the codec and the
             queue, not the daemon's work *)
          metric "latency_p50_ms" "ms" ~n:(List.length tables)
            (Util.median (ms tables));
          metric "latency_tail_ms" "ms" ~n:(List.length per_window_p99_ms)
            (Util.median per_window_p99_ms);
          metric "peak_rss_mb" "MB" ~n:1 hwm;
        ];
    }
  end
  else begin
    ignore (D.stop live);
    let staged =
      Util.in_child (fun () -> Layers.traced_pass D.staged_restart)
    in
    let traced_daemon, traced_restart_s, traced_errors =
      fresh_daemon ~traced:true
    in
    let pid = string_of_int traced_daemon.Util.pid in
    let rss0 = Util.vm_rss_mb ~pid () in
    let samples, errors, attempted, loop_wall, client_s =
      D.closed_loop ~seed ~seconds oracle
    in
    let rss1 = Util.vm_rss_mb ~pid () in
    let stat = D.stats () in
    let exit = D.stop traced_daemon in
    Util.rm_rf D.work_dir;
    let ledger = Layers.create () in
    let staged_wall, staged_errors =
      match staged with
      | Ok (t, w, ()) ->
        Layers.merge ~into:ledger t;
        (w, [])
      | Error e -> (0.0, [ "staged restart: " ^ e ])
    in
    (* each of the connections x depth request slots spends the loop
       waiting for a reply or preparing its next request: their sum over
       the slots is that many times the loop's wall clock *)
    let per_slot x = x /. float_of_int (D.connections * D.depth) in
    Layers.add ledger "daemon.server_s"
      (per_slot (Util.sum (List.map (fun s -> s.D.server_s) samples)));
    Layers.add ledger "daemon.wait_codec_s"
      (per_slot (Util.sum (List.map (fun s -> s.D.rtt_s -. s.D.server_s) samples)));
    Layers.add ledger "client.s" (per_slot client_s);
    Layers.add ledger "daemon.dedup_hits" (stat "dedup_hits");
    Layers.add ledger "daemon.jobs" (stat "jobs");
    Layers.add ledger "daemon.frames" (stat "frames");
    Layers.add ledger "daemon.max_batch" (stat "max_batch");
    Layers.add ledger "rss_growth_mb" (rss1 -. rss0);
    List.iter
      (fun (k, req, server) ->
        Layers.add ledger ("mix." ^ k ^ ".requests") req;
        Layers.add ledger ("mix." ^ k ^ ".server") server)
      (D.shares samples);
    let exit_errors =
      match exit with
      | Ok x ->
        List.iter
          (fun n ->
            Layers.addi ledger ("counter." ^ n)
              (Option.value (List.assoc_opt n x.D.counters) ~default:0))
          Layers.counter_names;
        Layers.add ledger "daemon.heap_mb" x.D.heap_mb;
        Layers.add ledger "gc.allocated_mb" x.D.allocated_mb;
        Layers.addi ledger "gc.major_collections" x.D.major_collections;
        []
      | Error e -> [ "daemon: " ^ e ]
    in
    {
      attempted = first_pass_attempts + List.length D.variants + attempted;
      failures =
        setup_errors @ staged_errors @ traced_errors @ errors @ exit_errors;
      metrics =
        Layers.to_metrics ledger ~passes:1 ~wall:(staged_wall +. loop_wall)
          ~overhead_s:(traced_restart_s -. setup);
    }
  end

(* ---- entry point ---- *)

let usage =
  "ilvbench.exe --workload signoff|bughunt|daemon --seed N --seconds S \
   --trace 0|1"

let () =
  match Array.to_list Sys.argv with
  | [ _; "--startup-probe" ] -> exit 0
  | _ ->
    let workload = ref "" and seed = ref 1 and seconds = ref 10.0
    and trace = ref 0 in
    Arg.parse
      [
        ("--workload", Arg.Set_string workload, "NAME workload to run");
        ("--seed", Arg.Set_int seed, "N input seed");
        ("--seconds", Arg.Set_float seconds, "S measuring time");
        ("--trace", Arg.Set_int trace, "0|1 per-layer run");
      ]
      (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
      usage;
    let trace = !trace = 1 in
    let seconds = !seconds in
    let run =
      match !workload with
      | "signoff" -> signoff
      | "bughunt" -> bughunt ~seed:!seed
      | "daemon" -> daemon ~seed:!seed
      | w ->
        prerr_endline ("unknown workload " ^ w ^ "\n" ^ usage);
        exit 2
    in
    let o =
      Fun.protect ~finally:Daemon_load.kill_live (fun () -> run ~seconds ~trace)
    in
    let failed = List.length o.failures in
    List.iteri
      (fun i f -> if i < 20 then report "FAILED: %s" f)
      o.failures;
    report "fail_frac = %g (%d failed of %d attempted)"
      (float_of_int failed /. float_of_int (max 1 o.attempted))
      failed o.attempted;
    List.iter
      (fun m ->
        report "  %-26s %.6g %s%s" m.m_name m.m_value m.m_unit
          (match m.m_samples with
          | Some n -> Printf.sprintf " (n=%d)" n
          | None -> ""))
      o.metrics;
    print_endline
      (Util.result_line ~correct:(failed = 0) ~attempted:o.attempted ~failed
         o.metrics);
    exit (if failed = 0 then 0 else 1)
