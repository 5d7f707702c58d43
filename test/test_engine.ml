(* Tests for the parallel verification engine: proof-cache key
   stability and corruption handling, worker-pool determinism and
   failure isolation, and end-to-end engine runs with a warm cache. *)

open Ilv_core
open Ilv_designs
open Ilv_engine

let t name f = Alcotest.test_case name `Quick f

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "ilv-test-cache-%d-%d" (Unix.getpid ()) !counter)
    in
    (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d

let design name =
  List.find (fun d -> d.Design.name = name) Catalog.all

(* The first port of a design, freshly prepared (never solved on), and
   its first instruction. *)
let prepared_of (d : Design.t) =
  let port = List.hd d.Design.module_ila.Module_ila.ports in
  let refmap = d.Design.refmap_for d.Design.rtl port.Ila.name in
  let pr =
    Verify.prepare_port ~name:d.Design.name ~port ~rtl:d.Design.rtl ~refmap ()
  in
  (pr, List.hd (Verify.prepared_instrs pr))

let key_of (d : Design.t) =
  let pr, instr = prepared_of d in
  Option.get (Engine.obligation_key (Engine.port_of pr) instr)

let jobs_of (d : Design.t) =
  Engine.jobs_of ~name:d.Design.name d.Design.module_ila d.Design.rtl
    ~refmap_for:(fun port -> d.Design.refmap_for d.Design.rtl port)
    ()

(* ------------------------------------------------------------------ *)
(* Cache keys                                                          *)
(* ------------------------------------------------------------------ *)

let key_tests =
  [
    t "frame digest insensitive to clause and literal order" (fun () ->
        let clauses = [ [ 1; -2; 3 ]; [ -1; 4 ]; [ 2; -3; -4 ]; [ 5 ] ] in
        let d = Proof_cache.frame_digest (8, clauses) in
        let permuted =
          [ [ 5 ]; [ 2; -4; -3 ]; [ 3; 1; -2 ]; [ 4; -1 ] ]
        in
        Alcotest.(check string)
          "permuted CNF digests equal" d
          (Proof_cache.frame_digest (8, permuted));
        (* ...but not to the actual content *)
        let changed = [ [ 1; -2; 3 ]; [ -1; 4 ]; [ 2; -3; 4 ]; [ 5 ] ] in
        Alcotest.(check bool)
          "flipped literal changes the digest" true
          (d <> Proof_cache.frame_digest (8, changed)));
    t "key insensitive to selector-list order and duplicates (regression)"
      (fun () ->
        (* Pre-fix, keys hashed the selector lists exactly as given
           while canonicalizing the clauses: the same proof problem
           with its obligations enumerated in a different order
           silently missed the cache. *)
        let frame = Proof_cache.frame_digest (8, [ [ 1; -2 ]; [ 2; 3 ] ]) in
        let key selectors = Proof_cache.key_of_shared ~frame ~selectors () in
        let k = key [ [ 6; 7 ]; [ 8 ] ] in
        Alcotest.(check string)
          "permuted selector lists keys equal" k
          (key [ [ 8 ]; [ 7; 6 ] ]);
        Alcotest.(check string)
          "duplicated selector literal keys equal" k
          (key [ [ 6; 7; 6 ]; [ 8 ] ]);
        Alcotest.(check bool)
          "different selector content still changes the key" true
          (k <> key [ [ 6; 7 ]; [ 7 ] ]);
        Alcotest.(check bool)
          "the encoding mode tag changes the key" true
          (k
          <> Proof_cache.key_of_shared ~mode:"abstract" ~frame
               ~selectors:[ [ 6; 7 ]; [ 8 ] ] ()));
    t "key stable across independent port preparations" (fun () ->
        let d = design "AXI Slave" in
        Alcotest.(check string) "same obligation, same key" (key_of d)
          (key_of d));
    t "solving does not move an obligation's key" (fun () ->
        (* The key comes from the frozen generation-0 snapshot, never
           from the live solver, which accumulates learnt clauses and
           retire units as it solves. *)
        let d = design "AXI Slave" in
        let pr, instr = prepared_of d in
        let port = Engine.port_of pr in
        let k_before = Engine.obligation_key port instr in
        let _ = Verify.check_port_instr pr instr in
        Alcotest.(check (option string))
          "key after solving" k_before
          (Engine.obligation_key port instr);
        Alcotest.(check (option string))
          "matches a fresh preparation" k_before (Some (key_of d)));
  ]

(* ------------------------------------------------------------------ *)
(* Cache store / lookup robustness                                     *)
(* ------------------------------------------------------------------ *)

let entry_of (d : Design.t) =
  let pr, instr = prepared_of d in
  let key = Option.get (Engine.obligation_key (Engine.port_of pr) instr) in
  let verdict, stats, _ = Verify.check_port_instr pr instr in
  let sh = Verify.prepared_shared pr in
  {
    Proof_cache.key;
    engine_version = Proof_cache.version;
    design = d.Design.name;
    instr = "test";
    verdict;
    stats;
    cnf = Proof_cache.canonical_cnf (Checker.shared_cnf sh);
    hyps = Checker.shared_frame_selectors sh 0;
    created_s = 0.0;
  }

let stored_entry (d : Design.t) cache =
  let entry = entry_of d in
  Proof_cache.store cache entry;
  entry

let sharded_path dir key =
  Filename.concat
    (Filename.concat dir (Proof_cache.shard_of key))
    (key ^ ".proof")

(* A raw (non-entry) file where the cache would file [key]. *)
let write_raw dir key contents =
  let shard = Filename.concat dir (Proof_cache.shard_of key) in
  (try Unix.mkdir shard 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let oc = open_out_bin (sharded_path dir key) in
  output_string oc contents;
  close_out oc

let cache_tests =
  [
    t "store then lookup round-trips the verdict" (fun () ->
        let cache = Proof_cache.open_ ~dir:(fresh_dir ()) () in
        let e = stored_entry (design "AXI Slave") cache in
        (match Proof_cache.lookup cache e.Proof_cache.key with
        | Some got ->
          Alcotest.(check bool)
            "verdict is Proved" true
            (got.Proof_cache.verdict = Checker.Proved)
        | None -> Alcotest.fail "expected a hit");
        Alcotest.(check int) "one entry" 1 (Proof_cache.stats cache).entries;
        Alcotest.(check int) "clear removes it" 1 (Proof_cache.clear cache));
    t "truncated entry is a miss, not a crash" (fun () ->
        let dir = fresh_dir () in
        let cache = Proof_cache.open_ ~dir () in
        let e = stored_entry (design "AXI Slave") cache in
        let path = sharded_path dir e.Proof_cache.key in
        let size = (Unix.stat path).Unix.st_size in
        Unix.truncate path (size / 2);
        Alcotest.(check bool)
          "truncated file misses" true
          (Proof_cache.lookup cache e.Proof_cache.key = None);
        (* the lookup quarantined the torn file on contact: it no
           longer occupies the key space, but is kept as evidence *)
        Alcotest.(check int)
          "no corrupt entry remains in the key space" 0
          (Proof_cache.stats cache).corrupt;
        Alcotest.(check int)
          "it was quarantined, not deleted" 1
          (Proof_cache.quarantined_count cache);
        (* and a re-store re-occupies the key slot *)
        let e2 = stored_entry (design "AXI Slave") cache in
        Alcotest.(check bool)
          "re-stored entry hits again" true
          (Proof_cache.lookup cache e2.Proof_cache.key <> None));
    t "garbage and version-mismatched entries are misses" (fun () ->
        let dir = fresh_dir () in
        let cache = Proof_cache.open_ ~dir () in
        let key = String.make 32 'a' in
        write_raw dir key "not a proof cache entry at all";
        Alcotest.(check bool)
          "garbage misses" true
          (Proof_cache.lookup cache key = None);
        let e = stored_entry (design "AXI Slave") cache in
        Proof_cache.store cache
          { e with Proof_cache.engine_version = "some-other-engine/9" };
        Alcotest.(check bool)
          "foreign engine version misses" true
          (Proof_cache.lookup cache e.Proof_cache.key = None));
    t "unknown verdicts are never stored" (fun () ->
        let cache = Proof_cache.open_ ~dir:(fresh_dir ()) () in
        let e = stored_entry (design "AXI Slave") cache in
        ignore (Proof_cache.clear cache);
        Proof_cache.store cache
          { e with Proof_cache.verdict = Checker.Unknown "budget" };
        Alcotest.(check int)
          "store dropped it" 0
          (Proof_cache.stats cache).entries);
    t "validate agrees with freshly stored entries" (fun () ->
        let cache = Proof_cache.open_ ~dir:(fresh_dir ()) () in
        ignore (stored_entry (design "AXI Slave") cache);
        let v = Proof_cache.validate ~sample:5 cache in
        Alcotest.(check int) "checked" 1 v.Proof_cache.checked;
        Alcotest.(check int) "agreed" 1 v.Proof_cache.agreed);
    t "stale (foreign version) and corrupt entries classify separately"
      (fun () ->
        (* Pre-fix, both landed in the same [corrupt] bucket, so a
           routine engine upgrade was indistinguishable from disk
           damage in [stats] and [validate]. *)
        let dir = fresh_dir () in
        let cache = Proof_cache.open_ ~dir () in
        let e = stored_entry (design "AXI Slave") cache in
        Proof_cache.store cache
          {
            e with
            Proof_cache.key = String.make 32 'b';
            engine_version = "some-other-engine/9";
          };
        write_raw dir (String.make 32 'c') "definitely not a proof cache entry";
        let s = Proof_cache.stats cache in
        Alcotest.(check int) "usable entries" 1 s.Proof_cache.entries;
        Alcotest.(check int) "stale" 1 s.Proof_cache.stale;
        Alcotest.(check int) "corrupt" 1 s.Proof_cache.corrupt;
        let v = Proof_cache.validate ~sample:10 cache in
        Alcotest.(check int) "checked only the usable one" 1
          v.Proof_cache.checked;
        Alcotest.(check int) "it agreed" 1 v.Proof_cache.agreed;
        Alcotest.(check int) "one stale file" 1
          (List.length v.Proof_cache.stale_entries);
        Alcotest.(check int) "one corrupt file" 1
          (List.length v.Proof_cache.corrupt_entries));
    t "validate strides across the whole listing (regression)" (fun () ->
        (* Pre-fix, [validate ~sample:n] re-solved the lexicographically
           first [n] entry files: an entry whose digest sorted late was
           never re-checked no matter how often validation ran.  Ten
           synthetic entries, the single rotted one keyed to sort last;
           a stride of 5 must include the last file and catch it. *)
        let dir = fresh_dir () in
        let cache = Proof_cache.open_ ~dir () in
        let no_stats =
          {
            Checker.time_s = 0.0;
            obligation_times_s = [];
            n_obligations = 1;
            cnf_vars = 1;
            cnf_clauses = 2;
            conflicts = 0;
            restarts = 0;
            attempts = 1;
          }
        in
        let synthetic ~key ~cnf =
          {
            Proof_cache.key;
            engine_version = Proof_cache.version;
            design = "synthetic";
            instr = "t";
            verdict = Checker.Proved;
            stats = no_stats;
            cnf;
            hyps = [ [ 1 ] ];
            created_s = 0.0;
          }
        in
        (* nine honest entries: x /\ not x is UNSAT, so Proved agrees *)
        for i = 0 to 8 do
          Proof_cache.store cache
            (synthetic
               ~key:(Printf.sprintf "%02d-good" i)
               ~cnf:(1, [ [ 1 ]; [ -1 ] ]))
        done;
        (* one rotted entry, keyed to sort after every honest one: its
           stored CNF is satisfiable, so Proved is a lie *)
        Proof_cache.store cache
          (synthetic ~key:"zz-rotted" ~cnf:(1, [ [ 1 ] ]));
        let v = Proof_cache.validate ~sample:5 cache in
        Alcotest.(check int) "checked the sample" 5 v.Proof_cache.checked;
        Alcotest.(check (list string))
          "the late-sorting rotted entry is caught" [ "zz-rotted" ]
          v.Proof_cache.mismatched);
    t "root-level flat-layout files are never read" (fun () ->
        (* entries live only in shard directories: a file directly
           under the root (the pre-sharding layout, which predates the
           current engine version) is neither served nor counted *)
        let dir = fresh_dir () in
        let cache = Proof_cache.open_ ~dir () in
        let e = stored_entry (design "AXI Slave") cache in
        Sys.rename
          (sharded_path dir e.Proof_cache.key)
          (Filename.concat dir (e.Proof_cache.key ^ ".proof"));
        Alcotest.(check bool)
          "root entry misses" true
          (Proof_cache.lookup cache e.Proof_cache.key = None);
        let s = Proof_cache.stats cache in
        Alcotest.(check int) "not counted" 0 s.Proof_cache.entries;
        Alcotest.(check int) "not stale either" 0 s.Proof_cache.stale;
        Proof_cache.store cache e;
        Alcotest.(check bool)
          "a fresh store hits again" true
          (Proof_cache.lookup cache e.Proof_cache.key <> None));
    t "lock retry schedule is positive, capped, and deterministic" (fun () ->
        List.iter
          (fun attempt ->
            let d = Proof_cache.lock_retry_delay ~key:"deadbeef" ~attempt in
            Alcotest.(check bool) "positive" true (d > 0.0);
            Alcotest.(check bool) "capped" true (d <= 0.016 *. 1.5);
            Alcotest.(check (float 0.0))
              "deterministic" d
              (Proof_cache.lock_retry_delay ~key:"deadbeef" ~attempt))
          [ 1; 2; 3; 4; 5 ];
        let total =
          List.fold_left
            (fun acc attempt ->
              acc +. Proof_cache.lock_retry_delay ~key:"k" ~attempt)
            0.0 [ 1; 2; 3; 4; 5 ]
        in
        Alcotest.(check bool)
          "whole schedule stays well under 100ms" true (total < 0.1));
    t "a held shard lock never blocks the store (regression)" (fun () ->
        (* Pre-fix, [store] took the advisory lock with an unbounded
           blocking [F_LOCK]: any process stalled while holding it
           wedged every later store forever.  Now acquisition is
           [F_TLOCK] with a bounded retry schedule, after which the
           write proceeds lock-free (still atomic via rename).  The
           holder must be a *different process* — lockf locks do not
           conflict within one process. *)
        let dir = fresh_dir () in
        let cache = Proof_cache.open_ ~dir () in
        let entry = entry_of (design "AXI Slave") in
        let shard =
          Filename.concat dir (Proof_cache.shard_of entry.Proof_cache.key)
        in
        (try Unix.mkdir shard 0o755
         with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        let lock_path = Filename.concat shard ".lock" in
        let r, w = Unix.pipe () in
        match Unix.fork () with
        | 0 ->
          (* child: grab the shard lock, tell the parent, stall *)
          Unix.close r;
          let fd =
            Unix.openfile lock_path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644
          in
          (try Unix.lockf fd Unix.F_LOCK 0 with Unix.Unix_error _ -> ());
          ignore (Unix.write w (Bytes.of_string "L") 0 1);
          Unix.sleepf 30.0;
          Unix._exit 0
        | pid ->
          Unix.close w;
          ignore (Unix.read r (Bytes.create 1) 0 1);
          Unix.close r;
          let t0 = Unix.gettimeofday () in
          Proof_cache.store cache entry;
          let elapsed = Unix.gettimeofday () -. t0 in
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid);
          Alcotest.(check bool)
            "store returned promptly despite the held lock" true
            (elapsed < 5.0);
          Alcotest.(check bool)
            "entry landed via the lock-free fallback" true
            (Proof_cache.lookup cache entry.Proof_cache.key <> None));
  ]

(* ------------------------------------------------------------------ *)
(* Worker pool                                                         *)
(* ------------------------------------------------------------------ *)

let pool_tests =
  [
    t "-j1 and -j4 produce identical results in identical order" (fun () ->
        let items = List.init 23 Fun.id in
        let f x = (x * x) + 1 in
        let seq = Pool.map ~jobs:1 f items in
        let par = Pool.map ~jobs:4 f items in
        Alcotest.(check bool) "same outcomes" true (seq = par);
        Alcotest.(check bool)
          "ordered as the input" true
          (par = List.map (fun x -> Pool.Done (f x)) items));
    t "an exception isolates to its own job" (fun () ->
        let items = [ 0; 1; 2; 3; 4; 5 ] in
        let f x = if x = 3 then failwith "boom" else x * 10 in
        List.iter
          (fun jobs ->
            let out = Pool.map ~jobs f items in
            List.iteri
              (fun i o ->
                match o with
                | Pool.Done y ->
                  Alcotest.(check bool)
                    "non-faulting jobs succeed" true
                    (i <> 3 && y = i * 10)
                | Pool.Crashed reason ->
                  let mentions_boom =
                    let n = String.length reason in
                    let rec scan i =
                      i + 4 <= n
                      && (String.sub reason i 4 = "boom" || scan (i + 1))
                    in
                    scan 0
                  in
                  Alcotest.(check bool)
                    "only job 3 crashed, with the exception text" true
                    (i = 3 && mentions_boom)
                | Pool.Poisoned _ ->
                  Alcotest.fail
                    "a deterministic error must not poison the job")
              out)
          [ 1; 4 ]);
    t "a persistently dying worker process poisons its job" (fun () ->
        let items = [ 0; 1; 2; 3; 4; 5; 6; 7 ] in
        (* [Unix._exit] skips every at_exit handler: the worker vanishes
           mid-job exactly like a segfault would.  Job 2 kills its first
           host, earns a supervised retry, kills the second host too —
           and is quarantined as [Poisoned] instead of meeting a third
           worker. *)
        let f x = if x = 2 then Unix._exit 9 else x + 100 in
        let out = Pool.map ~jobs:3 f items in
        List.iteri
          (fun i o ->
            match o with
            | Pool.Done y ->
              Alcotest.(check bool) "survivors" true (i <> 2 && y = i + 100)
            | Pool.Poisoned _ ->
              Alcotest.(check int) "only the dying job" 2 i
            | Pool.Crashed _ ->
              Alcotest.fail "two kills must poison, not crash")
          out);
    t "a worker death retries the job once, then succeeds (regression)"
      (fun () ->
        (* Pre-fix, the first worker death doomed its in-flight job to
           [Crashed] even though the death was the worker's fault, not
           the job's.  The marker file makes job 2 kill its first host
           and succeed on the retry. *)
        let marker =
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "ilv-pool-retry-%d" (Unix.getpid ()))
        in
        (try Sys.remove marker with Sys_error _ -> ());
        let f x =
          if x = 2 && not (Sys.file_exists marker) then begin
            close_out (open_out marker);
            Unix._exit 9
          end
          else x + 100
        in
        let out = Pool.map ~jobs:3 f (List.init 8 Fun.id) in
        (try Sys.remove marker with Sys_error _ -> ());
        List.iteri
          (fun i o ->
            Alcotest.(check bool)
              (Printf.sprintf "job %d done after at most one retry" i)
              true
              (o = Pool.Done (i + 100)))
          out);
    t "a job that kills every host runs exactly twice, then is poisoned"
      (fun () ->
        let attempts =
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "ilv-pool-attempts-%d" (Unix.getpid ()))
        in
        (try Sys.remove attempts with Sys_error _ -> ());
        let f x =
          if x = 2 then begin
            let oc =
              open_out_gen [ Open_append; Open_creat ] 0o644 attempts
            in
            output_string oc "x";
            close_out oc;
            Unix._exit 9
          end
          else x + 100
        in
        let out = Pool.map ~jobs:3 f (List.init 8 Fun.id) in
        let executions =
          try (Unix.stat attempts).Unix.st_size with Unix.Unix_error _ -> 0
        in
        (try Sys.remove attempts with Sys_error _ -> ());
        Alcotest.(check int) "ran twice: original + one retry" 2 executions;
        List.iteri
          (fun i o ->
            match o with
            | Pool.Done y ->
              Alcotest.(check bool) "survivors" true (i <> 2 && y = i + 100)
            | Pool.Poisoned reason ->
              Alcotest.(check int) "only the unkillable job" 2 i;
              Alcotest.(check bool)
                "the poisoned disposition carries the kill history" true
                (let n = String.length reason in
                 let needle = "killed 2 workers" in
                 let m = String.length needle in
                 let rec scan i =
                   i + m <= n && (String.sub reason i m = needle || scan (i + 1))
                 in
                 scan 0)
            | Pool.Crashed _ ->
              Alcotest.fail "two kills must poison, not crash")
          out);
  ]

(* ------------------------------------------------------------------ *)
(* End-to-end engine runs                                              *)
(* ------------------------------------------------------------------ *)

let verdict_shape = function
  | Checker.Proved -> "proved"
  | Checker.Failed _ -> "failed"
  | Checker.Unknown _ -> "unknown"

let summary_verdicts results =
  List.map
    (fun (r : Engine.result) ->
      ( r.Engine.job_id,
        r.Engine.r_port,
        r.Engine.r_instr,
        verdict_shape r.Engine.verdict ))
    results

let engine_tests =
  [
    t "engine -j1 and -j4 agree verdict-for-verdict, in order" (fun () ->
        let d = design "AXI Slave" in
        let r1, s1 = Engine.run ~jobs:1 (jobs_of d) in
        let r4, s4 = Engine.run ~jobs:4 (jobs_of d) in
        Alcotest.(check bool)
          "same verdict sequence" true
          (summary_verdicts r1 = summary_verdicts r4);
        Alcotest.(check int) "all proved (seq)" s1.Engine.n_jobs s1.Engine.n_proved;
        Alcotest.(check int) "all proved (par)" s4.Engine.n_jobs s4.Engine.n_proved;
        Alcotest.(check int) "no errors" 0 s4.Engine.n_errors);
    t "warm cache run hits every obligation with zero SAT attempts"
      (fun () ->
        let d = design "AXI Slave" in
        let cache = Proof_cache.open_ ~dir:(fresh_dir ()) () in
        let cold_r, cold = Engine.run ~jobs:2 ~cache (jobs_of d) in
        Alcotest.(check int) "cold run misses" cold.Engine.n_jobs
          cold.Engine.cache_misses;
        let warm_r, warm = Engine.run ~jobs:2 ~cache (jobs_of d) in
        Alcotest.(check int) "warm run all hits" warm.Engine.n_jobs
          warm.Engine.cache_hits;
        Alcotest.(check int) "zero fresh SAT attempts" 0
          warm.Engine.fresh_sat_attempts;
        Alcotest.(check bool)
          "verdicts unchanged" true
          (summary_verdicts cold_r = summary_verdicts warm_r);
        ignore (Proof_cache.clear cache));
    t "report_of reproduces the sequential verifier's verdicts" (fun () ->
        let d = design "AXI Slave" in
        let results, _ = Engine.run ~jobs:2 (jobs_of d) in
        let report = Engine.report_of ~name:d.Design.name ~results in
        let reference = Design.verify d in
        Alcotest.(check bool) "proved" true (Verify.proved report);
        let shape (r : Verify.report) =
          List.map
            (fun (p : Verify.port_report) ->
              ( p.Verify.port_name,
                List.map
                  (fun (ir : Verify.instr_result) -> ir.Verify.instr)
                  p.Verify.instr_results ))
            r.Verify.ports
        in
        Alcotest.(check bool)
          "same port/instruction structure" true
          (shape report = shape reference));
  ]

(* ------------------------------------------------------------------ *)
(* Incremental mode                                                    *)
(* ------------------------------------------------------------------ *)

let count_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i acc =
    if i + nn > nh then acc
    else if String.sub hay i nn = needle then go (i + nn) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let incremental_tests =
  [
    t "engine and fresh reference path agree verdict-for-verdict" (fun () ->
        let d = design "AXI Slave" in
        let ri, si = Engine.run ~jobs:1 (jobs_of d) in
        let reference =
          Design.verify ~incremental:false ~stop_at_first_failure:false d
        in
        let fresh =
          List.concat_map
            (fun (p : Verify.port_report) -> p.Verify.instr_results)
            reference.Verify.ports
        in
        Alcotest.(check (list (pair string string)))
          "same verdicts, same order"
          (List.map
             (fun (ir : Verify.instr_result) ->
               (ir.Verify.instr, verdict_shape ir.Verify.verdict))
             fresh)
          (List.map
             (fun (r : Engine.result) ->
               (r.Engine.r_instr, verdict_shape r.Engine.verdict))
             ri);
        Alcotest.(check int) "all proved" si.Engine.n_jobs si.Engine.n_proved);
    t "engine backends carry the rungs of Verify.run" (fun () ->
        let d = Option.get (Catalog.find "Store Buffer (16 entries)") in
        let cache = Proof_cache.open_ ~dir:(fresh_dir ()) () in
        let cold, _ = Engine.run ~jobs:1 ~cache (jobs_of d) in
        let reference = Design.verify ~stop_at_first_failure:false d in
        Alcotest.(check (list (pair string string)))
          "same rung per obligation"
          (List.concat_map
             (fun (p : Verify.port_report) ->
               List.map
                 (fun (ir : Verify.instr_result) ->
                   (ir.Verify.instr, ir.Verify.rung))
                 p.Verify.instr_results)
             reference.Verify.ports)
          (List.map
             (fun (r : Engine.result) -> (r.Engine.r_instr, r.Engine.backend))
             cold);
        let warm, _ = Engine.run ~jobs:1 ~cache (jobs_of d) in
        List.iter
          (fun (r : Engine.result) ->
            Alcotest.(check string) r.Engine.r_instr "cache" r.Engine.backend)
          warm;
        ignore (Proof_cache.clear cache));
    t "persistent workers: a 2-worker sweep forks at most 2 processes"
      (fun () ->
        (* The whole point of per-port shared solving is that workers
           persist: one fork per worker, jobs streamed against the
           shared context — not one fork per job.  Count the pool's
           spawn events through the trace sink. *)
        let d1 = design "AXI Slave" and d2 = design "Mem. Interface" in
        let j1 = jobs_of d1 in
        let sweep =
          j1
          @ Engine.jobs_of ~first_id:(List.length j1)
              ~name:d2.Design.name d2.Design.module_ila d2.Design.rtl
              ~refmap_for:(fun port ->
                d2.Design.refmap_for d2.Design.rtl port)
              ()
        in
        let trace =
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "ilv-test-spawns-%d.jsonl" (Unix.getpid ()))
        in
        (try Sys.remove trace with Sys_error _ -> ());
        Ilv_obs.Obs.configure ~trace_out:trace ();
        let _, s = Engine.run ~jobs:2 sweep in
        Ilv_obs.Obs.shutdown ();
        let ic = open_in trace in
        let n = in_channel_length ic in
        let body = really_input_string ic n in
        close_in ic;
        (try Sys.remove trace with Sys_error _ -> ());
        let spawns = count_substring body "\"name\":\"pool.spawn\"" in
        Alcotest.(check int) "all proved" s.Engine.n_jobs s.Engine.n_proved;
        Alcotest.(check bool)
          "enough jobs for the bound to bite" true
          (s.Engine.n_jobs > 2);
        Alcotest.(check bool)
          (Printf.sprintf "%d spawns for %d jobs" spawns s.Engine.n_jobs)
          true
          (spawns >= 1 && spawns <= 2));
    t "abstract and concrete cache entries never alias (regression)"
      (fun () ->
        (* Abstract keys carry a mode tag: a verdict established on the
           window encoding must never serve the concrete encoding's
           lookup, nor the other way round.  Both directions must miss,
           and each encoding warm-hits its own entries. *)
        let d = Option.get (Catalog.find "Store Buffer (16 entries)") in
        let cache = Proof_cache.open_ ~dir:(fresh_dir ()) () in
        let run memory_abstraction =
          Engine.run ~jobs:1 ~cache ~memory_abstraction (jobs_of d)
        in
        let rc, sc = run false in
        Alcotest.(check int) "concrete cold run misses all" sc.Engine.n_jobs
          sc.Engine.cache_misses;
        let ra, sa = run true in
        Alcotest.(check int) "abstract run sees no concrete entry" 0
          sa.Engine.cache_hits;
        let _, sc2 = run false in
        let _, sa2 = run true in
        Alcotest.(check int) "concrete warm run all hits" sc2.Engine.n_jobs
          sc2.Engine.cache_hits;
        Alcotest.(check int) "abstract warm run all hits" sa2.Engine.n_jobs
          sa2.Engine.cache_hits;
        Alcotest.(check bool)
          "encodings agree on verdicts" true
          (summary_verdicts rc = summary_verdicts ra);
        ignore (Proof_cache.clear cache));
  ]

let suite =
  [
    ("engine.cache-key", key_tests);
    ("engine.proof-cache", cache_tests);
    ("engine.pool", pool_tests);
    ("engine.run", engine_tests);
    ("engine.incremental", incremental_tests);
  ]
