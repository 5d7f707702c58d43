(* daemon: the same pipeline behind `ilaverifd`, used the way a resident
   session is used: many repeated and overlapping requests against
   resident state.

   Before the closed loop:
   - the oracle: every (design, variant) verified in-process, in a
     fresh child, with the daemon's effective configuration (memory
     abstraction `auto`, no early stop);
   - the cold sweep, [cold_sweeps] times: a fresh daemon on an empty
     on-disk proof cache answers one pass over every (design, variant),
     solving all of it; the last one leaves the cache filled;
   - the restart (the timed set-up), [restarts] times: a fresh daemon
     on the filled cache answers that pass again (frames are prepared,
     verdicts come from disk).  The last daemon stays up for the closed
     loop.

   The closed loop: one process, 2 connections, each keeping
   [depth] requests in flight and sending the next one as each reply
   arrives.  Each connection draws its requests from its own seeded
   stream (see [draw]).  The daemon is single-threaded and answers in
   order, so a `mutate` makes every request queued behind it wait; the
   latencies show that wait. *)

open Ilv_core
open Ilv_designs
module Json = Ilv_obs.Json
module Protocol = Ilv_server.Protocol
module Client = Ilv_server.Client

(* paths are relative: the benchmark runs from the repository root, and
   a socket path must stay short *)
let work_dir = Filename.concat "perfbench" "_work"
let socket = Filename.concat work_dir "d.sock"
let cache_dir = Filename.concat work_dir "cache"
let restage_dir = Filename.concat work_dir "restage"
let cold_sweeps = 3
let restarts = 5
let connections = 2

(* Requests in flight per connection.  With one, the daemon goes idle
   between a reply and the next request, and a round trip then costs two
   wake-ups of an idle CPU: on a shared host that wake-up, not the
   daemon, set the throughput, which rose by a fifth when a busy loop
   merely kept the CPUs awake.  With two, the daemon always has the
   other connection's next request or this one's queued, so throughput
   is the daemon's own rate of answering. *)
let depth = 2

type variant = { design : Design.t; bug : string option }

let variants =
  List.concat_map
    (fun (d : Design.t) ->
      { design = d; bug = None }
      :: List.map
           (fun (b : Design.bug) -> { design = d; bug = Some b.Design.bug_label })
           d.Design.bugs)
    Catalog.all

let rtl_of v =
  match v.bug with
  | None -> v.design.Design.rtl
  | Some b -> (Bughunt.bug_of v.design b).Design.buggy_rtl

let variant_name v =
  v.design.Design.name ^ match v.bug with Some b -> "#" ^ b | None -> ""

let verdict_string = function
  | Checker.Proved -> "proved"
  | Checker.Failed _ -> "failed"
  | Checker.Unknown _ -> "unknown"

(* per (design, variant): its (port, instr, verdict) triples, sorted —
   what a verify reply must equal *)
let oracle () =
  List.map
    (fun v ->
      let d = v.design in
      let r =
        match v.bug with
        | None ->
          Design.verify ~stop_at_first_failure:false ~memory_abstraction:true d
        | Some b ->
          Design.verify_buggy ~stop_at_first_failure:false
            ~memory_abstraction:true d (Bughunt.bug_of d b)
      in
      ( variant_name v,
        List.sort compare
          (List.concat_map
             (fun (p : Verify.port_report) ->
               List.map
                 (fun (ir : Verify.instr_result) ->
                   ( ir.Verify.port,
                     ir.Verify.instr,
                     verdict_string ir.Verify.verdict ))
                 p.Verify.instr_results)
             r.Verify.ports) ))
    variants

(* ---- requests ---- *)

type request =
  | Verify of variant * string list option  (* ports subset *)
  | Table
  | Mutate of string * int  (* design, seed *)
  | Ping
  | Stats

let kind = function
  | Verify (_, None) -> "verify"
  | Verify (_, Some _) -> "verify-ports"
  | Table -> "table"
  | Mutate _ -> "mutate"
  | Ping -> "ping"
  | Stats -> "stats"

let mutate_designs = [ "Clock Gen" ]
let mutate_mutants = 3

let to_json req =
  let op o fields = Json.Obj (("op", Json.String o) :: fields) in
  match req with
  | Verify (v, ports) ->
    op "verify"
      ([ ("design", Json.String v.design.Design.name) ]
      @ (match v.bug with Some b -> [ ("bug", Json.String b) ] | None -> [])
      @
      match ports with
      | Some ps -> [ ("ports", Json.List (List.map (fun p -> Json.String p) ps)) ]
      | None -> [])
  | Table ->
    op "table"
      [
        ( "designs",
          Json.List
            (List.map
               (fun (d : Design.t) -> Json.String d.Design.name)
               Catalog.all) );
      ]
  | Mutate (d, seed) ->
    op "mutate"
      [
        ("design", Json.String d);
        ("seed", Json.Int seed);
        ("max_mutants", Json.Int mutate_mutants);
      ]
  | Ping -> op "ping" []
  | Stats -> op "stats" []

let golden = List.filter (fun v -> v.bug = None) variants
let buggy = List.filter (fun v -> v.bug <> None) variants

let multi_port =
  List.filter
    (fun v -> List.length v.design.Design.module_ila.Module_ila.ports > 1)
    golden

let pick rng xs = List.nth xs (Random.State.int rng (List.length xs))

(* The request mix, per connection: mostly full verifies of the golden
   catalog, some buggy variants and port subsets, some whole-catalog
   tables, a few small mutation campaigns with fresh seeds (new work)
   and a few ping/stats probes.  The weights are an assumption: no
   recorded daemon traffic exists to take them from.  Each run reports
   every kind's measured share of the requests and of the server time
   (see [shares]), so it shows which kind drives which metric. *)
let draw rng =
  let x = Random.State.int rng 100 in
  if x < 55 then Verify (pick rng golden, None)
  else if x < 68 then Verify (pick rng buggy, None)
  else if x < 80 then begin
    let v = pick rng multi_port in
    let ports =
      List.map
        (fun (p : Ila.t) -> p.Ila.name)
        v.design.Design.module_ila.Module_ila.ports
    in
    Verify (v, Some [ pick rng ports ])
  end
  else if x < 88 then Table
  else if x < 92 then Mutate (pick rng mutate_designs, Random.State.bits rng)
  else if x < 96 then Ping
  else Stats

let kinds = Layers.request_kinds

(* ---- checking replies ---- *)

let member_path path j =
  List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) path

let int_at path j = Option.bind (member_path path j) Json.to_int
let float_at path j = Option.bind (member_path path j) Json.to_float

let reply_verdicts reply =
  match Json.member "results" reply with
  | Some (Json.List rows) ->
    Some
      (List.sort compare
         (List.filter_map
            (fun row ->
              match
                ( Protocol.str_member "port" row,
                  Protocol.str_member "instr" row,
                  Protocol.str_member "verdict" row )
              with
              | Some p, Some i, Some v -> Some (p, i, v)
              | _ -> None)
            rows))
  | _ -> None

let count_verdict want vs = List.length (List.filter (fun (_, _, v) -> v = want) vs)

(* [Some error] when the reply is wrong; the server-side seconds the
   reply reports otherwise *)
let check oracle req reply =
  let expected v = List.assoc (variant_name v) oracle in
  if not (Client.ok reply) then Error ("error reply: " ^ Client.error_of reply)
  else
    match req with
    | Verify (v, ports) ->
      let want =
        match ports with
        | None -> expected v
        | Some ps -> List.filter (fun (p, _, _) -> List.mem p ps) (expected v)
      in
      if reply_verdicts reply = Some want then
        Ok (Option.value (float_at [ "summary"; "time_s" ] reply) ~default:0.0)
      else Error (variant_name v ^ ": verdicts differ from the in-process run")
    | Table -> (
      match Json.member "rows" reply with
      | Some (Json.List rows) when List.length rows = List.length Catalog.all ->
        List.fold_left
          (fun acc row ->
            match (acc, Protocol.str_member "design" row) with
            | Error _, _ -> acc
            | Ok s, Some name -> (
              let want = List.assoc name oracle in
              let n k = int_at [ "summary"; k ] row in
              match
                ( n "n_proved", n "n_failed", n "n_unknown",
                  float_at [ "summary"; "time_s" ] row )
              with
              | Some p, Some f, Some u, Some t
                when p = count_verdict "proved" want
                     && f = count_verdict "failed" want
                     && u = count_verdict "unknown" want ->
                Ok (s +. t)
              | _ ->
                Error ("table row " ^ name ^ " differs from the in-process run"))
            | Ok _, None -> Error "table row without design")
          (Ok 0.0) rows
      | _ -> Error "table reply without one row per design")
    | Mutate _ -> (
      match
        ( int_at [ "n_mutants" ] reply,
          int_at [ "killed" ] reply,
          int_at [ "survived" ] reply,
          int_at [ "inconclusive" ] reply )
      with
      | Some n, Some k, Some s, Some 0 when n > 0 && k + s = n ->
        Ok (Option.value (float_at [ "time_s" ] reply) ~default:0.0)
      | _ -> Error "mutate reply incomplete or inconclusive")
    | Ping | Stats -> Ok 0.0

(* ---- the daemon process ---- *)

type daemon_exit = {
  counters : (string * int) list;
  heap_mb : float;
  allocated_mb : float;
  major_collections : int;
}

let rec wait_up n =
  if Client.ping socket then ()
  else if n = 0 then failwith "daemon did not come up"
  else begin
    Unix.sleepf 0.002;
    wait_up (n - 1)
  end

(* daemons still running, killed if the run is abandoned *)
let live : int list ref = ref []

let kill_live () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Util.waitpid_noeintr pid))
    !live;
  live := []

let start ~traced =
  let child =
    Util.spawn (fun () ->
        if traced then Ilv_obs.Obs.configure ~metrics:true ();
        let cache = Ilv_engine.Proof_cache.open_ ~dir:cache_dir () in
        Ilv_server.Daemon.serve ~cache ~socket ();
        let g = Gc.quick_stat () in
        {
          counters = Ilv_obs.Obs.counters ();
          heap_mb =
            float_of_int (g.Gc.heap_words * (Sys.word_size / 8)) /. 1_048_576.0;
          allocated_mb = Gc.allocated_bytes () /. 1_048_576.0;
          major_collections = g.Gc.major_collections;
        })
  in
  live := child.Util.pid :: !live;
  wait_up 5000;
  child

(* the daemon's own counters (the `stats` op) *)
let stats () =
  match
    Client.with_connection socket (fun c -> Client.request c (to_json Stats))
  with
  | Ok reply -> fun k -> float_of_int (Option.value (int_at [ k ] reply) ~default:0)
  | Error e -> failwith ("stats: " ^ e)

let stop (child : _ Util.child) =
  ignore (Client.with_connection socket (fun c ->
       Client.request c (Json.Obj [ ("op", Json.String "stop") ])));
  live := List.filter (fun p -> p <> child.Util.pid) !live;
  Util.join child

(* One verify of every (design, variant), in order, on one connection;
   the wrong replies. *)
let first_pass oracle =
  match
    Client.with_connection socket (fun c ->
        Ok
          (List.filter_map
             (fun v ->
               let req = Verify (v, None) in
               match Client.request c (to_json req) with
               | Error e -> Some (variant_name v ^ ": " ^ e)
               | Ok reply -> (
                 match check oracle req reply with
                 | Ok _ -> None
                 | Error e -> Some e))
             variants))
  with
  | Ok errs -> errs
  | Error e -> [ "first pass: " ^ e ]

(* ---- the closed loop ---- *)

type sample = {
  req : request;
  rtt_s : float;
  server_s : float;
  at_s : float;  (* when the reply arrived, from the start of the loop *)
}

type conn = {
  fd : Unix.file_descr;
  rng : Random.State.t;
  inflight : (request * float) Queue.t;  (* oldest first: replies come in order *)
}

let connect () =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  fd

(* Returns the samples, the wrong replies, the requests sent, the loop's
   wall clock and the client's own time (from a reply to the next
   request: decoding, the oracle check, drawing the next request). *)
let closed_loop ~seed ~seconds oracle =
  let samples = ref [] and errors = ref [] and attempted = ref 0 in
  let client_s = ref 0.0 in
  let send c =
    let req = draw c.rng in
    incr attempted;
    Protocol.write_frame c.fd (Json.encode (to_json req));
    Queue.add (req, Util.now ()) c.inflight
  in
  let conns =
    List.init connections (fun i ->
        {
          fd = connect ();
          rng = Random.State.make [| seed; i |];
          inflight = Queue.create ();
        })
  in
  let t0 = Util.now () in
  let deadline = t0 +. seconds in
  List.iter (fun c -> for _ = 1 to depth do send c done) conns;
  let rec loop () =
    let busy = List.filter (fun c -> not (Queue.is_empty c.inflight)) conns in
    if busy <> [] then begin
      let readable = Ilv_engine.Pool.select_read (List.map (fun c -> c.fd) busy) in
      List.iter
        (fun c ->
          if List.memq c.fd readable then
            match Queue.take_opt c.inflight with
            | None -> ()
            | Some (req, sent) -> (
              match Protocol.read_frame c.fd with
              | Protocol.Frame s ->
                let received = Util.now () in
                let rtt_s = received -. sent in
                (match Result.bind (Json.parse s) (check oracle req) with
                | Ok server_s ->
                  samples :=
                    { req; rtt_s; server_s; at_s = received -. t0 } :: !samples
                | Error e -> errors := (kind req ^ ": " ^ e) :: !errors);
                if Util.now () < deadline then send c;
                client_s := !client_s +. (Util.now () -. received)
              | Protocol.Eof | Protocol.Oversized _ ->
                (* the stream is gone: every request still in flight on
                   it is lost too *)
                errors := (kind req ^ ": reply lost") :: !errors;
                Queue.iter
                  (fun (r, _) -> errors := (kind r ^ ": reply lost") :: !errors)
                  c.inflight;
                Queue.clear c.inflight))
        busy;
      loop ()
    end
  in
  loop ();
  let wall = Util.now () -. t0 in
  List.iter (fun c -> Unix.close c.fd) conns;
  (List.rev !samples, List.rev !errors, !attempted, wall, !client_s)

(* The loop's [seconds], cut into whole windows of about a second: the
   window length and the samples answered in each window, oldest first.
   Replies drained after the deadline fall in no window.  A median over
   windows is not moved by a pause of the host that spans a few of
   them, as a mean or a single tail percentile over the run is. *)
let windows ~seconds samples =
  let n = max 1 (int_of_float seconds) in
  let w = seconds /. float_of_int n in
  let buckets = Array.make n [] in
  List.iter
    (fun s ->
      let i = int_of_float (s.at_s /. w) in
      if i < n then buckets.(i) <- s :: buckets.(i))
    samples;
  (w, Array.to_list buckets)

(* Per request kind: its share of the requests answered and of the
   server time they reported. *)
let shares samples =
  let count xs = float_of_int (List.length xs) in
  let server xs = List.fold_left (fun a s -> a +. s.server_s) 0.0 xs in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  List.map
    (fun k ->
      let mine = List.filter (fun s -> kind s.req = k) samples in
      (k, ratio (count mine) (count samples), ratio (server mine) (server samples)))
    kinds

(* ---- traced restart: the cache layer, staged in-process ----

   What a restarted daemon does for each (design, variant, port) before
   it can answer from disk: generate, prepare, freeze, key and look up
   every obligation; each hit is then stored into a second, empty cache
   (the cold fill's store). *)
let staged_restart t =
  let module PC = Ilv_engine.Proof_cache in
  let cache = PC.open_ ~dir:cache_dir () in
  let restage = PC.open_ ~dir:restage_dir () in
  List.iter
    (fun v ->
      let d = v.design and rtl = rtl_of v in
      List.iter
        (fun (port : Ila.t) ->
          let refmap = d.Design.refmap_for rtl port.Ila.name in
          let pr =
            Layers.prepare_port t ~memory_abstraction:true ~name:(variant_name v)
              ~port ~rtl ~refmap
          in
          let sh = Verify.prepared_shared pr in
          let mode =
            Option.map (fun _ -> "abstract") (Verify.prepared_abstraction pr)
          in
          let frame =
            Layers.timed t "cache.key_s" (fun () ->
                PC.frame_digest (Checker.shared_cnf sh))
          in
          List.iter
            (fun instr ->
              match Verify.prepared_slot pr instr with
              | Error _ -> ()
              | Ok idx -> (
                let key =
                  Layers.timed t "cache.key_s" (fun () ->
                      PC.key_of_shared ?mode ~frame
                        ~selectors:(Checker.shared_frame_selectors sh idx) ())
                in
                Layers.add t "cache.lookups" 1.0;
                match
                  Layers.timed t "cache.lookup_s" (fun () -> PC.lookup cache key)
                with
                | Some e ->
                  Layers.add t "cache.hits" 1.0;
                  Layers.timed t "cache.store_s" (fun () -> PC.store restage e)
                | None -> ()))
            (Verify.prepared_instrs pr))
        d.Design.module_ila.Module_ila.ports)
    variants
