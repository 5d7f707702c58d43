(* Shared plumbing of the benchmark: clocks, order statistics, forked
   isolation, /proc readings and the result line. *)

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ---- order statistics ---- *)

(* Linear interpolation between closest ranks (the "type 7" estimator);
   [q] in [0, 1]. *)
let quantile q xs =
  match List.sort compare xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let h = q *. float_of_int (n - 1) in
    let lo = int_of_float h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs
let sum xs = List.fold_left ( +. ) 0.0 xs

let mean xs =
  match xs with [] -> nan | _ -> sum xs /. float_of_int (List.length xs)

(* The highest of the usual tail percentiles that still has at least
   ten samples beyond it, as a fraction ([None] below 20 samples). *)
let tail_percentile n =
  List.find_opt
    (fun q -> float_of_int n *. (1.0 -. q) >= 10.0)
    [ 0.999; 0.99; 0.95; 0.9; 0.75; 0.5 ]

(* ---- forked isolation ----

   [spawn f] runs [f] in a fresh fork; [join] returns its (marshalled,
   closure-free) result.  The child leaves through [Unix._exit], so no
   [at_exit] hook of the parent's libraries runs twice.  A child that
   raises or dies yields [Error]. *)
let rec waitpid_noeintr pid =
  try snd (Unix.waitpid [] pid)
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_noeintr pid

type 'a child = { pid : int; result : in_channel }

let spawn (f : unit -> 'a) : 'a child =
  flush stdout;
  flush stderr;
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let res : ('a, string) result =
      try Ok (f ()) with e -> Error (Printexc.to_string e)
    in
    let oc = Unix.out_channel_of_descr wr in
    (try
       Marshal.to_channel oc res [];
       close_out oc
     with _ -> ());
    Unix._exit 0
  | pid ->
    Unix.close wr;
    { pid; result = Unix.in_channel_of_descr rd }

(* Reads the child's result, then reaps it (in that order: a result
   larger than the pipe buffer would otherwise deadlock). *)
let join (c : 'a child) : ('a, string) result =
  let res =
    try (Marshal.from_channel c.result : ('a, string) result)
    with End_of_file | Failure _ -> Error "child produced no result"
  in
  close_in_noerr c.result;
  match waitpid_noeintr c.pid with
  | Unix.WEXITED 0 -> res
  | Unix.WEXITED n -> Error (Printf.sprintf "child exited %d" n)
  | Unix.WSIGNALED s | Unix.WSTOPPED s ->
    Error (Printf.sprintf "child killed by signal %d" s)

let in_child f = join (spawn f)

(* ---- /proc ---- *)

(* A "VmXXX:  1234 kB" field of /proc/<pid>/status, in MB. *)
let proc_status_mb ?(pid = "self") field =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | exception End_of_file -> failwith ("no " ^ field ^ " in status")
        | line -> (
          match String.index_opt line ':' with
          | Some i when String.sub line 0 i = field ->
            Scanf.sscanf
              (String.sub line (i + 1) (String.length line - i - 1))
              " %d kB"
              (fun kb -> float_of_int kb /. 1024.0)
          | _ -> go ())
      in
      go ())

let vm_hwm_mb ?pid () = proc_status_mb ?pid "VmHWM"
let vm_rss_mb ?pid () = proc_status_mb ?pid "VmRSS"

external children_maxrss_kb : unit -> int = "ilvbench_children_maxrss_kb"

(* The largest peak resident set of the descendants this process has
   reaped, in MB: a pool's forked workers do their work outside the
   process that reads its own VmHWM. *)
let children_hwm_mb () = float_of_int (children_maxrss_kb ()) /. 1024.0

(* ---- filesystem ---- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* ---- results ---- *)

type metric = {
  m_name : string;
  m_value : float;
  m_unit : string;
  m_samples : int option;  (* for statistics over samples *)
}

let metric ?n m_name m_unit m_value =
  { m_name; m_value; m_unit; m_samples = n }

(* The result line: one JSON object, last on stdout.  Values keep all
   their digits. *)
let result_line ~correct ~attempted ~failed metrics =
  let num v =
    if Float.is_finite v then Printf.sprintf "%.17g" v
    else failwith "non-finite metric value"
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.m_name
              (num m.m_value) m.m_unit)
          metrics))

(* Human-readable report lines, printed before the result line. *)
let report fmt = Printf.printf (fmt ^^ "\n%!")
