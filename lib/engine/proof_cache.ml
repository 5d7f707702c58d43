open Ilv_core

(* /5: keys (and the version) grew an encoding-mode tag ("abstract"
   for the memory-abstraction rewrite, untagged for concrete), so a
   verdict established through the CEGAR window encoding can never
   alias a concrete entry even if their clause sets coincide.  /4: the
   entry file format grew a per-entry checksum (file format /2), so a
   torn or bit-rotted entry is detected on read instead of trusted.
   /3 keys were mode-tagged ("F;" for fresh per-property CNFs, "I;"
   for shared-frame incremental queries), so an incremental run and a
   non-incremental run can never alias each other's entries even when
   their clause sets coincide.  Version bumps make older entries stale
   rather than silently unreachable. *)
let version = "ilaverif-engine/5"
let magic = "ilaverif-proof-cache/2\n"

(* the pre-checksum file format: well-formed entries in it are an
   expected leftover of an upgrade, not damage *)
let old_magic = "ilaverif-proof-cache/1\n"

type t = { cache_dir : string }

let default_dir () =
  match Sys.getenv_opt "ILAVERIF_CACHE_DIR" with
  | Some d when d <> "" -> d
  | _ -> (
    match Sys.getenv_opt "XDG_CACHE_HOME" with
    | Some d when d <> "" -> Filename.concat d "ilaverif"
    | _ -> (
      match Sys.getenv_opt "HOME" with
      | Some d when d <> "" ->
        Filename.concat (Filename.concat d ".cache") "ilaverif"
      | _ -> "_ilaverif_cache"))

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Entries are sharded into 256 subdirectories by the first two hex
   characters of the key ([<dir>/ab/<key>.proof]).  Sharding keeps any
   single directory small, and — more importantly — gives each shard
   its own advisory lock file, so concurrent writers only contend when
   they race keys in the same 1/256th of the key space instead of
   serializing the whole cache behind one global lock. *)
let is_hex c = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')

let shard_of key =
  if String.length key >= 2 && is_hex key.[0] && is_hex key.[1] then
    String.sub key 0 2
  else "xx" (* defensive: keys are hex digests, but never crash on one
               that is not *)

let is_shard_name f =
  f = "xx" || (String.length f = 2 && is_hex f.[0] && is_hex f.[1])

let shard_dirs cache_dir =
  match Sys.readdir cache_dir with
  | exception Sys_error _ -> []
  | files ->
    Array.to_list files
    |> List.filter (fun f ->
           is_shard_name f
           && try Sys.is_directory (Filename.concat cache_dir f)
              with Sys_error _ -> false)
    |> List.sort compare
    |> List.map (Filename.concat cache_dir)

(* Startup recovery, part 1: a [.tmp-<pid>-<key>] file whose writer is
   no longer alive is a torn write from a crashed process — it never
   made it through the rename, so it holds no information worth
   keeping.  Live writers' temp files are left strictly alone. *)
let sweep_dead_tmp_in dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | files ->
    Array.iter
      (fun f ->
        if String.length f > 5 && String.sub f 0 5 = ".tmp-" then begin
          let rest = String.sub f 5 (String.length f - 5) in
          let pid =
            match String.index_opt rest '-' with
            | Some i -> int_of_string_opt (String.sub rest 0 i)
            | None -> None
          in
          let writer_dead =
            match pid with
            | None -> true (* malformed name: nobody owns it *)
            | Some p -> (
              match Unix.kill p 0 with
              | () -> false
              | exception Unix.Unix_error (Unix.ESRCH, _, _) -> true
              | exception Unix.Unix_error _ -> false)
          in
          if writer_dead then
            try Sys.remove (Filename.concat dir f) with Sys_error _ -> ()
        end)
      files

let sweep_dead_tmp cache_dir =
  List.iter sweep_dead_tmp_in (shard_dirs cache_dir)

let open_ ?dir () =
  let cache_dir = match dir with Some d -> d | None -> default_dir () in
  mkdir_p cache_dir;
  sweep_dead_tmp cache_dir;
  { cache_dir }

let dir t = t.cache_dir
let quarantine_dir t = Filename.concat t.cache_dir "quarantine"

(* Quarantine, never delete: a corrupt entry is evidence (of a torn
   write, disk fault, or injected chaos) that an operator may want to
   inspect; moving it out of the key space is enough to stop it biasing
   lookups.  A rename within the same directory tree stays atomic. *)
let quarantine t path =
  mkdir_p (quarantine_dir t);
  let dest = Filename.concat (quarantine_dir t) (Filename.basename path) in
  match Sys.rename path dest with
  | () ->
    if Ilv_obs.Obs.enabled () then begin
      Ilv_obs.Obs.count "cache.quarantined" 1;
      Ilv_obs.Obs.event "cache.quarantine"
        [ ("file", Ilv_obs.Obs.S (Filename.basename path)) ]
    end;
    true
  | exception Sys_error _ -> false

let quarantined_count t =
  match Sys.readdir (quarantine_dir t) with
  | exception Sys_error _ -> 0
  | files -> Array.length files

(* Concurrent writers to the same shard serialize on that shard's
   advisory lock file.  Acquisition is *bounded*: [F_TLOCK] with a few
   jittered retries, never [F_LOCK] — an unbounded blocking lock lets a
   stalled or crashed-while-locked writer (or a lock file on a broken
   network filesystem) wedge every later store, turning an accelerator
   into a liveness hazard.  On sustained contention the writer proceeds
   WITHOUT the lock: the write stays atomic either way (temp file +
   rename), the lock only closes the benign window where two writers
   race the same key with different temp files and one rename wins. *)
let lock_attempts = 5

(* Pure, like [Pool.backoff_delay]: capped exponential base with
   deterministic jitter derived from [(key, attempt)], so the retry
   schedule is reproducible and two writers racing the same shard are
   still unlikely to retry in lock-step. *)
let lock_retry_delay ~key ~attempt =
  let base = Float.min (0.001 *. (2.0 ** float_of_int (attempt - 1))) 0.016 in
  let d = Digest.string (Printf.sprintf "cache-lock:%s:%d" key attempt) in
  let jitter = float_of_int (Char.code d.[0]) /. 255.0 *. 0.5 in
  base *. (1.0 +. jitter)

let with_lock t ~key f =
  let shard = Filename.concat t.cache_dir (shard_of key) in
  mkdir_p shard;
  let lock_path = Filename.concat shard ".lock" in
  match Unix.openfile lock_path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 with
  | exception Unix.Unix_error _ -> f ()
  | fd ->
    let rec acquire attempt =
      match Unix.lockf fd Unix.F_TLOCK 0 with
      | () -> true
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EACCES), _, _) ->
        if attempt >= lock_attempts then false
        else begin
          Unix.sleepf (lock_retry_delay ~key ~attempt);
          acquire (attempt + 1)
        end
      | exception Unix.Unix_error _ ->
        (* no lockf support here: fall through lock-free *)
        false
    in
    let locked = acquire 1 in
    if (not locked) && Ilv_obs.Obs.enabled () then begin
      Ilv_obs.Obs.count "cache.lock_contended" 1;
      Ilv_obs.Obs.event "cache.lock_contended"
        [ ("key", Ilv_obs.Obs.S key) ]
    end;
    Fun.protect
      ~finally:(fun () ->
        (try if locked then Unix.lockf fd Unix.F_ULOCK 0
         with Unix.Unix_error _ -> ());
        try Unix.close fd with Unix.Unix_error _ -> ())
      f

type entry = {
  key : string;
  engine_version : string;
  design : string;
  instr : string;
  verdict : Checker.verdict;
  stats : Checker.stats;
  cnf : int * int list list;
  hyps : int list list;
  created_s : float;
}

(* ---- keys ---- *)

let canonical_cnf (n_vars, clauses) =
  let clauses = List.map (List.sort_uniq compare) clauses in
  (n_vars, List.sort compare clauses)

(* Selector literal lists get the same treatment as clauses: literals
   sort_uniq'd within each list, lists sorted overall.  An obligation
   set that merely arrives reordered (or with a duplicated selector)
   therefore hashes to the same key instead of missing the cache. *)
let canonical_hyps hyps =
  List.sort compare (List.map (List.sort_uniq compare) hyps)

let add_lit_lists b lists =
  List.iter
    (fun lits ->
      Buffer.add_char b ';';
      List.iter
        (fun lit ->
          Buffer.add_string b (string_of_int lit);
          Buffer.add_char b ',')
        lits)
    lists

(* The optional [mode] tag segregates encodings of the same obligation:
   a verdict reached through the memory-abstraction rewrite is stored
   under a different key than the concrete bit-blast, even though both
   are sound for the same property. *)
let add_mode b = function
  | None -> ()
  | Some m ->
    Buffer.add_string b "M";
    Buffer.add_string b m;
    Buffer.add_char b ';'

(* Shared-frame keys: the frame — one CNF for all of a port's
   obligations — is digested once per port, and each property's key
   combines that digest with its canonical activation selectors.  The
   "I;" tag keeps these disjoint from the per-property "F;" keys that
   the removed fresh-solver engine mode wrote. *)
let frame_digest (n_vars, clauses) =
  let n_vars, clauses = canonical_cnf (n_vars, clauses) in
  let b = Buffer.create 65536 in
  Buffer.add_string b "v";
  Buffer.add_string b (string_of_int n_vars);
  add_lit_lists b clauses;
  Digest.to_hex (Digest.string (Buffer.contents b))

let key_of_shared ?mode ~frame ~selectors () =
  let b = Buffer.create 4096 in
  Buffer.add_string b "I;";
  add_mode b mode;
  Buffer.add_string b frame;
  Buffer.add_string b "#S";
  add_lit_lists b (canonical_hyps selectors);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ---- entry files ---- *)

let entry_suffix = ".proof"

let file_of t key =
  Filename.concat
    (Filename.concat t.cache_dir (shard_of key))
    (key ^ entry_suffix)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* A non-entry splits two ways: [Stale] is a well-formed entry written
   by a foreign engine version (expected after an upgrade, harmless),
   [Corrupt] is anything unreadable — truncation, garbage, a digest
   filed under the wrong name, or an [Unknown] verdict that should
   never have been stored.  Both are misses on lookup, but [stats] and
   [validate] report them separately. *)
type loaded = Entry of entry | Stale of string | Corrupt

(* Entry file layout (format /2):
     magic ^ md5hex(payload) ^ "\n" ^ payload
   where payload is the marshalled entry.  The checksum is verified on
   every read, so truncation and bit-rot — not just unparseable bytes —
   are caught before [Marshal] ever sees the payload. *)
let checksum_hex_len = 32

let load_entry path key =
  match read_file path with
  | exception _ -> Corrupt
  | raw ->
    let mlen = String.length magic in
    let omlen = String.length old_magic in
    if String.length raw >= omlen && String.sub raw 0 omlen = old_magic then
      Stale "pre-checksum file format (ilaverif-proof-cache/1)"
    else if
      String.length raw <= mlen + checksum_hex_len + 1
      || String.sub raw 0 mlen <> magic
    then Corrupt
    else begin
      let sum = String.sub raw mlen checksum_hex_len in
      let body_ofs = mlen + checksum_hex_len + 1 in
      let payload =
        String.sub raw body_ofs (String.length raw - body_ofs)
      in
      if
        raw.[mlen + checksum_hex_len] <> '\n'
        || Digest.to_hex (Digest.string payload) <> sum
      then Corrupt
      else begin
        match (Marshal.from_string payload 0 : entry) with
        | exception _ -> Corrupt
        | e ->
          if e.engine_version <> version then Stale e.engine_version
          else if key <> "" && e.key <> key then Corrupt
          else (
            match e.verdict with
            | Checker.Proved | Checker.Failed _ -> Entry e
            | Checker.Unknown _ -> Corrupt)
      end
    end

let lookup t key =
  let try_path path =
    if not (Sys.file_exists path) then None
    else
      match load_entry path key with
      | Entry e -> Some e
      | Stale _ -> None
      | Corrupt ->
        (* quarantine on first contact: the miss re-solves and re-stores
           the entry, and the damaged file keeps no seat in the key
           space *)
        ignore (quarantine t path);
        None
  in
  let found = try_path (file_of t key) in
  if Ilv_obs.Obs.enabled () then begin
    let open Ilv_obs.Obs in
    match found with
    | Some e ->
      count "cache.hits" 1;
      event "cache.hit"
        [ ("key", S key); ("design", S e.design); ("instr", S e.instr) ]
    | None ->
      count "cache.misses" 1;
      event "cache.miss" [ ("key", S key) ]
  end;
  found

let store t entry =
  match entry.verdict with
  | Checker.Unknown _ -> ()
  | Checker.Proved | Checker.Failed _ -> (
    if Ilv_obs.Obs.enabled () then begin
      let open Ilv_obs.Obs in
      count "cache.stores" 1;
      event "cache.store"
        [
          ("key", S entry.key);
          ("design", S entry.design);
          ("instr", S entry.instr);
        ]
    end;
    let payload = Marshal.to_string entry [] in
    let content =
      magic ^ Digest.to_hex (Digest.string payload) ^ "\n" ^ payload
    in
    let shard = Filename.concat t.cache_dir (shard_of entry.key) in
    let tmp =
      Filename.concat shard
        (Printf.sprintf ".tmp-%d-%s" (Unix.getpid ()) entry.key)
    in
    try
      (* with_lock creates the shard directory, so [tmp]'s parent
         exists by the time the body runs; temp and final name share a
         directory, keeping the rename atomic *)
      with_lock t ~key:entry.key (fun () ->
          let oc = open_out_bin tmp in
          output_string oc content;
          close_out oc;
          Sys.rename tmp (file_of t entry.key))
    with _ -> ( try Sys.remove tmp with _ -> ()))

(* ---- maintenance ---- *)

let entry_files_in dir =
  match Sys.readdir dir with
  | exception _ -> []
  | files ->
    Array.to_list files
    |> List.filter (fun f -> Filename.check_suffix f entry_suffix)
    |> List.sort compare
    |> List.map (Filename.concat dir)

(* Only shard directories hold entries; the quarantine directory is not
   a shard and is never walked. *)
let entry_files t = List.concat_map entry_files_in (shard_dirs t.cache_dir)

type cache_stats = {
  entries : int;
  bytes : int;
  proved : int;
  failed : int;
  stale : int;
  corrupt : int;
  quarantined : int;
}

let stats t =
  List.fold_left
    (fun acc path ->
      let bytes =
        acc.bytes + (try (Unix.stat path).Unix.st_size with _ -> 0)
      in
      match load_entry path "" with
      | Corrupt -> { acc with bytes; corrupt = acc.corrupt + 1 }
      | Stale _ -> { acc with bytes; stale = acc.stale + 1 }
      | Entry e ->
        {
          acc with
          bytes;
          entries = acc.entries + 1;
          proved =
            (acc.proved
            + match e.verdict with Checker.Proved -> 1 | _ -> 0);
          failed =
            (acc.failed
            + match e.verdict with Checker.Failed _ -> 1 | _ -> 0);
        })
    {
      entries = 0;
      bytes = 0;
      proved = 0;
      failed = 0;
      stale = 0;
      corrupt = 0;
      quarantined = quarantined_count t;
    }
    (entry_files t)

(* Startup recovery, part 2: sweep every entry file and quarantine the
   unreadable ones.  Returns how many were quarantined.  [open_] keeps
   its O(directory) cost by not calling this — a corrupt entry is also
   quarantined lazily the first time a lookup touches it; this full
   sweep is for the CLI and the chaos harness, which must assert that
   zero corrupt entries remain in the key space. *)
let recover t =
  List.fold_left
    (fun n path ->
      match load_entry path "" with
      | Entry _ | Stale _ -> n
      | Corrupt -> if quarantine t path then n + 1 else n)
    0 (entry_files t)

let clear t =
  List.fold_left
    (fun n path -> try Sys.remove path; n + 1 with _ -> n)
    0 (entry_files t)

type validation = {
  checked : int;
  agreed : int;
  mismatched : string list;
  stale_entries : string list;
  corrupt_entries : string list;
}

(* Re-solve one stored entry from its canonicalized CNF with a fresh
   solver: Proved iff every obligation's query is UNSAT. *)
let resolve_entry (e : entry) =
  let n_vars, clauses = e.cnf in
  let s = Ilv_sat.Sat.create () in
  for _ = 1 to n_vars do
    ignore (Ilv_sat.Sat.new_var s)
  done;
  List.iter (Ilv_sat.Sat.add_clause s) clauses;
  let all_unsat =
    List.for_all
      (fun assumptions ->
        match Ilv_sat.Sat.solve ~assumptions s with
        | Ilv_sat.Sat.Unsat -> true
        | Ilv_sat.Sat.Sat -> false)
      e.hyps
  in
  match e.verdict with
  | Checker.Proved -> all_unsat
  | Checker.Failed _ -> not all_unsat
  | Checker.Unknown _ -> false

(* Sample evenly across the whole (sorted) entry listing instead of
   taking the lexicographically-first [sample]: a rotted entry whose
   digest happens to sort late must still have a chance of being
   re-solved.  The stride always includes the first and last file. *)
let stride_sample sample files =
  let files = Array.of_list files in
  let len = Array.length files in
  if sample >= len then Array.to_list files
  else if sample <= 1 then (if len = 0 then [] else [ files.(0) ])
  else
    List.sort_uniq compare
      (List.init sample (fun i -> i * (len - 1) / (sample - 1)))
    |> List.map (fun i -> files.(i))

let validate ?(sample = 5) ?(full = false) t =
  let files =
    let all = entry_files t in
    if full then all else stride_sample sample all
  in
  List.fold_left
    (fun acc path ->
      match load_entry path "" with
      | Corrupt ->
        (* out of the key space, kept as evidence — validation reports,
           it never errors mid-sweep *)
        ignore (quarantine t path);
        {
          acc with
          corrupt_entries = Filename.basename path :: acc.corrupt_entries;
        }
      | Stale _ ->
        {
          acc with
          stale_entries = Filename.basename path :: acc.stale_entries;
        }
      | Entry e ->
        let ok = try resolve_entry e with _ -> false in
        if not ok then
          (* a rotted entry that still parses is the worst kind: its
             verdict is a lie.  Quarantine it like any other damage. *)
          ignore (quarantine t path);
        {
          acc with
          checked = acc.checked + 1;
          agreed = (acc.agreed + if ok then 1 else 0);
          mismatched = (if ok then acc.mismatched else e.key :: acc.mismatched);
        })
    {
      checked = 0;
      agreed = 0;
      mismatched = [];
      stale_entries = [];
      corrupt_entries = [];
    }
    files

let pp_stats fmt s =
  Format.fprintf fmt
    "%d entries (%d proved, %d failed), %d stale (other engine version), %d \
     corrupt, %d quarantined, %.1f KiB"
    s.entries s.proved s.failed s.stale s.corrupt s.quarantined
    (float_of_int s.bytes /. 1024.0)
