(** The verification orchestration engine.

    The paper's flow (Fig. 4) discharges one refinement obligation per
    (sub-)instruction, and those obligations are independent by
    construction.  This module turns a sweep — one design, a Table-I
    suite, a mutation campaign — into an explicit {e job list}, then
    discharges it on a {!Pool} of parallel worker processes.  Each
    worker prepares a port once ({!Ilv_core.Verify.prepare_port}) and
    checks the port's jobs against it through {!check_instr}, which
    consults the persistent {!Proof_cache} before any solving.

    Determinism: job ids follow {!Ilv_core.Verify.enumerate} order and
    results are returned sorted by id, so the verdicts and their order
    are identical for any worker count (times, of course, vary).
    Failure isolation: a job whose property generation or checking
    raises — or whose worker process dies — yields an ["engine:"]
    [Unknown] verdict for that job only; the sweep continues. *)

open Ilv_core

type job = {
  id : int;  (** position in the deterministic enumeration *)
  design : string;
  variant : string option;  (** bug label or mutant description, if any *)
  port : string;
  instr : string;
  prepare : memory_abstraction:bool -> Verify.prepared_port;
      (** prepares the job's whole port (property generation included);
          called inside the worker, once per port group *)
}

val jobs_of :
  ?variant:string ->
  ?only_ports:string list ->
  ?first_id:int ->
  name:string ->
  Module_ila.t ->
  Ilv_rtl.Rtl.t ->
  refmap_for:(string -> Refmap.t) ->
  unit ->
  job list
(** One job per leaf (sub-)instruction, in {!Verify.enumerate} order,
    ids starting at [first_id] (default 0) — pass a running offset to
    concatenate several designs into one sweep. *)

type result = {
  job_id : int;
  r_design : string;
  r_variant : string option;
  r_port : string;
  r_instr : string;
  verdict : Checker.verdict;
  stats : Checker.stats;
  time_s : float;  (** wall clock of the whole job, captured once *)
  backend : string;
      (** what produced the verdict: the rung of
          {!Ilv_core.Verify.check_port_instr} (["incremental"],
          ["fresh"], ["tightened"], ["degraded"], each possibly suffixed
          ["+abstract"] / ["+cegarN"], or ["abstract>concrete"]), or
          ["cache"], ["error"], ["poisoned"] (quarantined by pool
          supervision) *)
  cache_hit : bool;
}

type summary = {
  n_jobs : int;
  n_proved : int;
  n_failed : int;
  n_unknown : int;
  n_errors : int;  (** jobs that errored or whose worker crashed *)
  n_poisoned : int;
      (** jobs quarantined after killing two distinct workers *)
  n_degraded : int;
      (** jobs whose verdict came from a lower rung of the degradation
          ladder (fresh retry, tightened budget, final give-up) or from
          the abstraction's concrete fallback *)
  cache_hits : int;
  cache_misses : int;  (** jobs that went to a solver (cache enabled) *)
  fresh_sat_attempts : int;
      (** SAT queries issued by this run — cache hits contribute zero *)
  wall_s : float;
  jobs_used : int;
}

(** {1 Checking one obligation}

    The one key → lookup → solve → store step, shared by {!run}'s
    workers and the verification daemon. *)

type port
(** A prepared port together with its cache-key frame: the
    generation-0 shared context, pinned when the port is wrapped, so
    keys do not depend on how (or whether) CEGAR refined the window
    during a particular run. *)

val port_of : Verify.prepared_port -> port
(** Wrap a freshly prepared port (before any instruction is checked). *)

val prepared : port -> Verify.prepared_port

val obligation_key : port -> string -> string option
(** The proof-cache key of one instruction ({!Proof_cache.key_of_shared}
    over the generation-0 frame, tagged ["abstract"] under the memory
    abstraction), or [None] when its property failed to generate or
    encode.  Freezes the frame on first use. *)

type source =
  | Solved  (** decided by {!Ilv_core.Verify.check_port_instr} *)
  | Cache_hit  (** read from the proof cache *)
  | Memo_hit  (** read from the caller's in-memory memo *)

val check_instr :
  ?budget:Checker.budget ->
  ?cache:Proof_cache.t ->
  ?memo:(string, Checker.verdict * string) Hashtbl.t ->
  design:string ->
  port ->
  string ->
  Checker.verdict * Checker.stats * string * source
(** Decides one instruction of the port.  With [cache] or [memo], the
    obligation is keyed ({!obligation_key}; an instruction without a
    key skips both) and the memo, then the cache, are consulted
    first.  A miss is decided by
    {!Ilv_core.Verify.check_port_instr}, remembered in the memo, and
    stored in the cache unless the rung is ["abstract>concrete"] (that
    verdict has no abstract frame to re-validate against).  The string
    is the rung ({!result}[.backend]'s vocabulary); a cache hit reads
    ["cache"], a memo hit the rung it was remembered with.  Memo-hit
    stats are empty. *)

val run :
  ?jobs:int ->
  ?cache:Proof_cache.t ->
  ?budget:Checker.budget ->
  ?timeout_s:float ->
  ?memory_abstraction:bool ->
  job list ->
  result list * summary
(** Discharges every job.  [jobs] (default 1) is the worker count —
    [1] runs in-process with no fork.  Jobs are grouped by (design,
    variant, port); a worker takes a whole group, prepares the port
    once and checks the group's jobs back to back with {!check_instr},
    so learnt clauses transfer between a port's obligations.  Workers
    persist across groups (one fork per worker per sweep).  With
    [cache], every job first computes its proof-cache key; a hit skips
    solving entirely, a miss solves and stores any definitive verdict.
    [budget] bounds every SAT query as in {!Ilv_core.Checker.check}.

    [timeout_s] sets a wall-clock deadline per group (the clock starts
    when a worker picks the group up, preparation included).  When it
    passes, remaining obligations yield timestamped ["deadline: ..."]
    [Unknown] verdicts instead of hanging the pool.  Default:
    unlimited.

    [memory_abstraction] (default [true]) encodes memory-mentioning
    ports through the {!Ilv_core.Mem_abstract} CEGAR window rewrite
    instead of bit-blasting whole arrays, exactly as
    {!Ilv_core.Verify.run} does.  Verdicts are unchanged; cache keys
    gain an ["abstract"] mode tag so the two encodings never serve each
    other's entries. *)

val report_of : name:string -> results:result list -> Verify.report
(** Reassembles engine results (of one design sweep) into the
    standard {!Verify.report} shape — same verdicts, same order as a
    sequential {!Verify.run} with [stop_at_first_failure:false]. *)

val pp_summary : Format.formatter -> summary -> unit
