(** The verification driver (Fig. 4 of the paper).

    For each independent port of a module-ILA: generate the complete
    property set from the refinement map and check every (sub-)
    instruction.  Optionally first run the model-level decode checks
    (coverage / determinism) that back the completeness claim. *)

type instr_result = {
  instr : string;
  port : string;
  verdict : Checker.verdict;
  stats : Checker.stats;
  rung : string;
      (** what produced the verdict: the rung named by
          {!check_port_instr} (or {!check_property} on the fresh path),
          ["error"] when the instruction could not be checked *)
  time_s : float;
      (** wall clock of this instruction's check (property generation
          included), captured as a single [Unix.gettimeofday] delta —
          monotone, and the number reports and engine job records
          display *)
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

val proved : report -> bool
(** True only when every instruction is [Proved] — an [Unknown]
    verdict (budget exhausted, or an exception while checking) makes
    the report not-proved. *)

val unknowns : report -> instr_result list
(** The instructions whose verdict is {!Checker.Unknown}, across all
    ports — the candidates for a bounded-simulation fallback. *)

(** {1 Prepare once, check many}

    One port's instructions share a single incremental solver context;
    building it (property generation + shared-frame preparation,
    {!Checker.prepare_shared}) is the expensive step, and checking one
    instruction against it is cheap and repeatable.  {!run} uses this
    internally; long-lived callers — notably the verification daemon
    ({!Ilv_server.Daemon}) — keep {!prepared_port} values alive across
    requests and pay the preparation cost once per (design, port)
    instead of once per request. *)

type prepared_port
(** A port's complete property set, generated and bound to one shared
    incremental solver context.  Encoding inside the context is lazy
    per property, so preparing is cheap until instructions are actually
    checked; results are memoized by the context, so re-checking an
    instruction returns the first verdict without re-solving. *)

val prepare_port :
  ?memory_abstraction:bool ->
  name:string ->
  port:Ila.t ->
  rtl:Ilv_rtl.Rtl.t ->
  refmap:Refmap.t ->
  unit ->
  prepared_port
(** Generates every leaf instruction's property and prepares the shared
    context (labelled [name/port] in observability output).  A property
    whose generation raises poisons only its own instruction — checking
    it yields [Unknown "exception: ..."], the others are unaffected.

    With [memory_abstraction:true] (the default) and at least one
    memory wider than the window in the generated properties, the
    shared context encodes the {!Mem_abstract} rewrite of the group
    instead of the concrete properties; SAT models are replayed
    concretely and refine the window ({!check_port_instr} drives the
    CEGAR loop).  Memory-free groups are unaffected. *)

val prepared_port_name : prepared_port -> string

val prepared_instrs : prepared_port -> string list
(** Leaf instruction names, in declaration (= report) order. *)

val prepared_shared : prepared_port -> Checker.shared
(** The underlying shared context — exposed for callers that need the
    frozen frame CNF and selectors (proof-cache keying).  Under the
    memory abstraction this frame is {e replaced} after a CEGAR
    refinement: callers that key anything on it pin the value returned
    right after {!prepare_port} ({!Ilv_engine.Engine.port_of}). *)

val prepared_abstraction : prepared_port -> Mem_abstract.t option
(** The memory-abstraction state, when [prepare_port] was called with
    [memory_abstraction:true] and the group mentions a memory. *)

val prepared_slot : prepared_port -> string -> (int, string) result
(** The property index of an instruction in {!prepared_shared}'s
    numbering, or the error that made it uncheckable ([Error
    "instruction not prepared"] for a name the port does not have). *)

val check_port_instr :
  ?budget:Checker.budget ->
  prepared_port ->
  string ->
  Checker.verdict * Checker.stats * string
(** Decides one instruction in the prepared context through the
    degradation ladder ({!Checker.check_shared_degrading}); the string
    names the ladder rung that produced the verdict (["incremental"],
    ["fresh"], ["tightened"] or ["degraded"]).  Exceptions and unknown
    instruction names degrade to [Unknown "exception: ..."] with rung
    ["error"] — never an escaping exception.

    When the port was prepared with the memory abstraction, this also
    drives the CEGAR loop: the rung gains ["+abstract"] when the first
    abstract encoding decided; a spurious abstract counterexample
    refines the window, rebuilds the shared frame and retries (rung
    suffixed ["+cegarN"]); if refinement stalls or exceeds its round
    ceiling the instruction's {e concrete} property is decided with a
    fresh solver (rung ["abstract>concrete"]).  Verdicts are always
    concrete-valid: [Failed] traces come from concrete replay, [Proved]
    from the sound UNSAT direction of the abstraction. *)

val check_property :
  ?budget:Checker.budget ->
  ?memory_abstraction:bool ->
  Property.t ->
  Checker.verdict * Checker.stats * string
(** Decides one property on a fresh solver — the reference path of
    [run ~incremental:false].  With [memory_abstraction] (default true)
    and a memory wider than the window, it runs the same CEGAR loop as
    {!check_port_instr} on a one-property abstraction.  The rung is
    ["fresh"], suffixed like {!check_port_instr}'s, or
    ["abstract>concrete"].  Exceptions become [Unknown "exception:
    ..."]. *)

type task = { task_port : Ila.t; task_instr : Ila.instruction }
(** One refinement obligation, as data: a leaf (sub-)instruction of one
    port.  The paper's flow discharges these independently, which is
    what lets {!Ilv_engine} schedule them on parallel workers. *)

val enumerate : ?only_ports:string list -> Module_ila.t -> task list
(** Every leaf (sub-)instruction of every (selected) port, in the
    deterministic report order of {!run}: ports in declaration order,
    instructions in declaration order within each port. *)

val run :
  ?stop_at_first_failure:bool ->
  ?only_ports:string list ->
  ?budget:Checker.budget ->
  ?timeout_s:float ->
  ?incremental:bool ->
  ?memory_abstraction:bool ->
  name:string ->
  Module_ila.t ->
  Ilv_rtl.Rtl.t ->
  refmap_for:(string -> Refmap.t) ->
  report
(** Verifies the RTL against each port-ILA.  [refmap_for] supplies the
    refinement map of each port by name.  With
    [stop_at_first_failure:true] (default), checking stops at the first
    failing instruction — matching the paper's "Time (bug)" runs.
    [budget] bounds every obligation's SAT query
    ({!Checker.check}); exhausted budgets surface as per-instruction
    {!Checker.Unknown} verdicts rather than hangs.  Exceptions raised
    while checking one instruction (including from [refmap_for] or the
    property generator) are converted into an [Unknown] verdict with
    the exception message instead of aborting the whole report.

    [timeout_s] sets a per-port wall-clock deadline (each port's clock
    starts when its first instruction is picked up): once it passes,
    the port's remaining obligations are reported [Unknown] with a
    timestamped ["deadline: ..."] reason instead of hanging.  Default:
    unlimited.

    [incremental] (default true) shares one solver context per port
    across all of its instructions' properties
    ({!Checker.prepare_shared}): the common unrolled frame is blasted
    once and learnt clauses transfer between queries.  An incremental
    query that returns [Unknown] is retried down the degradation
    ladder ({!Checker.check_shared_degrading}) before the verdict is
    accepted.  [incremental:false] is the fresh-solver-per-instruction
    reference path ({!check_property}) that differential tests compare
    against; the verdicts are the same either way (only [Unknown]
    cutoff points can differ under a {!Checker.budget}).

    [memory_abstraction] (default true) checks memory-mentioning
    properties through the {!Mem_abstract} window encoding with CEGAR
    refinement instead of bit-blasting whole arrays; verdicts are
    unchanged (abstract proofs are sound, counterexamples are replayed
    concretely), only speed differs on array-heavy designs. *)

val pp_report : Format.formatter -> report -> unit
