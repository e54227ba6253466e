(** Per-tool compile / profile / inject drivers — the experiment workflow
    of the paper's Figure 3 for each of the three compared fault
    injectors. *)

module Selection = Refine_passes.Selection

type kind =
  | Refine  (** backend machine-code instrumentation (this paper) *)
  | Llfi  (** IR-level call instrumentation (LLFI/KULFI/VULFI/FlipIt style) *)
  | Pinfi  (** binary-level dynamic instrumentation with detach *)

val kind_name : kind -> string

val kind_of_name : string -> kind option
(** Inverse of {!kind_name}, ignoring case; [None] for any other name. *)

val derived_output_quota : Fault.profile -> int
(** [max 4096 (16 * length golden_output)]: the output cap
    {!run_injection} applies to a prepared program unless the caller sets
    an absolute one (DESIGN.md §13).  A tripped cap ends the run [Trapped
    (Output_quota _)] and classifies as {!Fault.Crash} — an experimental
    outcome, never a harness exception, so the supervisor burns no retries
    on adversarial samples.  Trips are counted in the
    [refine_quota_trips_total{kind="output"}] metric when observability is
    enabled. *)

(** {1 Post-injection detach (DESIGN.md §20)}

    REFINE samples hand off to their prepared detach target once the
    single injection has retired: the running engine switches in place
    onto the golden twin of the tool's binary, decoded with
    attached-equivalent cost weights, and the rest of the run retires at
    golden speed — the same in-place detach the paper's PINFI performs
    (§5.2).  LLFI samples stay attached to the end: once the fault fires,
    the decoded engine retires every later runtime call inside the skip
    window.  The test suite checks every sample against a step-loop run
    of the instrumented binary with no detach. *)

type detach_target = {
  dt_image : Refine_backend.Layout.image;
      (** the golden twin {!Refine_backend.Fimap.extract} reads off the
          instrumented image *)
  dt_dprog : Refine_machine.Exec.dprogram;
      (** decoded with the attached-equivalent per-pc cost weights *)
  dt_map : Refine_machine.Exec.handoff_map;
      (** instrumented -> twin coordinates (drain + translate) *)
}
(** A prepared handoff target, built from the instrumented binary alone
    and sharing its extern table and heap base. *)

type prepared = {
  kind : kind;
  sel : Selection.t;
  image : Refine_backend.Layout.image;  (** the (instrumented) binary *)
  snap : Refine_machine.Exec.snapshot;
      (** initialized globals region, computed once per prepared binary *)
  dprog : Refine_machine.Exec.dprogram;
      (** the pre-decoded program (DESIGN.md §19), decoded once per
          prepared binary and installed on every engine that runs it *)
  profile : Fault.profile;  (** golden output + dynamic target count *)
  static_instrumented : int;  (** instrumentation sites; 0 for PINFI *)
  detach : detach_target option;
      (** post-injection handoff target; [None] for PINFI (its cost model
          already detaches), for LLFI (the skip window retires its
          post-injection calls) and for REFINE images whose splices do not
          parse *)
  opcode : bool;
      (** profiled over the {!Fault.Opcode} population (PINFI's
          instructions with a valid alternative opcode) instead of the
          tool's operand sites *)
}
(** A tool's binary after compilation and one profiling run.  The same
    binary serves profiling and injection, as in the paper. *)

val model_unsupported : kind -> Fault.model -> string option
(** Why the tool cannot run the model, if it cannot: REFINE and LLFI
    reject {!Fault.Opcode}, because their compiled-in populations are
    operand sites.  {!prepare} raises [Invalid_argument] with this
    reason. *)

val detach_plan_for : prepared -> Fault.model -> Refine_machine.Exec.detach_plan option
(** Per-sample eligibility (the decline matrix of DESIGN.md §20): [None]
    when the binary has no target (every PINFI and LLFI binary) or under
    Instr_image (the overlay lands in instrumented coordinates).  The
    returned plan can still decline at run time (drain cap, shadow-stack
    mismatch, budget edge) — every declined path runs attached with
    identical semantics. *)

exception Prepare_error of string
(** Raised when the profiling run fails (the program itself is broken). *)

exception Quarantine of string * string
(** [(category, detail)]: the cell must not be sampled.  Categories:
    ["mir-verifier"] — the instrumented machine code failed
    {!Refine_mir.Mverify.check_instrumented} (REFINE) or
    {!Refine_mir.Mverify.check_funcs} (LLFI); ["nondeterministic-golden"]
    — two independent profiling runs disagreed on output, exit code or
    dynamic population, so no golden baseline exists to classify against;
    ["empty-population"] — the profiling run counted no target under the
    cell's selection (the detail names the population and the selection),
    so there is nothing to inject into.  All are deterministic properties
    of the (program, tool) cell: the campaign records the cell as
    quarantined instead of retrying. *)

type chaos = { break_mir : bool; flaky_golden : bool }
(** Test-only failure injection for the hardening paths themselves:
    [break_mir] corrupts one spliced SetupFI block after instrumentation,
    [flaky_golden] perturbs the second profiling run's output — each must
    surface as the corresponding {!Quarantine}. *)

val no_chaos : chaos

(** {1 Pipelines & the artifact cache (DESIGN.md §15)} *)

val default_pipeline : Refine_passes.Pipeline.spec
(** [Pipeline.of_level O2] — the campaign default, matching the paper's
    optimized application builds. *)

val pipeline_for : ?chaos:chaos -> kind -> Refine_passes.Pipeline.spec -> Refine_passes.Pipeline.spec
(** The effective pipeline for a tool: forces isel+layout, then splices
    the tool's FI pass at the position that defines its accuracy (paper
    Figure 1) — [refine-fi] as the last MIR pass (REFINE), [llfi-fi] as
    the last IR pass (LLFI), nothing for PINFI (it attaches at run time).
    [chaos.break_mir] additionally appends the test-only
    [chaos-break-mir] corruption pass after the splice. *)

val compile_invocations : unit -> int
(** Front-end + IR-stage compile executions so far (i.e. IR-cache misses). *)

val reset_artifact_caches : unit -> unit
(** Drop every artifact tier — ["ir"] and ["prepared"], whose counters
    {!Refine_passes.Artifact_cache.stats} reads by name — and zero
    {!compile_invocations} (test/bench isolation). *)

val prepare :
  ?phases:Refine_obs.Phase.t ->
  ?sel:Selection.t ->
  ?pipeline:Refine_passes.Pipeline.spec ->
  ?verify_each:bool ->
  ?chaos:chaos ->
  ?model:Fault.model ->
  kind ->
  string ->
  prepared
(** [prepare kind source] compiles MinC [source] through
    [pipeline_for kind pipeline] (default {!default_pipeline}) and runs
    the profiling phase.  [model] (default {!Fault.Reg_bit}) names the
    fault model the cell will run: every model profiles the tool's
    operand sites except {!Fault.Opcode}, which profiles PINFI's
    instructions with a valid alternative opcode.  [Invalid_argument]
    when {!model_unsupported} gives a reason.  [phases] buckets the
    wall-clock time into the overhead-breakdown columns ("compile" /
    "instrument" / "execute", the profiling runs counting as execute) for
    {!Refine_campaign.Report}'s Figure 8/9-shape table.  When observability is enabled
    ({!Refine_obs.Control.enable}), every simulator run additionally
    streams executor-profile counters (per-opcode-class steps, extern
    calls, FI-site hits, modeled cost) into the metrics registry, and
    every pipeline pass records a [refine_pass_seconds{pass,layer}]
    histogram sample plus a span.

    Caching (DESIGN.md §15): unless chaos is active, the whole
    [prepared] value, detach target included, is served from the
    content-addressed prepared tier keyed on (source, pipeline string,
    tool configuration); the underlying IR-stage compile is shared across
    tools through the IR tier.  There is no uncached path: a cold tier
    ({!reset_artifact_caches}) builds exactly what a warm one serves.
    Only an opcode cell adds its population to the key, so the other
    models share one prepared value.  Entries carry a fingerprint of
    the emitted code and of the detach target's code, re-checked on every
    serve, so a binary mutated after caching is invalidated, never
    served.

    Hardening (DESIGN.md §13): the instrumented machine code is always
    structurally re-verified at the end of the MIR stage, and any
    violation raises {!Quarantine}; [verify_each] (default [false])
    additionally interleaves the IR/MIR verifiers after every pipeline
    pass.  Profiling executes TWICE with independent machine and
    control-library state and raises {!Quarantine} if the runs disagree,
    or if the first counts no target. *)

exception Sample_budget_exceeded of int64
(** A sample exceeded the harness watchdog's modeled-cost budget (the
    [cost_cap] of {!run_injection}); the payload is the cost burned.  This
    is a harness disposition, not one of the paper's outcomes: the
    supervisor retries it with a fresh PRNG split and, on exhaustion, the
    sample surfaces as {!Fault.Tool_error}. *)

val run_injection :
  ?cost_cap:int64 ->
  ?output_quota:int ->
  ?model:Fault.model ->
  ?poll:(unit -> unit) ->
  prepared ->
  Refine_support.Prng.t ->
  Fault.experiment
(** One fault-injection experiment: selects a uniform dynamic target
    instruction / output operand / bit from the tool's population, runs to
    completion (or the 10x-profiling timeout) and classifies the outcome
    against the golden output.  [model] (default {!Fault.Reg_bit}) selects
    what state the fault strikes at the chosen dynamic instance
    ({!Fault.model}); the trigger draw and timing are model-independent,
    so one prepared binary serves every model but {!Fault.Opcode}, which
    draws over its own population.  [Invalid_argument] when the model's
    population is not the one [prepared] was profiled over ([prepare
    ~model:Opcode] for opcode faults, any other model for the rest).
    [cost_cap] kills the sample with
    {!Sample_budget_exceeded} if it burns that much modeled cost before the
    paper's own 10x timeout fires (caps at or above the 10x timeout are
    inert: hitting the 10x timeout stays a Crash, the paper's semantics).
    [output_quota] is an absolute output cap in bytes (default
    {!derived_output_quota}); a tripped cap classifies as Crash.  [poll]
    is invoked every 1024 simulated instructions, letting a cancellation
    token abort in-flight samples. *)
