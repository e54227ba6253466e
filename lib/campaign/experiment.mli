(** Campaign orchestration: statistically-sized batches of fault-injection
    experiments per (program, tool) cell, as in the paper's §5.3 — now with
    supervised workers, bounded retry, watchdog kills and checkpoint/resume
    through {!Journal}. *)

type counts = { crash : int; soc : int; benign : int; tool_error : int }

val total : counts -> int
(** The statistical n: [crash + soc + benign].  Harness failures
    ([tool_error]) degrade the achieved sample size; they never enter the
    contingency rows. *)

val attempted : counts -> int
(** [total c + c.tool_error]: every resolved sample. *)

val zero : counts
val add_outcome : counts -> Refine_core.Fault.outcome -> counts

type timing = {
  instrument_s : float;  (** FI pass / DBI attach wall time *)
  compile_s : float;  (** frontend + IR opt + codegen wall time *)
  execute_s : float;
      (** profiling run + every sample's wall time, summed {e across worker
          domains} — CPU-time-like, may exceed elapsed wall time *)
  harness_s : float;
      (** residual elapsed cell time not attributed to a measured phase
          (scheduling, journaling, classification); clamped at 0 when
          domain parallelism makes attribution exceed elapsed time *)
}
(** Wall-clock overhead attribution per cell — the columns of
    {!Report.overhead_table} (the paper's Fig. 8/9 time-overhead shape). *)

val zero_timing : timing

type cell = {
  program : string;
  tool : Refine_core.Tool.kind;
  model : Refine_core.Fault.model;
      (** what state the faults struck ({!Refine_core.Fault.model});
          {!Refine_core.Fault.Reg_bit} for pre-model campaigns and loaded
          legacy CSVs *)
  samples : int;  (** requested sample count *)
  counts : counts;
  injection_cost : int64;  (** summed modeled time of all injection runs —
                               the campaign-time measure of Figure 5 *)
  profile : Refine_core.Fault.profile;
  static_instrumented : int;
  failures : Refine_support.Supervisor.failure list;
      (** samples that exhausted their retry budget (tallied as
          [tool_error]); index -1 marks a cell whose preparation failed *)
  timing : timing;
      (** wall-clock overhead attribution; {!zero_timing} for degraded or
          CSV-loaded cells *)
  quarantined : string option;
      (** ["category: detail"] when the cell was quarantined (DESIGN.md
          §13): preparation raised {!Refine_core.Tool.Quarantine} (failed
          verification, a nondeterministic golden run, or an empty fault
          population), zero samples ran, and the cell is excluded from the
          contingency rows *)
}

val cell_seed :
  ?model:Refine_core.Fault.model ->
  seed:int ->
  program:string ->
  Refine_core.Tool.kind ->
  int
(** Stable per-cell seed: [seed] xor the FNV-1a hash of the cell identity.
    Unlike the previous [Hashtbl.hash] derivation this is reproducible
    across OCaml versions.  The fault model joins the identity only when
    it is not the default {!Refine_core.Fault.Reg_bit}, so pre-model
    campaign seeds are unchanged; distinct models draw from disjoint
    deterministic streams. *)

val quarantined_cell :
  program:string ->
  tool:Refine_core.Tool.kind ->
  model:Refine_core.Fault.model ->
  samples:int ->
  string ->
  cell
(** A cell quarantined with the given ["category: detail"] reason: zero
    samples ran, excluded from the contingency rows. *)

val degraded_cell :
  ?model:Refine_core.Fault.model ->
  program:string ->
  tool:Refine_core.Tool.kind ->
  samples:int ->
  exn ->
  cell
(** A cell whose preparation failed with the exception: every sample is a
    [tool_error] (failure index -1). *)

(** {1 Campaign counters}

    The [refine_campaign_*] and [refine_quarantined_cells_total] series,
    shared by {!run_cell} and the sharded {!Coordinator}. *)

val note_sample : Refine_core.Fault.outcome -> unit
(** One resolved sample, by outcome. *)

val note_resumed : unit -> unit
(** One sample loaded from a resume journal instead of run. *)

val note_cell : unit -> unit
(** One completed cell. *)

val note_quarantined : string -> unit
(** One quarantined cell, labeled with the category of its ["category:
    detail"] reason (unknown categories count as ["mir-verifier"]). *)

val run_cell :
  ?domains:int ->
  ?sel:Refine_core.Tool.Selection.t ->
  ?journal:Journal.t ->
  ?sink:Journal.sink ->
  ?retries:int ->
  ?cost_cap:int64 ->
  ?quotas:Refine_core.Tool.quotas ->
  ?model:Refine_core.Fault.model ->
  ?pipeline:Refine_passes.Pipeline.spec ->
  ?verify_each:bool ->
  ?cache:bool ->
  ?chaos:Refine_core.Tool.chaos ->
  ?token:Refine_support.Supervisor.Cancel.t ->
  ?watchdog:(unit -> bool) ->
  ?heartbeat:(unit -> unit) ->
  samples:int ->
  seed:int ->
  Refine_core.Tool.kind ->
  program:string ->
  source:string ->
  unit ->
  cell
(** Compile + profile once, then run [samples] supervised injections.  Each
    sample owns a deterministic split of the master PRNG — results are
    bit-identical in [seed] regardless of domain count, retries, or
    journal-based resumption.  Samples already resolved in [journal] are
    loaded instead of re-run; newly resolved samples are checkpointed.
    A sample that keeps failing after [retries] extra attempts (each with a
    fresh deterministic split) resolves as {!Refine_core.Fault.Tool_error}.
    [cost_cap] is the per-sample modeled-cost watchdog
    ({!Refine_core.Tool.run_injection}); [token]/[watchdog] cancel the
    remaining work cooperatively — cancelled samples stay unresolved so a
    resume completes them.

    Sharding (DESIGN.md §16): [sink] overrides [journal] as the checkpoint
    destination — a shard worker streams resolved samples over a pipe
    through it — and [heartbeat] is invoked from the in-flight poll slot
    (every 1024 simulated instructions) so a worker can emit liveness
    frames; a hung sample therefore stops heartbeating instead of
    heartbeating through the hang.

    Pipelines (DESIGN.md §15): [pipeline] selects the compile pipeline
    (default {!Refine_core.Tool.default_pipeline}), [verify_each]
    interleaves the IR/MIR verifiers after every pass, and [cache] (default
    [true]) serves repeated preparations from the content-addressed
    artifact cache — campaign results are bit-identical in [seed] whether
    or not preparation was cached or verified per pass.

    Hardening (DESIGN.md §13): every injection runs inside the [quotas]
    sandbox (default {!Refine_core.Tool.default_quotas}, the golden-derived
    output cap) — tripped quotas classify as Crash.  A
    {!Refine_core.Tool.Quarantine} during preparation (the end-of-MIR
    verifier, the double golden run, or a profiling run that counts no
    target, e.g. a [sel] naming no function of the program) resolves the
    whole cell as quarantined: zero samples, [quarantined = Some reason],
    journaled so a resume short-circuits without re-preparing. *)

val run_matrix :
  ?domains:int ->
  ?sel:Refine_core.Tool.Selection.t ->
  ?journal:Journal.t ->
  ?sink:Journal.sink ->
  ?retries:int ->
  ?cost_cap:int64 ->
  ?quotas:Refine_core.Tool.quotas ->
  ?model:Refine_core.Fault.model ->
  ?pipeline:Refine_passes.Pipeline.spec ->
  ?verify_each:bool ->
  ?cache:bool ->
  ?chaos:Refine_core.Tool.chaos ->
  ?token:Refine_support.Supervisor.Cancel.t ->
  ?watchdog:(unit -> bool) ->
  samples:int ->
  seed:int ->
  (string * string) list ->
  Refine_core.Tool.kind list ->
  cell list
(** The full evaluation grid: every (program, source) under every tool.  A
    cell whose preparation fails degrades to an all-[tool_error] cell (or a
    quarantined cell for {!Refine_core.Tool.Quarantine}); the remaining
    cells still run. *)

val find_cell :
  ?model:Refine_core.Fault.model ->
  cell list ->
  program:string ->
  tool:Refine_core.Tool.kind ->
  cell
(** First cell matching (program, tool) and, when given, [model]. *)

val row : cell -> int array
(** [crash; soc; benign] contingency row for {!Refine_stats.Chi2.test};
    [tool_error] samples are excluded by construction. *)
