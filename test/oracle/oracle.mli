(** The named oracle for fault-injection samples and profiling runs. *)

val injection :
  ?output_quota:int ->
  model:Refine_core.Fault.model ->
  Refine_core.Tool.prepared ->
  Refine_support.Prng.t ->
  Refine_core.Fault.experiment
(** One sample as {!Refine_core.Tool.run_injection} defines it — same
    target draw, control library, 10x cost timeout and output cap
    ([output_quota], default {!Refine_core.Tool.derived_output_quota}) —
    run on a fresh engine of the
    prepared image with no decoded program and no detach plan, so the
    {!Refine_machine.Exec.step} loop executes it from the entry to the
    end.  A production sample drawn from an equal generator must return
    the same experiment. *)

val profile : Refine_core.Tool.prepared -> Refine_core.Fault.profile
(** The profiling run {!Refine_core.Tool.prepare} makes — the tool's
    control library (PINFI's hook, over the cell's operand or opcode
    population) in [Profile] mode over the whole fault-free run — on a
    fresh step-loop engine, where every dynamic target enters the
    library.  [golden_exit] is the exit code the run ended with
    ([min_int] if it did not exit).  A production profile must equal
    it. *)
