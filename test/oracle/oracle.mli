(** The named oracle for fault-injection samples. *)

val injection :
  ?quotas:Refine_core.Tool.quotas ->
  model:Refine_core.Fault.model ->
  Refine_core.Tool.prepared ->
  Refine_support.Prng.t ->
  Refine_core.Fault.experiment
(** One sample as {!Refine_core.Tool.run_injection} defines it — same
    target draw, control library, 10x cost timeout and [quotas] (default
    {!Refine_core.Tool.no_quotas}) — run on a fresh engine of the
    prepared image with no decoded program and no detach plan, so the
    {!Refine_machine.Exec.step} loop executes it from the entry to the
    end.  A production sample drawn from an equal generator must return
    the same experiment. *)
