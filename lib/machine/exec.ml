(* Architectural simulator for SX64 images.

   This is the substitute for the paper's physical Xeon nodes: it executes
   the machine code produced by the backend against an architectural state
   (register file, FLAGS, byte-addressable memory, downward stack) and
   reports the observable outcome — output, exit code, or a trap.  Faults
   injected into this state propagate, mask, or crash the run exactly as
   the paper's fault model intends.

   The facade over three units, one job each: [State], the machine record
   with construction, snapshots and reset; [Semantics], what one
   instruction does, on the step loop and as a decoded closure; [Runner],
   the run loops with their budgets, output cap and the detach handoff.
   The interface keeps the engine's private record opaque. *)

include State
include Semantics
include Runner
