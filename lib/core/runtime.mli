(** Fault-injection control runtime — the "user-provided library" of the
    paper's Figures 2 and 3 that the instrumented binary calls at run
    time.

    In [Profile] mode the library only counts dynamic targets and never
    triggers; in [Inject] mode it fires exactly once at the chosen dynamic
    instance.  The same binary serves both phases. *)

type mode =
  | Profile
  | Inject of { target : int; rng : Refine_support.Prng.t; model : Fault.model }
      (** [target] is the 1-based dynamic instance to fire at.  A native
          [int] so the per-call trigger test in the control library is a
          word compare — dynamic populations are bounded far below 2^62.
          [model] selects what state the fault strikes at that instance
          ({!Fault.model}); register models flip through the tool's own
          mechanism, Mem_cell/Instr_image/Opcode mutate memory/code via
          {!Corrupt} with the hook as the trigger clock.  REFINE's and
          LLFI's libraries raise [Invalid_argument] at an Opcode target:
          that model runs on PINFI's binary only. *)

type ctrl = {
  mutable count : int;
      (** dynamic target counter: instrumented instructions (REFINE, LLFI)
          or selected hooked instructions ({!Pinfi}, whose opcode
          population counts the instructions with a valid alternative) *)
  mode : mode;
  mutable fired : bool;
  mutable record : Fault.record option;
}
(** The one FI control record: every injector counts its dynamic targets
    and fires its single fault through it. *)

val create : mode -> ctrl

val absorb : ctrl -> Refine_machine.Exec.t -> unit
(** Fold the visits the decoded engine retired inside the skip window
    without entering the library ([Exec.fi_pending]) back into
    [ctrl.count].  Must run after the engine run completes and before
    [ctrl.count] is read (DESIGN.md §20); a no-op for engines that never
    opened the window. *)

val publish_window : ctrl -> Refine_machine.Exec.t -> unit
(** Set the engine's skip window ([Exec.fi_skip]) to the number of
    upcoming visits that provably cannot fire: [max_int] in [Profile] mode
    and once fired, else the visits left before the target.  A hook
    publishes it at attach; {!tick} after every real visit. *)

val tick : ctrl -> Refine_machine.Exec.t -> unit
(** Count one real visit of a dynamic target: fold the pending visits,
    add this one to [ctrl.count] and {!publish_window}.  Every library
    entry point and hook calls it before deciding whether to fire. *)

val refine_handlers : ctrl -> (string * int * (Refine_machine.Exec.t -> unit)) list
(** The REFINE control library: [fi_sel_instr] (the paper's selInstr) and
    [fi_setup_fi] (setupFI), as engine extern handlers with their modeled
    call cost. *)

val llfi_handlers : ctrl -> (string * int * (Refine_machine.Exec.t -> unit)) list
(** The LLFI-style injectFault callbacks, one per callee of
    {!Refine_backend.Fimap.llfi_calls} ([llfi_inject_i64],
    [llfi_inject_f64] and [llfi_inject_i1]), each reading the value from
    the callee's argument register and returning it in its result
    register.  Comparison results ([llfi_inject_i1]) flip within their
    1-bit width, as LLVM i1 values do. *)
