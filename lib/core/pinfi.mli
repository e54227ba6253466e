(** PINFI-style binary-level fault injection (paper §5.2): a per-
    instruction hook on the simulator plays the role of Intel Pin over the
    clean, uninstrumented binary.  After injecting the single fault the
    tool {e detaches} — hook and DBI cost disappear for the rest of the
    run, the performance optimization the paper added to PINFI. *)

val attach :
  ?sel:Refine_passes.Selection.t -> ?opcode:bool -> Runtime.ctrl -> Refine_machine.Exec.t -> unit
(** Installs the counting/injection hook and the attached-DBI per-
    instruction cost ({!Fi_cost.pin_attach_per_instr}).  The hook counts
    the dynamic instructions [sel] (default {!Refine_passes.Selection.default})
    selects in [ctrl.count] and, in [Runtime.Inject] mode, fires at the
    target instance.  The multi-bit variants the paper cites (double bit
    flips, Adamu-Fika & Jhumka) are the [Fault.Multi_bit] model.

    [opcode] (default [false]) selects the {!Fault.Opcode} population
    instead: the instructions of [sel]'s functions and classes with a
    valid alternative opcode ({!Corrupt.alternatives}), whether or not
    they write a register.  Only a {!Fault.Opcode} injection may run on
    it, and a {!Fault.Opcode} injection only on it. *)
