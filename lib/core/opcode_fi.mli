(** Opcode-corruption fault injection — the extension sketched in the
    paper's §4.5: faults in instruction OP codes, restricted to *valid*
    opcodes (the assembler rejects invalid encodings).

    At a uniformly chosen dynamic instance, the static instruction is
    replaced by a different valid opcode of the same operand shape,
    modelling a corrupted code byte that persists for the rest of the run.
    The replacement is the engine's Instr_image overlay
    ({!Refine_machine.Exec.set_overlay}); the shared code image is never
    written.  Experiments run PINFI's prepared (uninstrumented) binary on
    the calling domain's one engine ({!Tool.engine}). *)

val alternatives : Refine_mir.Minstr.t -> Refine_mir.Minstr.t list
(** Valid same-shape replacements (ALU opcode swaps, condition-code swaps,
    load/lea confusion).  Empty for instructions with no compatible
    alternative. *)

val is_target : Refine_mir.Minstr.t -> bool

val attach : Runtime.ctrl -> Refine_machine.Exec.t -> unit
(** Installs the corruption hook on an engine, as {!Pinfi.attach} does: it
    counts target instructions in [ctrl.count] and, in [Runtime.Inject]
    mode, corrupts the target instance's opcode, records the corrupted pc
    in [ctrl.record] and detaches. *)

val profile : Tool.prepared -> Fault.profile
(** Fault-free counting run of PINFI's prepared binary (the corruption
    population differs from the bit-flip population: only instructions
    with valid alternatives). *)

val run_injection : Tool.prepared -> Fault.profile -> Refine_support.Prng.t -> Fault.experiment
(** One experiment on PINFI's prepared binary, classified against its
    {!profile}. *)
