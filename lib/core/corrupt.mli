(** Shared fault-mutation primitives for the cross-layer fault models
    (DESIGN.md §18).

    The injector runtimes ({!Runtime}, {!Pinfi}) share the {e what} of a
    fault — which machine state is struck and how — while keeping their
    own {e when} (trigger mechanism).  This module owns the what, below
    both so neither cycles. *)

val alternatives : Refine_mir.Minstr.t -> Refine_mir.Minstr.t list
(** Valid same-shape opcode replacements (ALU opcode swaps, condition-code
    swaps, load/lea confusion).  Empty for instructions with no compatible
    alternative; the instructions with one are the {!Fault.Opcode}
    population. *)

val draw_mask :
  Refine_support.Prng.t -> width:int -> Fault.model -> int * int64
(** [(lowest flipped bit, XOR mask)] of one register-value fault below
    [width].  [Reg_bit] draws exactly one [Prng.int rng width] — the same
    single draw the pre-model runtimes made, preserving fixed-seed
    bit-identity of reg campaigns; [Multi_bit] draws k distinct (or burst)
    positions via {!Refine_support.Bitops.draw_bits}. *)

val mem_fault :
  Refine_support.Prng.t -> Refine_machine.Exec.t -> dyn_index:int64 -> Fault.record
(** Flip one uniform bit of one byte drawn uniformly over the image's
    initialized globals — the Mem_cell model's mutation, applied to the
    engine's (snapshot-restored) memory.  A program with no initialized
    data falls back to the 8-byte top-of-stack sentinel cell, so the
    population is never empty. *)

val mutate :
  Refine_support.Prng.t -> Refine_mir.Minstr.t -> Refine_mir.Minstr.t option
(** The mutated decoding of an instruction under a code-image bit upset:
    a different valid same-shape opcode, a wild-but-decodable operand
    field (register index, immediate bit, offset, branch target), or
    [None] — the corrupted encoding no longer decodes and fetching it
    traps {!Refine_machine.Exec.Illegal_instr}. *)

val image_fault :
  Refine_support.Prng.t ->
  Refine_machine.Exec.t ->
  pc:int ->
  dyn_index:int64 ->
  Fault.record
(** Corrupt the code slot at [pc] through the engine's Instr_image
    overlay ({!Refine_machine.Exec.set_overlay}); the shared image is
    never written.  [bit] in the returned record is [-1] when the mutated
    encoding is illegal. *)

val opcode_fault :
  Refine_support.Prng.t ->
  Refine_machine.Exec.t ->
  pc:int ->
  dyn_index:int64 ->
  Fault.record
(** The {!Fault.Opcode} mutation: overlay the code slot at [pc] with one
    uniformly drawn {!alternatives} entry (one [Prng.int] draw) for the
    rest of the run.  The record names the pc ([reg_name = "pc=<pc>"],
    [bit = -1]).  [pc] must have an alternative. *)

val instrumented_pc : Refine_machine.Exec.t -> int
(** The pc of the application instruction a control-library call was
    instrumented after: walks back from the call site over the REFINE
    PreFI saves (Mpush/Mpushf).  For LLFI's IR-level calls this is the
    nearest preceding machine instruction of the call sequence — the
    closest machine-level anchor an IR-level tool has. *)
