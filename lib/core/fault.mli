(** Fault records, outcome classification and profiling data — the paper's
    §4.3 workflow vocabulary. *)

type record = {
  dyn_index : int64;  (** 1-based dynamic index of the faulted instruction *)
  op_index : int;  (** which output operand was flipped *)
  reg_name : string;  (** register name, or a placeholder for IR values *)
  bit : int;  (** flipped bit, 0 = least significant *)
}
(** One line of the fault log of Figure 3b: which dynamic instruction,
    operand and bit were hit — "for reference and repeatability". *)

(** What state the transient fault strikes at the chosen dynamic trigger
    instance (DESIGN.md §18).  [Reg_bit] is the paper's single-bit
    register-operand model and the default everywhere; the others extend
    the campaign matrix with the gpuFI-4/InjectV fault-target dimension. *)
type model =
  | Reg_bit  (** one bit of one output operand — the paper's §4.3 model *)
  | Mem_cell
      (** one bit of a data-memory cell chosen uniformly from the
          snapshot's initialized image (falling back to the top-of-stack
          sentinel cell for programs with no initialized data) *)
  | Instr_image
      (** one bit of the loaded code image at the target pc: the mutated
          slot may decode to a different (possibly wild) instruction or to
          an illegal encoding, which traps
          {!Refine_machine.Exec.Illegal_instr} and classifies as
          {!Crash} *)
  | Multi_bit of { bits : int; burst : bool }
      (** [bits] distinct uniform bits of the chosen operand, or a
          contiguous burst of [bits] bits at a uniform position *)
  | Opcode
      (** the paper's §4.5 extension: the target instruction's opcode is
          replaced by a uniformly drawn valid same-shape alternative
          ({!Corrupt.alternatives}) for the rest of the run.  Its
          population is its own — the instructions with an alternative —
          so it runs on PINFI's binary only (DESIGN.md §18) *)

val string_of_model : model -> string
(** Stable short form used by the CLI, CSV, journal, wire protocol and
    metric labels: ["reg"], ["mem"], ["instr"], ["multi:<k>"],
    ["burst:<k>"], ["opcode"]. *)

val model_of_string : string -> model
(** Inverse of {!string_of_model}; [Invalid_argument] on unknown forms or
    a bit count outside [1, 64]. *)

val model_bits : model -> int
(** Bits flipped per fault: [bits] for {!Multi_bit}, otherwise 1. *)

type outcome =
  | Crash  (** trap, nonzero exit code, or 10x-profiling timeout *)
  | Soc  (** silent output corruption: output differs from the golden run *)
  | Benign  (** no observable effect *)
  | Tool_error
      (** harness-side failure (worker exception after retry exhaustion,
          watchdog kill): the sample is tallied and reported but excluded
          from the paper's crash/SOC/benign contingency rows — graceful
          degradation of the achieved sample size, never of the campaign.
          {!classify} never returns this. *)

val string_of_outcome : outcome -> string

(** [outcome_of_string] is the inverse of {!string_of_outcome};
    [Invalid_argument] on unknown names.  Used by the campaign journal and
    CSV loaders. *)
val outcome_of_string : string -> outcome
val string_of_record : record -> string

type profile = {
  golden_output : string;  (** output of the fault-free profiling run *)
  golden_exit : int;
  dyn_count : int64;  (** size of the tool's dynamic injection population *)
  profile_cost : int64;  (** modeled time of the profiling run *)
}
(** Result of the profiling phase (Figure 3a). *)

type experiment = {
  outcome : outcome;
  run_cost : int64;  (** modeled time of this injection run *)
  fault : record option;  (** [None] if the target instance never executed *)
}

val classify : profile -> Refine_machine.Exec.result -> outcome
(** Outcome classification of §4.3.2 against the golden profile.  The
    output-quota trap ({!Refine_machine.Exec.trap}) and truncated output
    both classify as {!Crash}, deterministically — a cut output prefix is never
    matched against the golden run. *)
