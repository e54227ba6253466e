(** Fault-injection target selection — the compiler-flag interface of the
    paper's Table 2 ([-fi-funcs], [-fi-instrs]). *)

type instr_class =
  | All  (** every instruction that writes at least one register *)
  | Stack  (** push/pop and FLAGS stack traffic — machine level only *)
  | Arith  (** ALU, FPU, compares, conversions *)
  | Mem  (** loads, stores, moves, address computation *)

val instr_class_of_string : string -> instr_class
(** Parses the [-fi-instrs] argument values: ["stack"], ["arithm"],
    ["mem"], ["all"].  Raises [Invalid_argument] otherwise. *)

val string_of_instr_class : instr_class -> string

type t = {
  funcs : string list;  (** function names; [["*"]] selects every function *)
  instrs : instr_class;
}

val default : t
(** [-fi-funcs=* -fi-instrs=all] — the paper's evaluation setting. *)

val func_selected : t -> string -> bool

val class_selected : t -> Refine_mir.Minstr.t -> bool
(** The [-fi-instrs] class filter alone.  PINFI's opcode-corruption
    population (the [opcode] fault model) is restricted by it, not by
    {!minstr_selected}: a conditional branch writes no register but has
    valid alternative opcodes. *)

val minstr_selected : t -> Refine_mir.Minstr.t -> bool
(** Machine-level candidate test used by REFINE and PINFI: the instruction
    must write a register and match the class filter. *)

val ir_instr_selected : t -> Refine_ir.Ir.instr -> bool
(** IR-level candidate test used by the LLFI pass.  Note the structural
    gaps that are the paper's point: [Stack] selects nothing (the IR has no
    stack-management instructions) and allocas are never targets. *)

val to_string : t -> string
(** Canonical text form ["funcs=a,b;instrs=all"] — stable across runs, used
    as an artifact-cache key component. *)
