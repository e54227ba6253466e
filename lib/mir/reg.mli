(** Register model of the simulated SX64 target: 16 general-purpose and 16
    floating-point 64-bit registers plus a FLAGS register, with a
    SysV-like calling convention (documented in the implementation).  The
    caller/callee-saved split is what makes IR-level FI instrumentation
    degrade code quality exactly as in the paper's Listing 2. *)

type t = int
(** Physical registers are small ints (the engine indexes one flat int64
    array); virtual registers live at {!vreg_base} and above. *)

type rclass = GPR | FPR

val gpr : int -> t
val fpr : int -> t
val flags : t
val num_regs : int

val rsp : t
val rbp : t
val ret_gpr : t
val ret_fpr : t
val arg_gprs : t list
val arg_fprs : t list
val scratch_gpr0 : t
val scratch_gpr1 : t
val scratch_gpr2 : t
val scratch_fpr0 : t
val scratch_fpr1 : t
val caller_saved_gprs : t list
val callee_saved_gprs : t list
val caller_saved_fprs : t list
val callee_saved_fprs : t list
val is_callee_saved : t -> bool

val vreg_base : int
val is_virtual : t -> bool
val is_physical : t -> bool
val class_of_phys : t -> rclass

val width_bits : t -> int
(** 64 for GPR/FPR; for FLAGS its architecturally meaningful width (4:
    ZF, LT, UNORD, CF) — the operand size the fault model uses for FLAGS
    flips. *)

val name : t -> string
