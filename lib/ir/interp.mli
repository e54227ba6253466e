(** Reference interpreter for the IR — the semantic oracle the backend and
    machine simulator are tested against.

    The arithmetic helpers ([eval_ibinop] and friends) are shared with the
    machine simulator so integer/float semantics cannot drift between the
    two executions. *)

exception Trap of string
(** Raised on runtime faults: division by zero, out-of-bounds access,
    stack overflow, fuel exhaustion. *)

type outcome = { output : string; exit_code : int; steps : int }

(* shared arithmetic semantics *)
val eval_ibinop : Ir.ibinop -> int64 -> int64 -> int64
(** Wrapping 64-bit arithmetic; shifts mask the count to 6 bits; division
    by zero raises {!Trap}; [min_int / -1] wraps. *)

val eval_fbinop : Ir.fbinop -> float -> float -> float
val eval_icmp : Ir.icmp -> int64 -> int64 -> int64
val eval_fcmp : Ir.fcmp -> float -> float -> int64
(** C-style: [!=] is true on NaN, ordered relations are false on NaN. *)

val eval_funop : Ir.funop -> float -> float

val fptosi : float -> int64
(** Truncation toward zero with saturation; NaN maps to 0 — fully defined
    so interpreter and machine agree on every input. *)

val run : ?fuel:int -> Ir.modul -> outcome
(** Executes [main] for at most [fuel] steps (default 200 million).
    Raises {!Trap} on runtime faults. *)
