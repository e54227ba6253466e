(** CSV persistence for campaign results. *)

val header : string
(** Current schema: includes the [fault_model] and [bits] columns
    (DESIGN.md §18). *)

val legacy_header : string
(** The pre-model 17-column schema; {!of_string} still accepts it, loading
    rows as {!Refine_core.Fault.Reg_bit} cells. *)

val to_string : Experiment.cell list -> string
val save : string -> Experiment.cell list -> unit

exception Parse_error of string

val of_string : string -> Experiment.cell list
(** Inverse of {!to_string}.  Golden outputs are not persisted: reloaded
    cells are suitable for statistics and reporting, not for re-running
    injections.  Files written before the fault-model columns existed
    ({!legacy_header}) load with [model = Reg_bit].  A row loads only if
    the cell it parses to renders back to exactly that row (in the
    header's schema); an unknown header, a malformed row or a row that
    does not render back to itself raises {!Parse_error}. *)

val load : string -> Experiment.cell list
