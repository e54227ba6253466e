(** CSV persistence for campaign results. *)

val header : string
(** Current schema: includes the [fault_model] and [bits] columns
    (DESIGN.md §18). *)

val to_string : Experiment.cell list -> string
val save : string -> Experiment.cell list -> unit

exception Parse_error of string

val of_string : string -> Experiment.cell list
(** Inverse of {!to_string}.  Golden outputs are not persisted: reloaded
    cells are suitable for statistics and reporting, not for re-running
    injections.  A row loads only if the cell it parses to renders back
    to exactly that row; any header but {!header} (the pre-model
    17-column one included), a malformed row or a row that does not
    render back to itself raises {!Parse_error}. *)

val load : string -> Experiment.cell list
