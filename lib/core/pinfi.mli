(** PINFI-style binary-level fault injection (paper §5.2): a per-
    instruction hook on the simulator plays the role of Intel Pin over the
    clean, uninstrumented binary.  After injecting the single fault the
    tool {e detaches} — hook and DBI cost disappear for the rest of the
    run, the performance optimization the paper added to PINFI. *)

module Selection = Refine_passes.Selection

type ctrl = {
  mutable count : int;  (** dynamic instructions with register writes *)
  mode : Runtime.mode;
  mutable fired : bool;
  mutable record : Fault.record option;
  sel : Selection.t;
}

val create : ?sel:Selection.t -> Runtime.mode -> ctrl
(** The multi-bit variants the paper cites (double bit flips, Adamu-Fika
    & Jhumka) are the [Fault.Multi_bit] model of [Runtime.Inject]. *)

val attach : ctrl -> Refine_machine.Exec.t -> unit
(** Installs the counting/injection hook and the attached-DBI per-
    instruction cost ({!Fi_cost.pin_attach_per_instr}). *)
