(** Rendering of campaign results in the shape of the paper's tables and
    figure series (text form), used by [refinec campaign] (which prints
    the paper's whole evaluation section) and the examples. *)

val tools : Refine_core.Tool.kind list
(** The comparison set, in the paper's plotting order: LLFI, REFINE,
    PINFI. *)

val header : seed:int -> samples:int -> programs:int -> models:int -> string
(** The campaign's statistical setting (paper §5.3) in one line: the
    seed, the samples per cell and their margin of error at 95%
    confidence beside the paper's n = 1068, and the experiment count. *)

val figure4_program : Experiment.cell list -> string -> string
(** One program's panel of Figure 4: sampled outcome probabilities per tool
    with 95% Wald confidence intervals. *)

val figure4_pmf : Experiment.cell list -> string -> string
(** The PMF stacked-bar panel of Figure 4 ([#] crash, [*] SOC, [.] benign):
    visually similar bars = similar tools, the paper's §5.4.1 reading. *)

val contingency_table : Experiment.cell -> Experiment.cell -> string
(** A Table 4-style 2x3 contingency table with margins. *)

type chi2_row = {
  program : string;
  llfi_vs_pinfi : Refine_stats.Chi2.test_result;
  refine_vs_pinfi : Refine_stats.Chi2.test_result;
  quarantined_tools : (string * string) list;
      (** (tool, reason) for this program's quarantined cells — their
          contingency rows are all-zero (excluded), so their verdicts are
          the trivial p=1 *)
}

val chi2_rows : Experiment.cell list -> string list -> chi2_row list
val table5 : chi2_row list -> string
(** The paper's Table 5: per-program chi-squared verdicts against PINFI.
    Programs with quarantined cells are marked [q] with a footnote giving
    the reason.  Two lines under the table count the significant verdicts
    of each tool beside the paper's 14/14 and 0/14. *)

val quarantines : Experiment.cell list -> (string * string * string) list
(** All quarantined [(program, tool, reason)] cells. *)

val quarantine_report : Experiment.cell list -> string
(** Rendered block listing every quarantined cell and its reason; [""]
    when none. *)

val table6 : Experiment.cell list -> string list -> string
(** Complete outcome counts, measured side-by-side with the paper's
    published 1068-sample counts. *)

val figure5 : Experiment.cell list -> string list -> string
(** Campaign execution time normalized to PINFI, modeled | paper.  The
    modeled ratio (summed [injection_cost], deterministic in the seed) is
    the reproduction's speed result; {!overhead_table}'s wall-clock ratio
    measures the simulator. *)

val models : Experiment.cell list -> Refine_core.Fault.model list
(** The distinct fault models present, first-seen order. *)

val cells_of_model :
  Refine_core.Fault.model -> Experiment.cell list -> Experiment.cell list

val model_sections : Experiment.cell list -> string list -> string
(** One banner + {!table5} + {!table6} block per fault model present in
    the cells (DESIGN.md §18).  A single-model campaign renders exactly
    one section; the Reg_bit section reproduces the paper's tables. *)

val timing_total : Experiment.timing -> float
(** Sum of every overhead column of a cell's timing. *)

val overhead_table : Experiment.cell list -> string list -> string
(** The paper's Figures 8/9 shape: per (program, tool) wall-clock seconds
    split into instrument / compile / execute / harness columns, plus each
    tool's total normalized to PINFI's, with a Total block summed over all
    programs.  Reports measured seconds ({!Experiment.timing}), unlike
    {!figure5}'s modeled cost units: the ratio is the simulator's speed, so
    it is not graded against the paper's 1.2x. *)

val degradation :
  ?confidence:float -> ?journal_skipped:int -> Experiment.cell list -> string list
(** One warning line per cell whose achieved sample size dropped below the
    requested one (harness [tool_error]s or an interrupted run), with the
    achieved vs requested margin of error and the underlying failures; one
    QUARANTINED line per quarantined cell; and, when [journal_skipped] is
    nonzero, one line for the resume-journal rows that failed to decode.
    Empty when the campaign was healthy. *)

val listings : pipeline:Refine_passes.Pipeline.spec -> (string * string) list -> string
(** Listings 1 & 2 as static counts per [(program, source)]: IR
    instructions (LLFI's whole view), machine instructions and the
    stack-class ones the IR cannot see, the same after LLFI's
    instrumentation, and frame slots before and after.  The IR stage is
    [pipeline]'s, the backend the fixed one
    ({!Refine_passes.Pipeline.to_mir}). *)
