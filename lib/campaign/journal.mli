(** Checkpoint/resume journal for fault-injection campaigns.

    Append-only, line-oriented log of every resolved
    (program, tool, sample-index) experiment, recorded as the sample
    settles ({!Experiment.run_cell}).  {!create} writes the canonical file
    through an atomic tmp-rename; each {!record} then appends one flushed
    line.  A kill mid-append leaves at most one torn
    final line, which the loader drops (detected by the missing trailing
    newline, never parsed) and counts in {!skipped} — resume continues
    from the previous record.  Combined with per-sample deterministic PRNG
    splits ({!Experiment.run_cell}), resuming from a journal is
    bit-identical to an uninterrupted run with the same seed. *)

type entry = {
  program : string;
  tool : string;  (** {!Refine_core.Tool.kind_name} *)
  model : string;  (** {!Refine_core.Fault.string_of_model} *)
  sample : int;  (** 0-based sample index within the cell *)
  outcome : Refine_core.Fault.outcome;
  cost : int64;  (** modeled cost of the run (budget burned, for tool errors) *)
  attempts : int;  (** attempts used to resolve the sample *)
}

val render : entry -> string
(** The entry's one serialized form: seven TAB-separated fields, no
    newline.  The journal file holds it one per line under the
    [# refine-journal v2] tag, and a shard [Outcome] frame carries it
    ({!Shard}).  [program] and [tool] must hold no TAB or newline. *)

val parse : string -> entry option
(** Inverse of {!render}, and the only decoder of a sample record: [Some e]
    only if [render e] is exactly the input.  Any other string — a field
    the number readers accept in a non-canonical spelling, an unknown
    outcome or fault model, a missing or extra field — is [None]. *)

type t

type identity = (string * string) list
(** A campaign's identity as [(name, value)] pairs: every setting that
    changes a recorded sample's outcome or cost (for [refinec campaign]:
    the seed, the pipeline, the per-pass verifier, the output cap, the
    watchdog and the retry budget).  A record is keyed only by
    (program, tool, model, index), so the identity is what keeps a resume
    from merging another campaign's samples.  Names hold no TAB, newline
    or ['='], values no TAB or newline. *)

exception Other_campaign of string
(** Raised by {!create} when a resume would load another campaign's
    records.  The message starts with the journal's path and names the
    first identity field that differs. *)

val create : ?identity:identity -> ?resume:bool -> string -> t
(** [create path] opens a journal at [path].  With [~resume:true] existing
    entries are loaded (unparseable lines — e.g. an unknown outcome name
    written by a newer version — are skipped with a warning and counted in
    {!skipped}, costing only their re-run); otherwise the journal starts
    empty.  A journal that is not tagged [# refine-journal v2] exactly once
    — untagged, tagged v1 (the pre-model shape no writer has produced
    since DESIGN.md §18) or tagged with a version this loader does not
    know — loads no records at all: every record line is counted in
    {!skipped}, with a warning naming the cause, since a line of another
    format can have a known record's shape and mean something else.  The
    file is immediately (re)written in canonical form.

    [identity] is written into the header.  A resume with [identity] from
    a non-empty file raises {!Other_campaign}, leaving the file untouched,
    unless the file records exactly that identity; a file that records
    none is refused too.  A missing or empty file starts fresh.  Without
    [identity] (a scratch journal) nothing is recorded or checked. *)

val record_lines : string -> int
(** The lines of the file at [path] that are neither blank nor [#]
    comments — sample records, quarantines and undecodable lines alike;
    [0] when there is no such file.  [create] without [~resume:true]
    discards them, so a driver checks this first. *)

val record : t -> entry -> unit
(** Append one entry and flush the line.  Safe to call from any domain. *)

val close : t -> unit
(** Close the append channel, if open.  Records after [close] reopen it. *)

val record_quarantine : t -> program:string -> tool:string -> reason:string -> unit
(** Journal a quarantined cell (DESIGN.md §13).  Idempotent per
    (program, tool).  Written as a ["Q"]-tagged line; [reason] is
    sanitized to one field. *)

val quarantine_reason : t -> program:string -> tool:string -> string option
(** The journaled quarantine reason of a cell, if any — a resuming
    campaign short-circuits such cells without re-preparing them. *)

val quarantines : t -> (string * string * string) list
(** All journaled [(program, tool, reason)] quarantines, oldest first. *)

val skipped : t -> int
(** Undecodable lines dropped while loading with [~resume:true]. *)

val note_skipped_metric : t -> unit
(** Mirror {!skipped} into [refine_journal_skipped_lines_total] (call once
    per campaign, after observability is enabled). *)

val entries : t -> entry list
(** All entries, oldest first. *)

val length : t -> int

val completed :
  ?model:string -> t -> program:string -> tool:string -> (int, entry) Hashtbl.t
(** The resolved samples of one (program, tool, fault model) cell, keyed
    by sample index (latest entry wins on duplicates).  [model] defaults
    to ["reg"]. *)
