(** Loader for the JSONL span trace written by {!Span} file sinks
    (DESIGN.md §17).

    Mirrors the campaign journal's torn-line policy: a process killed
    mid-append leaves at most one partial final line, which is dropped
    without a parse attempt and flagged in [torn]; any other non-empty
    line that does not decode (a whitespace-only one included) is counted
    in [skipped] instead of failing the load. *)

type result = {
  events : Span.event list;  (** decoded events, in file order *)
  skipped : int;  (** non-empty lines that did not decode *)
  torn : bool;  (** a torn (newline-less) final line was dropped *)
}

val load : string -> result
(** Every event of the file; only empty lines are passed over silently. *)

