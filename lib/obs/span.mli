(** Span-based phase tracing with JSONL emission (DESIGN.md §12).

    [with_ "phase" f] measures the wall-clock extent of [f] and emits one
    JSON event per closed span to the configured sink (an append-only
    [*.trace.jsonl] log next to the campaign journal).  Spans nest through
    a per-domain stack; a span closed by an exception is still emitted
    (["ok":false]) before the exception continues unwinding, and modeled
    cost charged through {!add_cost} is attributed to the innermost open
    span.  All of it is inert while {!Control.enabled} is false. *)

type event = {
  name : string;
  attrs : (string * string) list;
  t_start : float;  (** unix epoch seconds *)
  dur_s : float;
  depth : int;  (** nesting depth on the emitting domain; 0 = top level *)
  domain : int;
  cost : int64;  (** modeled cost attributed via {!add_cost}; 0 if none *)
  ok : bool;  (** [false] when the span unwound on an exception *)
  trace : string;  (** campaign trace id; [""] outside any trace context *)
  span_id : int;  (** unique within the trace (pid-composed across processes) *)
  parent : int;  (** enclosing span id; 0 = root *)
}

val to_json : event -> string
(** One-line JSON object (the JSONL schema of DESIGN.md §12). *)

val json_escape : string -> string
(** The body of a JSON string literal holding [s]: quote, backslash,
    newline, TAB and CR get their short escapes, other control characters
    [\u00XX].  Shared by the trace lines and {!Serve}'s [/status]. *)

val with_ : ?attrs:(string * string) list -> ?cost:int64 -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a named span.  Exceptions propagate with their
    original backtrace after the span event is emitted. *)

val add_cost : int64 -> unit
(** Attribute modeled-cost units to the innermost open span on this
    domain; no-op outside any span or when disabled. *)

val emit :
  ?attrs:(string * string) list ->
  ?cost:int64 ->
  ?ok:bool ->
  ?span_id:int ->
  name:string ->
  dur_s:float ->
  unit ->
  unit
(** Emit a leaf event whose duration was measured externally (used by
    {!Phase.time}); recorded at the current nesting depth.  [span_id] lets
    a caller pre-allocate the id with {!fresh_id} — the coordinator hands
    each chunk's dispatch-span id to the worker in Assign before the span
    itself is emitted at chunk completion. *)

val depth : unit -> int
(** Current span-stack depth on this domain (for tests). *)

(** {1 Distributed trace context (DESIGN.md §17)} *)

val fresh_id : unit -> int
(** Allocate a span id unique across the fleet (pid folded into the high
    bits). *)

val set_context : ?trace:string -> ?parent:int -> unit -> unit
(** Set the process-wide trace context.  The coordinator opens one trace
    per campaign; a worker adopts the (trace, dispatch-span-id) pair from
    each Assign frame so its spans re-parent under the coordinator's
    per-chunk span. *)

val clear_context : unit -> unit

val forward : event -> unit
(** Write an event produced by another process into the local sink without
    feeding the metrics registry (the producer already counted it, and its
    registry arrives separately via Metrics_delta). *)

(** {1 Sinks} *)

val set_file_sink : string -> unit
(** Route events to [path] as JSON lines (truncates; closes any previous
    sink). *)

val set_memory_sink : unit -> unit
(** Route events to an in-memory buffer, read back with {!drain}. *)

val drain : unit -> event list
(** Memory-sink events in emission order; clears the buffer. *)

val close_sink : unit -> unit
(** Flush and close the active sink (always safe to call).  Also installed
    as an [at_exit] hook so abnormal exits don't drop the buffered trace
    tail. *)

val sink_active : unit -> bool
(** True when a file or memory sink is installed. *)
