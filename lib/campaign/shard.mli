(** Wire protocol of the sharded campaign service (DESIGN.md §16).

    The checkpoint journal promoted to a process boundary: the
    {!Coordinator} shards the cell matrix into chunks, {!Worker} processes
    resolve them and stream each sample back as its journal line
    ({!Journal.render}) inside a length-prefixed [Outcome] frame, plus
    heartbeats, quarantines and chunk summaries.
    Encoding uses the strict {!Refine_support.Wire} codec: every frame
    round-trips exactly, no strict prefix of a valid frame decodes, and
    trailing bytes are rejected (all three pinned by [test_shard]'s qcheck
    properties). *)

val version : int
(** v2: observability plane — [Init] carries obs/trace switches, [Assign]
    carries the trace context, workers stream [Metrics_delta] /
    [Trace_batch] frames (DESIGN.md §17).
    v3: fault models — [Assign] carries the cell's fault model and
    [Outcome] entries echo it back (DESIGN.md §18).
    v4: [Init] carries the whole {!Refine_core.Tool.quotas} record.
    v5: [Init] drops the MIR-verifier switch (the end-of-MIR verifier
    always runs) and the heartbeat interval ({!heartbeat_s}).
    v6: [Init] drops the artifact-cache switch, and [Outcome] carries the
    sample's journal line; v5 [Init] and [Outcome] payloads do not
    decode.
    v7: [Init]'s quota record is the output cap alone (v6 carried three
    more quota fields); a v6 [Init] payload does not decode. *)

val heartbeat_s : float
(** Minimum seconds between a busy worker's [Heartbeat] frames (20 ms). *)

exception Protocol_mismatch of { expected_version : int; tag : int }
(** {!decode} met a frame tag this protocol version does not know — a
    version skew between coordinator and worker, reported with the local
    {!version} and the offending tag so the error names both sides. *)

type config = {
  seed : int;
  retries : int;
  cost_cap : int64 option;
  quotas : Refine_core.Tool.quotas;  (** the sandbox envelope, forwarded whole *)
  verify_each : bool;
  pipeline : string option;  (** [Pipeline.print] form; [None] = tool default *)
  obs : bool;  (** worker enables its registry and forwards deltas *)
  trace : bool;  (** worker buffers spans and ships [Trace_batch] frames *)
}
(** Campaign-wide settings, sent once per worker as the [Init] frame —
    the worker-process mirror of {!Experiment.run_cell}'s options. *)

val default_config : config

type chunk_summary = {
  chunk : int;
  program : string;
  tool : string;
  quarantined : bool;
  golden_exit : int;
  dyn_count : int64;
  profile_cost : int64;
  golden_output_len : int;
  static_instrumented : int;
  instrument_s : float;
  compile_s : float;
  execute_s : float;
  harness_s : float;
  failures : (int * int * string) list;
      (** (sample, attempts, message) of retry-exhausted samples *)
}
(** Per-chunk completion report: the cell metadata the coordinator cannot
    derive from outcome frames alone (profile, instrumentation site count,
    wall-clock phase attribution, failure detail). *)

type frame =
  | Hello of { pid : int; version : int }  (** worker → coordinator, once *)
  | Init of config  (** coordinator → worker, once *)
  | Assign of {
      chunk : int;
      program : string;
      source : string;  (** program source travels inline — no shared filesystem *)
      tool : string;  (** {!Refine_core.Tool.kind_name} *)
      model : string;  (** {!Refine_core.Fault.string_of_model} *)
      samples : int;  (** full cell sample count — keys the PRNG splits *)
      todo : int list;  (** sample indices this chunk must resolve *)
      trace : string;  (** campaign trace id; [""] when tracing is off *)
      parent_span : int;  (** coordinator's dispatch-span id for this chunk *)
    }
  | Outcome of { chunk : int; entry : Journal.entry }
      (** one resolved sample, encoded as its {!Journal.render} line and
          decoded by {!Journal.parse}: the wire and the journal file share
          one decoder.  [entry.program] and [entry.tool] must hold no TAB
          or newline. *)
  | Quarantine of { program : string; tool : string; reason : string }
  | Chunk_done of chunk_summary
  | Chunk_failed of { chunk : int; message : string }
      (** non-quarantine preparation failure: the cell degrades *)
  | Heartbeat of { completed : int }
  | Shutdown  (** coordinator → worker: exit after the current frame *)
  | Metrics_delta of Refine_obs.Metrics.export_item list
      (** worker → coordinator: cumulative registry snapshot (the
          coordinator's {!Refine_obs.Metrics.merge_snapshot} turns it into
          a delta) *)
  | Trace_batch of Refine_obs.Span.event list
      (** worker → coordinator: buffered spans, already re-parented under
          the Assign trace context *)

val tool_of_name : string -> Refine_core.Tool.kind
(** {!Refine_core.Tool.kind_of_name}, with [Invalid_argument] on unknown
    names. *)

val encode : frame -> string
(** Unframed payload (tag byte + fields). *)

val decode : string -> frame
(** Inverse of {!encode}.  Raises {!Refine_support.Wire.Truncated} on a
    short buffer, {!Protocol_mismatch} on an unknown frame tag, and
    [Invalid_argument] on a malformed field (an [Outcome] whose string
    {!Journal.parse} rejects included) or trailing bytes. *)

val frame_name : frame -> string
(** Stable lowercase label, used by the [refine_shard_frames_total{type}]
    metric. *)

(** {1 Framed IO over file descriptors} *)

exception Protocol_error of string
(** A peer sent bytes that deframe but do not decode. *)

val write_fd : Unix.file_descr -> frame -> unit
(** Write one length-prefixed frame, looping until fully written.  Raises
    [Unix.Unix_error (EPIPE, _, _)] if the peer is gone (the coordinator
    treats that as a worker death). *)

type reader
(** Per-pipe incremental deframer. *)

val reader : unit -> reader

val drain :
  reader -> Unix.file_descr -> [ `Frames of frame list | `Eof of int ]
(** One [Unix.read] (call after [select] reports the fd readable), then
    every complete frame received so far, in order.  [`Eof torn] reports
    end-of-stream with the byte count of a torn trailing frame (peer
    killed mid-write) — those bytes are dropped, never mis-decoded. *)
