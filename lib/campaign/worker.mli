(** Shard worker process (DESIGN.md §16): the executable re-exec'd by
    {!Coordinator} with [REFINE_SHARD_WORKER=1], speaking {!Shard} frames
    over the two pipes named in [REFINE_SHARD_FDS].  A chunk runs through
    the ordinary {!Experiment.run_cell}, given the chunk's sample indices
    as its [todo], a [record] callback that writes each sample's [Outcome]
    frame as it settles, and a time-gated heartbeat invoked from the
    in-flight poll slot — a hung sample stops heartbeating.  The
    [Quarantine] and [Chunk_done] frames are built from the returned
    cell.

    When [Init] enables the observability plane (DESIGN.md §17), the
    heartbeat slot also forwards telemetry: cumulative [Metrics_delta]
    snapshots and buffered [Trace_batch] spans, with a final flush before
    each chunk summary and on [Shutdown]. *)

val env_var : string
(** ["REFINE_SHARD_WORKER"] — set (non-empty, non-["0"]) in a spawned
    worker's environment. *)

val fds_var : string
(** ["REFINE_SHARD_FDS"] — ["<read>,<write>"], the inherited pipe fd
    numbers the worker must speak frames on.  Keeping the protocol off
    stdout means a library printing at init cannot corrupt it. *)

val int_of_fd : Unix.file_descr -> int
(** The raw fd number (Unix only) — how the coordinator renders
    {!fds_var}. *)

val maybe_exec : unit -> unit
(** Call first in every executable that may act as a coordinator: if
    {!env_var} is set in the environment, runs the worker loop on the pipes
    {!fds_var} names — send [Hello], then serve [Init] / [Assign] /
    [Shutdown] frames until [Shutdown] or EOF — and exits the process (0 on
    clean shutdown, 1 if {!fds_var} is missing or malformed or the loop
    fails).  A no-op otherwise. *)
