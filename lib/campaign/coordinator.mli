(** Shard coordinator (DESIGN.md §16): forks {!Worker} processes, shards
    the campaign matrix into chunks, streams resolved samples back as
    {!Shard} frames and aggregates them online.

    Fault model: a worker crash, SIGKILL, or hang (detected by heartbeat
    silence past [deadline_s] and converted to a SIGKILL) all converge on
    pipe EOF; the dead worker's in-flight chunk is requeued with its todo
    list minus the acknowledged samples, and the slot is respawned after a
    deterministic seeded backoff ({!Refine_support.Supervisor.backoff}),
    at most 3 times per worker slot.  Workers are this executable
    re-exec'd ([Sys.executable_name]: the embedding binary must call
    {!Worker.maybe_exec} first), heartbeating at most every 20 ms; a
    chunk reassigned more than 4 times is dropped (its samples counted in
    [refine_shard_lost_samples_total]).  Because every sample owns a
    deterministic PRNG split, the merged results are bit-identical to an
    uninterrupted single-process run with the same seed — the property the
    shard smoke tests pin by SIGKILLing a worker mid-campaign. *)

type chaos = {
  kill_worker : (int * int) option;
      (** [(slot, after)]: SIGKILL worker [slot] once [after] unique
          samples have been aggregated *)
  stop_worker : (int * int) option;
      (** SIGSTOP instead — a hang only the heartbeat deadline can reap *)
  abort_after : int option;
      (** simulate a coordinator crash: kill the workers after N unique
          samples and raise {!Aborted}; the journal then drives a resume *)
}

val no_chaos : chaos

type options = {
  workers : int;
  chunk_samples : int option;
      (** samples per dispatched chunk; [None] = pending / (workers * 2) *)
  deadline_s : float;
      (** silence threshold before a busy worker is SIGKILLed; must exceed
          the worst-case prepare time, which emits no heartbeats *)
  chaos : chaos;
  status : Refine_obs.Serve.t option;
      (** live status endpoint: the coordinator installs its [/status]
          provider (progress, per-worker liveness/restarts, rolling
          samples/s, ETA) and polls the server from its select loop; the
          caller owns create/close and may keep serving after return —
          the provider stays valid and reports [finished] *)
}

val default_options : options
(** 2 workers, automatic chunking, 30s deadline, no chaos, no status
    endpoint. *)

exception Aborted of int
(** Raised by the [abort_after] chaos hook with the number of samples
    aggregated before the simulated coordinator crash. *)

val run_matrix :
  ?options:options ->
  ?journal:Journal.t ->
  ?retries:int ->
  ?cost_cap:int64 ->
  ?quotas:Refine_core.Tool.quotas ->
  ?model:Refine_core.Fault.model ->
  ?pipeline:Refine_passes.Pipeline.spec ->
  ?verify_each:bool ->
  ?cache:bool ->
  samples:int ->
  seed:int ->
  (string * string) list ->
  Refine_core.Tool.kind list ->
  Experiment.cell list
(** The sharded twin of {!Experiment.run_matrix}: same matrix, same
    journal resume semantics (resolved samples load instead of re-running;
    journaled quarantines short-circuit), same bit-identical counts and
    injection costs for a given [seed] — pinned by the workers-vs-domains
    equality test.  [model] (default {!Refine_core.Fault.Reg_bit}) travels
    to workers in every [Assign] frame and stamps resolved entries, so
    per-model campaigns shard exactly like register-bit ones.  Differences: cells carry an empty [golden_output]
    (like CSV-loaded cells, only its length crosses the wire) and
    [timing] sums per-chunk attributions, so repeated chunk preparations
    legitimately inflate it relative to a single-process run.  The whole
    [quotas] record travels to workers in the [Init] frame.

    Observability plane (DESIGN.md §17): when {!Refine_obs.Control} is
    enabled, workers forward cumulative registry snapshots that are
    merged per-incarnation into the coordinator's registry — with
    cell-granular chunking ([chunk_samples = Some samples]) the merged
    counters equal the [--domains] single-process run.  When a span sink
    is active, one trace id spans the campaign and worker spans re-parent
    under per-chunk dispatch spans. *)
