(** Supervised task execution for long-running fault-injection campaigns.

    The campaign's one domain pool: each task is isolated so one exception
    marks that task failed (with captured backtrace) instead of aborting
    the pool, retryable errors are re-attempted with exponential backoff,
    and a cooperative cancellation token lets a watchdog or a campaign
    interrupt stop the pool — including work in flight, for tasks that
    poll {!check}. *)

(** Cooperative cancellation token, shared between the pool, its watchdog
    and (optionally) the task bodies themselves. *)
module Cancel : sig
  type t

  val create : unit -> t

  val cancel : ?reason:string -> t -> unit
  (** Idempotent; the first cancellation's [reason] is kept. *)

  val cancelled : t -> bool
  val reason : t -> string option
end

exception Cancelled of string
(** Raised by {!check} when the token fires. *)

exception Non_retryable of exn
(** Wrap a task exception to mark it deterministic: {!default_policy}
    refuses to retry it (a retry would only reproduce the failure — e.g. a
    quarantined cell or a structurally invalid instrumented binary).  The
    recorded {!failure.exn} is the unwrapped payload. *)

val check : Cancel.t -> unit
(** Poll point for task bodies: raises {!Cancelled} if the token is set.
    Suitable as an [Exec.run ~poll] callback to abort in-flight samples. *)

type failure = {
  index : int;  (** task index as passed to [f] *)
  attempts : int;  (** attempts made, including the first *)
  exn : exn;  (** the last attempt's exception *)
  backtrace : string;
}

val string_of_failure : failure -> string

type 'a outcome =
  | Done of 'a * int  (** result and the number of attempts used *)
  | Failed of failure  (** retry budget exhausted (or not retryable) *)
  | Skipped  (** cancelled before completion *)

type policy = {
  max_retries : int;  (** extra attempts after the first *)
  retryable : exn -> bool;
  backoff_base : int;
      (** [Domain.cpu_relax] spins before the first retry; doubled on each
          subsequent retry (exponential backoff) *)
}

val default_policy : policy
(** No retries; everything except {!Cancelled} and {!Non_retryable} counts
    as retryable. *)

val backoff : ?base:float -> ?cap:float -> seed:int -> int -> float
(** [backoff ~seed attempt] is the wall-clock delay (seconds) before
    restart [attempt] (0-based) of a supervised process: exponential from
    [base] (default 0.05), capped at [cap] (default 2.0), with
    deterministic jitter derived from [(seed, attempt)] by FNV-1a — the
    same inputs always give the same delay, and sibling workers with
    different seeds never restart in lockstep.  Every delay lies in
    [\[base/2 * 2^attempt, cap\]].  [Invalid_argument] if [base <= 0] or
    [cap < base].  Used by the shard coordinator's worker restarts
    (DESIGN.md §16). *)

val default_domains : unit -> int
(** Worker domains a campaign uses unless told otherwise: the runtime's
    recommended domain count minus one (the caller's), at least 1. *)

val run :
  ?token:Cancel.t ->
  ?policy:policy ->
  ?watchdog:(unit -> bool) ->
  domains:int ->
  int ->
  (attempt:int -> int -> 'a) ->
  'a outcome array
(** [run ~domains n f] evaluates [f ~attempt i] for [i] in [0..n-1] over
    [domains] workers with dynamic load balancing, supervising each task
    per [policy].  [attempt] starts at 0 and increments on each retry, so
    the task can derive a fresh deterministic PRNG split per attempt.
    [watchdog] is polled between tasks; when it returns [true] the token is
    cancelled and remaining tasks are [Skipped].  Never raises for task
    failures: the result array holds every task's individual outcome. *)

val failures : 'a outcome array -> failure list
(** All [Failed] entries, in index order. *)
