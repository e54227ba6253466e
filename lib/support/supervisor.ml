(* Supervised task execution for long-running campaigns.

   The paper's evaluation is a 44,856-experiment matrix; at that scale one
   runaway or crashing sample must not destroy hours of completed work.
   This module isolates each task: an exception marks that task failed
   (with its backtrace captured), retryable errors are re-attempted at
   once (a retry reruns deterministic work on a fresh PRNG split, so
   waiting would change nothing), and a cooperative cancellation token
   lets a watchdog or an interrupted campaign stop claiming new work —
   and, for tasks that poll, abort work already in flight.  Each task's
   outcome is reported as it settles, so a caller can checkpoint a task
   before the pool has finished the rest. *)

module Obs = Refine_obs

module Cancel = struct
  type t = { flag : bool Atomic.t; why : string Atomic.t; since : float Atomic.t }

  let create () = { flag = Atomic.make false; why = Atomic.make ""; since = Atomic.make 0.0 }

  let cancel ?(reason = "cancelled") t =
    (* first cancellation wins the reason slot *)
    if not (Atomic.get t.flag) then begin
      ignore (Atomic.compare_and_set t.why "" reason);
      Atomic.set t.since (Obs.Control.now ());
      Atomic.set t.flag true
    end

  let cancelled t = Atomic.get t.flag

  let reason t = if cancelled t then Some (Atomic.get t.why) else None

  (* Seconds between the token firing and a worker noticing; meaningful
     only once [cancelled t] holds. *)
  let latency t = Obs.Control.now () -. Atomic.get t.since
end

exception Cancelled of string

(* Wrapper for failures known to be deterministic: a retry would only
   reproduce them (a quarantined cell, a structurally invalid binary).
   [default_policy] refuses to retry it; the recorded [failure.exn] is the
   unwrapped payload. *)
exception Non_retryable of exn

let check token =
  if Cancel.cancelled token then
    raise (Cancelled (Option.value ~default:"cancelled" (Cancel.reason token)))

type failure = {
  index : int;
  attempts : int;  (* attempts made, including the first *)
  exn : exn;  (* the last attempt's exception *)
  backtrace : string;
}

let string_of_failure f =
  Printf.sprintf "task %d failed after %d attempt%s: %s" f.index f.attempts
    (if f.attempts = 1 then "" else "s")
    (Printexc.to_string f.exn)

type 'a outcome =
  | Done of 'a * int  (* result, attempts used *)
  | Failed of failure
  | Skipped  (* cancelled while in flight *)

type policy = {
  max_retries : int;  (* extra attempts after the first *)
  retryable : exn -> bool;
}

let default_policy =
  {
    max_retries = 0;
    retryable = (function Cancelled _ | Non_retryable _ -> false | _ -> true);
  }

(* PR-1 added retries, watchdog kills and cancellation, but they were
   invisible at runtime; these registry metrics (inert until
   [Obs.Control.enable]) make the supervisor's behavior under load a
   first-class measured quantity (DESIGN.md §12). *)
let m_tasks outcome =
  Obs.Metrics.counter ~help:"supervised tasks by final disposition" ~labels:[ ("outcome", outcome) ]
    "refine_supervisor_tasks_total"

(* pre-created handles: the per-task increment must not pay the registry's
   creation/dedup lookup *)
let m_tasks_done = m_tasks "done"
let m_tasks_failed = m_tasks "failed"
let m_tasks_cancelled = m_tasks "cancelled"

let m_retries =
  Obs.Metrics.counter ~help:"task retry attempts after a retryable failure"
    "refine_supervisor_retries_total"

let m_watchdog =
  Obs.Metrics.counter ~help:"watchdog deadline expirations that cancelled the pool"
    "refine_supervisor_watchdog_fires_total"

let m_cancel_latency =
  Obs.Metrics.histogram ~help:"seconds between a cancellation firing and a worker observing it"
    ~buckets:[| 1e-5; 1e-4; 1e-3; 1e-2; 0.1; 1.0; 10.0 |]
    "refine_supervisor_cancel_latency_seconds"

let note_cancel_seen token =
  if Obs.Control.enabled () then Obs.Metrics.observe m_cancel_latency (Cancel.latency token)

(* Deterministic seeded exponential backoff with cap, in seconds — the
   restart schedule of the shard coordinator (DESIGN.md §16) and of any
   other supervisor that waits in wall-clock time rather than spins.
   Deterministic jitter (FNV-1a of seed and attempt) decorrelates the
   restart times of sibling workers without sacrificing reproducibility:
   the same (seed, attempt) always yields the same delay, and every delay
   lies in [base/2 * 2^attempt, cap]. *)
let backoff ?(base = 0.05) ?(cap = 2.0) ~seed attempt =
  if base <= 0.0 || cap < base then invalid_arg "Supervisor.backoff";
  let expo = base *. (2.0 ** float_of_int (min attempt 32)) in
  let h = Prng.hash_string (Printf.sprintf "backoff\000%d\000%d" seed attempt) in
  let jitter = float_of_int (h land 0xffff) /. 65536.0 in
  Float.min cap (expo *. (0.5 +. (0.5 *. jitter)))

let default_domains () = max 1 (Domain.recommended_domain_count () - 1)

let run ?token ?(policy = default_policy) ?watchdog ~domains n
    (f : attempt:int -> int -> 'a) ~(settle : int -> 'a outcome -> unit) =
  if n > 0 then begin
    let token = match token with Some t -> t | None -> Cancel.create () in
    let domains = max 1 (min domains n) in
    let next = Atomic.make 0 in
    let poll_watchdog () =
      match watchdog with
      | Some expired when (not (Cancel.cancelled token)) && expired () ->
        Obs.Metrics.inc m_watchdog;
        Cancel.cancel ~reason:"watchdog deadline exceeded" token
      | _ -> ()
    in
    let run_task i =
      let rec attempt a =
        match f ~attempt:a i with
        | v ->
          Obs.Metrics.inc m_tasks_done;
          settle i (Done (v, a + 1))
        | exception Cancelled _ ->
          (* in-flight abort: the poll noticed the token *)
          Obs.Metrics.inc m_tasks_cancelled;
          note_cancel_seen token;
          settle i Skipped
        | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          if a < policy.max_retries && policy.retryable e
             && not (Cancel.cancelled token)
          then begin
            Obs.Metrics.inc m_retries;
            attempt (a + 1)
          end
          else begin
            Obs.Metrics.inc m_tasks_failed;
            let e = match e with Non_retryable e -> e | e -> e in
            settle i
              (Failed
                 {
                   index = i;
                   attempts = a + 1;
                   exn = e;
                   backtrace = Printexc.raw_backtrace_to_string bt;
                 })
          end
      in
      attempt 0
    in
    let worker () =
      let rec loop () =
        poll_watchdog ();
        if not (Cancel.cancelled token) then begin
          let i = Atomic.fetch_and_add next 1 in
          if i < n then begin
            run_task i;
            loop ()
          end
        end
        else
          (* between-task cancellation: how long after the token fired did
             this worker stop claiming work *)
          note_cancel_seen token
      in
      (* a raising [settle] stops the pool: the siblings claim no more
         work, and the exception is re-raised once every domain joined *)
      try loop ()
      with e ->
        Cancel.cancel ~reason:"settle raised" token;
        raise e
    in
    if domains = 1 then worker ()
    else begin
      let handles = Array.init (domains - 1) (fun _ -> Domain.spawn worker) in
      let first = ref None in
      let guard f = try f () with e -> if !first = None then first := Some e in
      guard worker;
      Array.iter (fun h -> guard (fun () -> Domain.join h)) handles;
      Option.iter raise !first
    end
  end
