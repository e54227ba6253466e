(* Shard coordinator (DESIGN.md §16).

   Forks N worker processes (the current executable re-exec'd with
   [REFINE_SHARD_WORKER=1]), shards the (program, tool, sample) matrix
   into chunks, and streams results back over pipes: each resolved sample
   arrives as an [Outcome] frame — a journal line on the wire — and is
   aggregated online, so the coordinator never holds more than the running
   contingency counts plus per-cell metadata.

   Fault tolerance is built from four mechanisms, each pinned by the shard
   smoke tests:

   - heartbeats: workers emit time-gated [Heartbeat] frames from the
     in-flight poll slot; a worker that goes silent past [deadline_s]
     while busy is SIGKILLed.  Death is then observed exactly once, as
     EOF on the worker's pipe — crash, kill and hang all converge on the
     same path.
   - kill-and-reassign: a dead worker's in-flight chunk is requeued with
     its todo list minus the samples already acknowledged, so no sample is
     lost or run twice.  Because every sample owns a deterministic PRNG
     split keyed by (seed, cell, index), the merged results are
     bit-identical to an uninterrupted single-process run.
   - restart with backoff: a dead worker slot is respawned after a
     deterministic, seeded exponential backoff (Supervisor.backoff), at
     most [max_restarts] times, after which the slot stays dead and the
     survivors absorb its share (graceful degradation).
   - work stealing: chunks are dispatched dynamically from one queue, so
     a fast worker drains the share of a slow one; the steal counter
     tracks cells served by more than one worker.

   A worker killed mid-write leaves a torn trailing frame; the strict Wire
   deframer never mis-decodes it — it is counted and dropped, and the
   partial chunk's unacknowledged samples are re-run elsewhere. *)

module E = Experiment
module J = Journal
module S = Shard
module T = Refine_core.Tool
module F = Refine_core.Fault
module Sup = Refine_support.Supervisor
module Obs = Refine_obs

type chaos = {
  kill_worker : (int * int) option;
      (* (slot, after): SIGKILL worker [slot] once [after] unique samples
         have been aggregated — the crash-recovery drill *)
  stop_worker : (int * int) option;
      (* (slot, after): SIGSTOP instead — a hang; only the heartbeat
         deadline can reap it *)
  abort_after : int option;
      (* simulate a coordinator crash: stop after N unique samples, kill
         the workers and raise [Aborted] — the journal then drives a
         resumed run *)
}

let no_chaos = { kill_worker = None; stop_worker = None; abort_after = None }

(* worker supervision; Supervisor.backoff spaces the restarts *)
let max_restarts = 3 (* respawns per worker slot before it stays dead *)
let max_chunk_reassigns = 4 (* reassignments per chunk before its samples are dropped *)
let backoff_base = 0.02
let backoff_cap = 0.5

type options = {
  workers : int;
  chunk_samples : int option; (* samples per chunk; None = pending/(workers*2) *)
  deadline_s : float;
      (* silence threshold before a busy worker is SIGKILLed; must exceed
         the worst-case prepare (compile + profile) time, which emits no
         heartbeats *)
  chaos : chaos;
  status : Obs.Serve.t option;
      (* live status endpoint, polled from the select loop; the
         coordinator installs its /status provider and marks it finished
         on return — the caller owns create/close *)
}

let default_options =
  {
    workers = 2;
    chunk_samples = None;
    deadline_s = 30.0;
    chaos = no_chaos;
    status = None;
  }

exception Aborted of int

(* ---- metrics ---------------------------------------------------------- *)

let m_workers = Obs.Metrics.gauge ~help:"live shard worker processes" "refine_shard_workers"

let m_restarts =
  Obs.Metrics.counter ~help:"shard worker respawns after a death" "refine_shard_worker_restarts_total"

let m_steals =
  Obs.Metrics.counter ~help:"chunks picked up by a worker other than the cell's first server"
    "refine_shard_steals_total"

let m_reassigned =
  Obs.Metrics.counter ~help:"samples requeued after their worker died mid-chunk"
    "refine_shard_reassigned_cells_total"

let m_torn =
  Obs.Metrics.counter ~help:"torn trailing frames dropped at worker EOF"
    "refine_shard_torn_frames_total"

let m_dup =
  Obs.Metrics.counter ~help:"duplicate sample outcomes discarded by the coordinator"
    "refine_shard_duplicate_outcomes_total"

let m_lost =
  Obs.Metrics.counter ~help:"samples abandoned after exhausting workers or reassignments"
    "refine_shard_lost_samples_total"

let m_hb =
  Obs.Metrics.histogram ~help:"gap between frames from a busy worker"
    ~buckets:[| 0.001; 0.005; 0.01; 0.025; 0.05; 0.1; 0.25; 0.5; 1.0 |]
    "refine_shard_heartbeat_seconds"

let m_frames name =
  Obs.Metrics.counter ~help:"shard frames received by the coordinator"
    ~labels:[ ("type", name) ]
    "refine_shard_frames_total"

(* ---- per-cell aggregation state --------------------------------------- *)

type cell_state = {
  program : string;
  source : string;
  tool : T.kind;
  tool_name : string;
  samples : int;
  resolved : (int, J.entry) Hashtbl.t; (* unique resolved samples, by index *)
  mutable quarantined : string option;
  mutable degraded : string option; (* Chunk_failed message *)
  mutable summary : S.chunk_summary option; (* profile metadata, from the first chunk *)
  mutable timing : E.timing; (* summed over chunks *)
  mutable failures : (int * int * string) list;
  mutable served_by : int list; (* worker slots that ran chunks of this cell *)
}

let cell_alive c = c.quarantined = None && c.degraded = None

type chunk = {
  id : int;
  cell : cell_state;
  mutable todo : int list; (* shrinks as outcomes are acknowledged *)
  mutable reassigns : int;
  mutable assigned_at : float; (* when last handed to a worker; for trace spans *)
  mutable span_id : int; (* dispatch-span id of the current assignment; 0 = none *)
}

(* the compile/run spans live in the worker processes, so the coordinator
   emits its own dispatch-level span per chunk and hands its id to the
   worker in Assign — worker spans re-parent under it, and the merged
   JSONL trace reads as one causal timeline: campaign → chunk dispatch →
   prepare/sample/execute in the worker *)
let emit_chunk_span ~now ~ok ~slot ch =
  if ch.assigned_at > 0.0 then
    Obs.Span.emit
      ?span_id:(if ch.span_id = 0 then None else Some ch.span_id)
      ~attrs:
        [
          ("program", ch.cell.program);
          ("tool", ch.cell.tool_name);
          ("chunk", string_of_int ch.id);
          ("worker", string_of_int slot);
        ]
      ~ok ~name:"chunk" ~dur_s:(now -. ch.assigned_at) ()

type wstate = Idle | Busy of chunk | Waiting of float (* respawn at *) | Dead

type worker = {
  slot : int;
  mutable pid : int;
  mutable to_w : Unix.file_descr;
  mutable from_w : Unix.file_descr;
  mutable reader : S.reader;
  mutable state : wstate;
  mutable last_seen : float;
  mutable restarts : int;
  mutable kill_sent : bool;
  mutable alive : bool; (* pid running, fds open *)
  mutable merge : Obs.Metrics.merge_state;
      (* last-applied telemetry per worker *incarnation*: reset on respawn,
         because a fresh process restarts its cumulative counters from
         zero.  The dead incarnation's last-shipped totals stay merged;
         whatever it hadn't shipped died with it — the metrics mirror of
         the journal's torn-line policy. *)
}

let add_timing (a : E.timing) (s : S.chunk_summary) =
  {
    E.instrument_s = a.E.instrument_s +. s.S.instrument_s;
    compile_s = a.E.compile_s +. s.S.compile_s;
    execute_s = a.E.execute_s +. s.S.execute_s;
    harness_s = a.E.harness_s +. s.S.harness_s;
  }

(* ---- worker processes ------------------------------------------------- *)

let worker_env ~in_fd ~out_fd =
  let keep kv =
    let own p = String.length kv >= String.length p && String.sub kv 0 (String.length p) = p in
    not (own (Worker.env_var ^ "=") || own (Worker.fds_var ^ "="))
  in
  Array.of_list
    ((Worker.env_var ^ "=1")
    :: Printf.sprintf "%s=%d,%d" Worker.fds_var (Worker.int_of_fd in_fd)
         (Worker.int_of_fd out_fd)
    :: List.filter keep (Array.to_list (Unix.environment ())))

(* The frame pipes are passed as inherited fds by number (fds_var), NOT as
   stdin/stdout: a worker inherits the coordinator's std streams, so a
   library that prints at init (test runners love to) cannot corrupt the
   protocol.  Parent ends are close-on-exec so one worker never holds
   another worker's pipe open. *)
let spawn ~config w =
  let c2w_r, c2w_w = Unix.pipe () in
  let w2c_r, w2c_w = Unix.pipe () in
  Unix.set_close_on_exec c2w_w;
  Unix.set_close_on_exec w2c_r;
  let env = worker_env ~in_fd:c2w_r ~out_fd:w2c_w in
  let exe = Sys.executable_name in
  let pid = Unix.create_process_env exe [| exe |] env Unix.stdin Unix.stdout Unix.stderr in
  Unix.close c2w_r;
  Unix.close w2c_w;
  w.pid <- pid;
  w.to_w <- c2w_w;
  w.from_w <- w2c_r;
  w.reader <- S.reader ();
  w.state <- Idle;
  w.last_seen <- Unix.gettimeofday ();
  w.kill_sent <- false;
  w.alive <- true;
  w.merge <- Obs.Metrics.merge_source ();
  S.write_fd c2w_w (S.Init config)

let sigkill w = try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ()

let reap w =
  (try Unix.close w.to_w with Unix.Unix_error _ -> ());
  (try Unix.close w.from_w with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] w.pid) with Unix.Unix_error _ -> ()

(* ---- the campaign ----------------------------------------------------- *)

let run_matrix ?(options = default_options) ?journal ?(retries = 0) ?cost_cap
    ?(quotas = T.default_quotas) ?(model = F.Reg_bit) ?pipeline ?(verify_each = false)
    ?(cache = true) ~samples ~seed
    (programs : (string * string) list) (tools : T.kind list) : E.cell list =
  if options.workers < 1 then invalid_arg "Coordinator.run_matrix: workers < 1";
  let model_name = F.string_of_model model in
  (* a worker dying mid-assign must surface as EPIPE, not kill us *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let config =
    {
      S.seed;
      retries;
      cost_cap;
      quotas;
      verify_each;
      cache;
      pipeline = Option.map Refine_passes.Pipeline.print pipeline;
      obs = Obs.Control.enabled ();
      trace = Obs.Span.sink_active ();
    }
  in
  (* one trace per campaign; the id stamps the coordinator's chunk spans
     and travels to workers in every Assign *)
  let trace_id =
    if config.S.trace then Printf.sprintf "c%d-%x" (Unix.getpid ()) (seed land 0xffffff) else ""
  in
  if trace_id <> "" then Obs.Span.set_context ~trace:trace_id ();
  (* cells, prefilled from the resume journal (same semantics as
     Experiment.run_cell: resolved samples load instead of re-running, a
     journaled quarantine short-circuits the cell) *)
  let cells =
    List.concat_map
      (fun (program, source) ->
        List.map
          (fun tool ->
            let tool_name = T.kind_name tool in
            let resolved = Hashtbl.create 64 in
            let quarantined = ref None in
            (match journal with
            | None -> ()
            | Some j -> (
              match J.quarantine_reason j ~program ~tool:tool_name with
              | Some reason ->
                quarantined := Some reason;
                E.note_quarantined reason
              | None ->
                Hashtbl.iter
                  (fun i e ->
                    if i >= 0 && i < samples then begin
                      E.note_resumed ();
                      Hashtbl.replace resolved i e
                    end)
                  (J.completed ~model:model_name j ~program ~tool:tool_name)));
            {
              program;
              source;
              tool;
              tool_name;
              samples;
              resolved;
              quarantined = !quarantined;
              degraded = None;
              summary = None;
              timing = E.zero_timing;
              failures = [];
              served_by = [];
            })
          tools)
      programs
  in
  let chunks_by_id : (int, chunk) Hashtbl.t = Hashtbl.create 64 in
  let cells_by_key : (string, cell_state) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun c -> Hashtbl.replace cells_by_key (c.program ^ "\000" ^ c.tool_name) c) cells;
  let queue : chunk Queue.t = Queue.create () in
  let next_id = ref 0 in
  List.iter
    (fun cell ->
      if cell_alive cell then begin
        let pending = ref [] in
        for i = samples - 1 downto 0 do
          if not (Hashtbl.mem cell.resolved i) then pending := i :: !pending
        done;
        let size =
          match options.chunk_samples with
          | Some n -> max 1 n
          | None -> max 1 (List.length !pending / (options.workers * 2))
        in
        let push todo =
          let ch = { id = !next_id; cell; todo; reassigns = 0; assigned_at = 0.0; span_id = 0 } in
          incr next_id;
          Hashtbl.replace chunks_by_id ch.id ch;
          Queue.add ch queue
        in
        let rec split = function
          | [] -> ()
          | todo ->
            let rec take n = function
              | x :: tl when n > 0 ->
                let head, rest = take (n - 1) tl in
                (x :: head, rest)
              | rest -> ([], rest)
            in
            let head, rest = take size todo in
            push head;
            split rest
        in
        (* a cell fully resolved from the journal still needs one empty
           assignment: Experiment.run_cell always prepares (compile +
           profile), so the resumed cell must carry the same dyn_count /
           profile_cost / static-site numbers — the Chunk_done summary is
           the only way they reach the coordinator *)
        if !pending = [] then push [] else split !pending
      end)
    cells;
  (* worker slots *)
  let workers =
    Array.init options.workers (fun slot ->
        {
          slot;
          pid = -1;
          to_w = Unix.stdin;
          from_w = Unix.stdin;
          reader = S.reader ();
          state = Dead;
          last_seen = 0.0;
          restarts = 0;
          kill_sent = false;
          alive = false;
          merge = Obs.Metrics.merge_source ();
        })
  in
  let alive_count () =
    Array.fold_left (fun n w -> if w.alive then n + 1 else n) 0 workers
  in
  let unique = ref 0 in
  let aborted = ref false in
  let kill_fired = ref false in
  let stop_fired = ref false in
  let check_chaos () =
    (match options.chaos.kill_worker with
    | Some (slot, after) when (not !kill_fired) && !unique >= after ->
      kill_fired := true;
      if slot >= 0 && slot < Array.length workers && workers.(slot).alive then
        sigkill workers.(slot)
    | _ -> ());
    (match options.chaos.stop_worker with
    | Some (slot, after) when (not !stop_fired) && !unique >= after ->
      stop_fired := true;
      if slot >= 0 && slot < Array.length workers && workers.(slot).alive then (
        try Unix.kill workers.(slot).pid Sys.sigstop with Unix.Unix_error _ -> ())
    | _ -> ());
    match options.chaos.abort_after with
    | Some after when !unique >= after -> aborted := true
    | _ -> ()
  in
  (* an empty-todo chunk is still worth running while its cell lacks a
     profile summary (summary-only assignment, see the chunking above) *)
  let chunk_live ch = cell_alive ch.cell && (ch.todo <> [] || ch.cell.summary = None) in
  let requeue ch =
    if chunk_live ch then begin
      ch.reassigns <- ch.reassigns + 1;
      if ch.reassigns > max_chunk_reassigns then begin
        Obs.Metrics.add m_lost (List.length ch.todo);
        Printf.eprintf "[shard] chunk %d abandoned after %d reassignments (%d samples lost)\n%!"
          ch.id ch.reassigns (List.length ch.todo)
      end
      else begin
        Obs.Metrics.add m_reassigned (List.length ch.todo);
        Queue.add ch queue
      end
    end
  in
  let handle_death w =
    if w.alive then begin
      reap w;
      w.alive <- false;
      (match w.state with
      | Busy ch ->
        emit_chunk_span ~now:(Unix.gettimeofday ()) ~ok:false ~slot:w.slot ch;
        requeue ch
      | _ -> ());
      if w.restarts < max_restarts then begin
        w.restarts <- w.restarts + 1;
        Obs.Metrics.inc m_restarts;
        let delay =
          Sup.backoff ~base:backoff_base ~cap:backoff_cap
            ~seed:(seed lxor w.slot) w.restarts
        in
        w.state <- Waiting (Unix.gettimeofday () +. delay)
      end
      else w.state <- Dead;
      Obs.Metrics.set m_workers (float_of_int (alive_count ()))
    end
  in
  let rec next_chunk () =
    match Queue.take_opt queue with
    | None -> None
    | Some ch -> if chunk_live ch then Some ch else next_chunk ()
  in
  let try_assign w =
    match next_chunk () with
    | None -> ()
    | Some ch ->
      let cell = ch.cell in
      if ch.reassigns = 0 && cell.served_by <> [] && not (List.mem w.slot cell.served_by) then
        Obs.Metrics.inc m_steals;
      if not (List.mem w.slot cell.served_by) then cell.served_by <- w.slot :: cell.served_by;
      w.state <- Busy ch;
      ch.assigned_at <- Unix.gettimeofday ();
      (* each dispatch is its own span: a reassigned chunk gets a fresh id,
         so the death-span and the retry-span stay distinct in the trace *)
      ch.span_id <- (if trace_id = "" then 0 else Obs.Span.fresh_id ());
      (try
         S.write_fd w.to_w
           (S.Assign
              {
                chunk = ch.id;
                program = cell.program;
                source = cell.source;
                tool = cell.tool_name;
                model = model_name;
                samples = cell.samples;
                todo = ch.todo;
                trace = trace_id;
                parent_span = ch.span_id;
              })
       with Unix.Unix_error ((Unix.EPIPE | Unix.EBADF), _, _) ->
         (* the worker died before the assign: requeue (via Busy state)
            and reap *)
         handle_death w)
  in
  let handle_frame ~now w frame =
    Obs.Metrics.inc (m_frames (S.frame_name frame));
    (match frame with
    | S.Heartbeat _ -> Obs.Metrics.observe m_hb (now -. w.last_seen)
    | _ -> ());
    w.last_seen <- now;
    match frame with
    | S.Hello { version; _ } ->
      if version <> S.version then begin
        Printf.eprintf "[shard] worker %d speaks protocol v%d, coordinator v%d — killing\n%!"
          w.slot version S.version;
        sigkill w;
        handle_death w
      end
    | S.Heartbeat _ -> ()
    | S.Outcome { chunk = id; entry } -> (
      match Hashtbl.find_opt chunks_by_id id with
      | None -> ()
      | Some ch ->
        let cell = ch.cell in
        ch.todo <- List.filter (fun i -> i <> entry.J.sample) ch.todo;
        if Hashtbl.mem cell.resolved entry.J.sample then Obs.Metrics.inc m_dup
        else begin
          (* normalize the identity to the coordinator's view of the cell *)
          let entry =
            { entry with J.program = cell.program; tool = cell.tool_name; model = model_name }
          in
          Hashtbl.replace cell.resolved entry.J.sample entry;
          incr unique;
          E.note_sample entry.J.outcome;
          (match journal with Some j -> J.record j entry | None -> ());
          check_chaos ()
        end)
    | S.Quarantine { program; tool; reason } -> (
      match Hashtbl.find_opt cells_by_key (program ^ "\000" ^ tool) with
      | None -> ()
      | Some cell ->
        if cell.quarantined = None then begin
          cell.quarantined <- Some reason;
          E.note_quarantined reason;
          match journal with
          | Some j -> J.record_quarantine j ~program ~tool ~reason
          | None -> ()
        end)
    | S.Chunk_done s -> (
      (match w.state with
      | Busy ch when ch.id = s.S.chunk -> w.state <- Idle
      | _ -> ());
      match Hashtbl.find_opt chunks_by_id s.S.chunk with
      | None -> ()
      | Some ch ->
        let cell = ch.cell in
        emit_chunk_span ~now ~ok:true ~slot:w.slot ch;
        if not s.S.quarantined then begin
          if cell.summary = None then cell.summary <- Some s;
          cell.timing <- add_timing cell.timing s;
          cell.failures <- cell.failures @ s.S.failures
        end;
        (* defensive: a summary with unresolved todo (cancelled samples)
           goes back to the queue *)
        if ch.todo <> [] && cell_alive cell then requeue ch)
    | S.Chunk_failed { chunk = id; message } -> (
      (match w.state with
      | Busy ch when ch.id = id -> w.state <- Idle
      | _ -> ());
      match Hashtbl.find_opt chunks_by_id id with
      | None -> ()
      | Some ch -> if ch.cell.degraded = None then ch.cell.degraded <- Some message)
    | S.Metrics_delta items ->
      (* cumulative snapshot → per-incarnation delta → local registry;
         after the last chunk's ship this registry is the fleet union *)
      Obs.Metrics.merge_snapshot w.merge items
    | S.Trace_batch events ->
      (* already re-parented by the worker's trace context; sink-only so
         span metrics (which arrive via deltas) are not double counted *)
      List.iter Obs.Span.forward events
    | S.Init _ | S.Assign _ | S.Shutdown ->
      Printf.eprintf "[shard] worker %d sent coordinator frame %s — killing\n%!" w.slot
        (S.frame_name frame);
      sigkill w;
      handle_death w
  in
  let process w =
    match S.drain w.reader w.from_w with
    | `Eof torn ->
      if torn > 0 then Obs.Metrics.inc m_torn;
      handle_death w
    | `Frames fs ->
      let now = Unix.gettimeofday () in
      List.iter (fun f -> if w.alive then handle_frame ~now w f) fs
    | exception S.Protocol_error msg ->
      Printf.eprintf "[shard] worker %d: %s — killing\n%!" w.slot msg;
      sigkill w;
      handle_death w
    | exception S.Protocol_mismatch { expected_version; tag } ->
      (* version skew, not corruption: the worker is a different build *)
      Printf.eprintf
        "[shard] worker %d sent frame tag %d unknown to protocol v%d — version skew, killing\n%!"
        w.slot tag expected_version;
      sigkill w;
      handle_death w
    | exception Unix.Unix_error _ -> handle_death w
  in
  (* live status endpoint: install the /status provider over this
     campaign's aggregation state; polled from the select loop below *)
  let finished = ref false in
  (match options.status with
  | None -> ()
  | Some srv ->
    Obs.Serve.set_status srv (fun () ->
        let now = Unix.gettimeofday () in
        let sdone, cdone, quar =
          List.fold_left
            (fun (sd, cd, q) c ->
              match (c.quarantined, c.degraded) with
              | Some _, _ -> (sd + c.samples, cd + 1, q + 1)
              | _, Some _ -> (sd + c.samples, cd + 1, q)
              | None, None ->
                let r = Hashtbl.length c.resolved in
                (sd + r, (if r >= c.samples then cd + 1 else cd), q))
            (0, 0, 0) cells
        in
        {
          Obs.Serve.p_samples_done = sdone;
          p_samples_total = List.length cells * samples;
          p_cells_done = cdone;
          p_cells_total = List.length cells;
          p_cells_quarantined = quar;
          p_workers =
            Some
              (Array.to_list workers
              |> List.map (fun w ->
                     {
                       Obs.Serve.w_slot = w.slot;
                       w_pid = w.pid;
                       w_alive = w.alive;
                       w_state =
                         (match w.state with
                         | Idle -> "idle"
                         | Busy _ -> "busy"
                         | Waiting _ -> "waiting"
                         | Dead -> "dead");
                       w_last_seen_s =
                         (if w.last_seen > 0.0 then now -. w.last_seen else -1.0);
                       w_restarts = w.restarts;
                     }));
          p_finished = !finished;
        }));
  let poll_status () = Option.iter Obs.Serve.poll options.status in
  (* launch *)
  Array.iter
    (fun w -> try spawn ~config w with Unix.Unix_error _ -> w.state <- Dead)
    workers;
  Obs.Metrics.set m_workers (float_of_int (alive_count ()));
  let work_left () =
    (not (Queue.is_empty queue))
    || Array.exists (fun w -> match w.state with Busy _ -> true | _ -> false) workers
  in
  let any_slot () =
    Array.exists (fun w -> match w.state with Dead -> false | _ -> true) workers
  in
  while (not !aborted) && work_left () && any_slot () do
    let now = Unix.gettimeofday () in
    Array.iter
      (fun w ->
        match w.state with
        | Waiting t when now >= t -> (
          try spawn ~config w with Unix.Unix_error _ -> w.state <- Dead)
        | _ -> ())
      workers;
    Obs.Metrics.set m_workers (float_of_int (alive_count ()));
    Array.iter (fun w -> if w.alive && w.state = Idle then try_assign w) workers;
    let readable_of =
      Array.to_list workers |> List.filter (fun w -> w.alive) |> List.map (fun w -> (w.from_w, w))
    in
    let srv_fds = match options.status with Some s -> Obs.Serve.fds s | None -> [] in
    (if readable_of = [] && srv_fds = [] then Unix.sleepf 0.005
     else
       match Unix.select (List.map fst readable_of @ srv_fds) [] [] 0.05 with
       | readable, _, _ ->
         List.iter
           (fun fd ->
             match List.assoc_opt fd readable_of with Some w -> process w | None -> ())
           readable
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    poll_status ();
    let now = Unix.gettimeofday () in
    Array.iter
      (fun w ->
        match w.state with
        | Busy _ when w.alive && (not w.kill_sent) && now -. w.last_seen > options.deadline_s ->
          Printf.eprintf "[shard] worker %d silent for %.2fs — SIGKILL\n%!" w.slot
            (now -. w.last_seen);
          w.kill_sent <- true;
          sigkill w
        | _ -> ())
      workers
  done;
  (* shutdown: aborted runs kill outright, clean runs ask politely *)
  Array.iter
    (fun w ->
      if w.alive then begin
        if !aborted then sigkill w
        else (try S.write_fd w.to_w S.Shutdown with Unix.Unix_error _ -> ());
        reap w;
        w.alive <- false
      end)
    workers;
  Obs.Metrics.set m_workers 0.0;
  finished := true;
  poll_status ();
  if trace_id <> "" then Obs.Span.clear_context ();
  if !aborted then raise (Aborted !unique);
  (* anything still queued ran out of workers *)
  let stranded =
    Queue.fold
      (fun n ch -> if cell_alive ch.cell then n + List.length ch.todo else n)
      0 queue
  in
  if stranded > 0 then begin
    Obs.Metrics.add m_lost stranded;
    Printf.eprintf "[shard] %d samples stranded: every worker slot is dead\n%!" stranded
  end;
  (* fold the aggregation state into ordinary campaign cells *)
  List.map
    (fun c ->
      match (c.quarantined, c.degraded) with
      | Some reason, _ ->
        E.quarantined_cell ~program:c.program ~tool:c.tool ~model ~samples:c.samples reason
      | None, Some message ->
        E.degraded_cell ~model ~program:c.program ~tool:c.tool ~samples:c.samples
          (Failure message)
      | None, None ->
        let counts, injection_cost =
          Hashtbl.fold
            (fun _ (e : J.entry) (acc, cost) ->
              (E.add_outcome acc e.J.outcome, Int64.add cost e.J.cost))
            c.resolved (E.zero, 0L)
        in
        (* like CSV-loaded cells, the golden output itself stays with the
           worker — only its length crossed the wire *)
        let profile =
          match c.summary with
          | Some s ->
            {
              F.golden_output = "";
              golden_exit = s.S.golden_exit;
              dyn_count = s.S.dyn_count;
              profile_cost = s.S.profile_cost;
            }
          | None -> { F.golden_output = ""; golden_exit = 0; dyn_count = 0L; profile_cost = 0L }
        in
        E.note_cell ();
        {
          E.program = c.program;
          tool = c.tool;
          model;
          samples = c.samples;
          counts;
          injection_cost;
          profile;
          static_instrumented =
            (match c.summary with Some s -> s.S.static_instrumented | None -> 0);
          failures =
            List.map
              (fun (index, attempts, msg) ->
                { Sup.index; attempts; exn = Failure msg; backtrace = "" })
              c.failures;
          timing = c.timing;
          quarantined = None;
        })
    cells
