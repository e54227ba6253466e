(* Shard worker process (DESIGN.md §16).

   A worker is the same executable as its coordinator, re-exec'd with
   [REFINE_SHARD_WORKER=1] in the environment and its two frame pipes
   named in [REFINE_SHARD_FDS]: one carries coordinator frames (Init,
   Assign, Shutdown), the other worker frames (Hello, Outcome, Quarantine,
   Heartbeat, Chunk_done / Chunk_failed).  Every embedding executable
   calls {!maybe_exec} before doing anything else, so the coordinator can
   spawn workers without a dedicated binary.

   The worker resolves an assigned chunk with the ordinary
   [Experiment.run_cell], wired up for streaming:

   - a [Journal.sink] whose [push] writes an [Outcome] frame — the
     checkpoint journal, promoted to the pipe;
   - [resolved] pre-marks every sample index *outside* the chunk's [todo]
     list as already done (with a placeholder entry the coordinator never
     sees), so run_cell executes exactly the todo set while still building
     the full [samples]-sized PRNG split array — the alignment that keeps
     sharded campaigns bit-identical to single-process ones;
   - [heartbeat] (invoked from the in-flight poll slot, every 1024
     simulated instructions) emits time-gated [Heartbeat] frames; a hung
     sample therefore goes silent instead of heartbeating through the
     hang, which is exactly what the coordinator's deadline wants to see.

   Chunks run with [~domains:1]: process-level sharding replaces domain
   parallelism, and a single-threaded worker needs no write lock on its
   pipe. *)

module S = Shard
module E = Experiment
module J = Journal
module F = Refine_core.Fault
module T = Refine_core.Tool
module M = Refine_obs.Metrics
module Sp = Refine_obs.Span

let env_var = "REFINE_SHARD_WORKER"

let fds_var = "REFINE_SHARD_FDS"

(* Unix.file_descr is the raw fd number on Unix; the coordinator passes
   its pipe ends by number ([fds_var]) so the protocol never touches
   stdout — a library printing at init (alcotest, qcheck seed lines)
   must not be able to corrupt the frame stream *)
let fd_of_int : int -> Unix.file_descr = Obj.magic
let int_of_fd : Unix.file_descr -> int = Obj.magic

(* placeholder for samples outside this chunk: run_cell treats them as
   resolved (skipping execution) but the worker discards its own counts —
   the coordinator aggregates from Outcome frames, so the values here are
   never observed *)
let placeholder ~program ~tool ~model sample =
  { J.program; tool; model; sample; outcome = F.Benign; cost = 0L; attempts = 0 }

(* Campaign-level counters the worker must never forward: the coordinator
   counts these itself from Outcome/Quarantine frames (which stays exact
   across worker crashes), and the worker-side values double-count anyway
   (placeholder pre-resolution inflates resumed-samples, per-chunk
   run_cell calls inflate cells). *)
let campaign_level =
  [
    "refine_campaign_samples_total";
    "refine_campaign_cells_total";
    "refine_campaign_resumed_samples_total";
    "refine_quarantined_cells_total";
  ]

let summary_of_cell ~chunk (cell : E.cell) : S.chunk_summary =
  {
    S.chunk;
    program = cell.E.program;
    tool = T.kind_name cell.E.tool;
    quarantined = cell.E.quarantined <> None;
    golden_exit = cell.E.profile.F.golden_exit;
    dyn_count = cell.E.profile.F.dyn_count;
    profile_cost = cell.E.profile.F.profile_cost;
    golden_output_len = String.length cell.E.profile.F.golden_output;
    static_instrumented = cell.E.static_instrumented;
    instrument_s = cell.E.timing.E.instrument_s;
    compile_s = cell.E.timing.E.compile_s;
    execute_s = cell.E.timing.E.execute_s;
    harness_s = cell.E.timing.E.harness_s;
    failures =
      List.map
        (fun (f : Refine_support.Supervisor.failure) ->
          (f.Refine_support.Supervisor.index, f.attempts, Printexc.to_string f.exn))
        cell.E.failures;
  }

let run_assign ~(config : S.config) ~send ~ship ~completed ~chunk ~program ~source ~tool
    ~model ~samples ~todo =
  let tool_kind = S.tool_of_name tool in
  let fault_model = F.model_of_string model in
  let in_todo = Hashtbl.create 64 in
  List.iter (fun i -> Hashtbl.replace in_todo i ()) todo;
  let resolved ~program ~tool ~model =
    let tbl = Hashtbl.create 64 in
    for i = 0 to samples - 1 do
      if not (Hashtbl.mem in_todo i) then
        Hashtbl.replace tbl i (placeholder ~program ~tool ~model i)
    done;
    tbl
  in
  let sink =
    {
      J.resolved;
      push =
        (fun e ->
          incr completed;
          send (S.Outcome { chunk; entry = e }));
      push_quarantine =
        (fun ~program ~tool ~reason -> send (S.Quarantine { program; tool; reason }));
      find_quarantine = (fun ~program:_ ~tool:_ -> None);
    }
  in
  let last_hb = ref (Unix.gettimeofday ()) in
  let heartbeat () =
    let now = Unix.gettimeofday () in
    if now -. !last_hb >= S.heartbeat_s then begin
      last_hb := now;
      send (S.Heartbeat { completed = !completed });
      (* the heartbeat poll slot doubles as the telemetry-forwarding slot:
         live dashboards see in-flight progress at heartbeat cadence *)
      ship ()
    end
  in
  let pipeline = Option.map Refine_passes.Pipeline.parse config.S.pipeline in
  match
    E.run_cell ~domains:1 ~sink ~heartbeat ~retries:config.S.retries
      ?cost_cap:config.S.cost_cap ~quotas:config.S.quotas ~model:fault_model
      ?pipeline ~verify_each:config.S.verify_each ~cache:config.S.cache ~samples
      ~seed:config.S.seed tool_kind ~program ~source ()
  with
  | cell ->
    (* final telemetry for this chunk must precede Chunk_done on the pipe:
       the coordinator may stop reading once every chunk is summarized, so
       ordering here is what makes fleet-merged counters exact *)
    ship ();
    send (S.Chunk_done (summary_of_cell ~chunk cell))
  | exception e ->
    (* non-quarantine preparation failure: the coordinator degrades the
       cell; the worker itself stays up for the next chunk *)
    ship ();
    send (S.Chunk_failed { chunk; message = Printexc.to_string e })

let main ~input ~output =
  (* the coordinator closing its end must surface as EOF on read, not a
     SIGPIPE death mid-frame *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let send frame = S.write_fd output frame in
  send (S.Hello { pid = Unix.getpid (); version = S.version });
  let reader = S.reader () in
  let config = ref S.default_config in
  let completed = ref 0 in
  let running = ref true in
  (* Telemetry forwarding: ship the registry as *cumulative* export items
     (changed-since-last-ship only, to bound frame size) plus any spans
     buffered in the memory sink.  The coordinator's merge_snapshot turns
     cumulative values into deltas, which makes a re-shipped or reordered
     snapshot harmless. *)
  let last_shipped : (string * M.labels, M.value) Hashtbl.t = Hashtbl.create 64 in
  let ship () =
    let c = !config in
    if c.S.obs then begin
      let items =
        List.filter
          (fun (it : M.export_item) ->
            (not (List.mem it.M.x_name campaign_level))
            &&
            match Hashtbl.find_opt last_shipped (it.M.x_name, it.M.x_labels) with
            | Some v -> v <> it.M.x_value
            | None -> true)
          (M.export ())
      in
      List.iter
        (fun (it : M.export_item) ->
          Hashtbl.replace last_shipped (it.M.x_name, it.M.x_labels) it.M.x_value)
        items;
      if items <> [] then send (S.Metrics_delta items);
      if c.S.trace then
        match Sp.drain () with [] -> () | evs -> send (S.Trace_batch evs)
    end
  in
  let handle = function
    | S.Init c ->
      config := c;
      if c.S.obs then Refine_obs.Control.enable ();
      if c.S.trace then Sp.set_memory_sink ()
    | S.Assign { chunk; program; source; tool; model; samples; todo; trace; parent_span } ->
      (* adopt the coordinator's trace context: everything this chunk
         emits re-parents under the coordinator's dispatch span *)
      Sp.set_context ~trace ~parent:parent_span ();
      run_assign ~config:!config ~send ~ship ~completed ~chunk ~program ~source ~tool ~model
        ~samples ~todo;
      Sp.clear_context ()
    | S.Shutdown ->
      ship ();
      running := false
    | f -> raise (S.Protocol_error ("worker: unexpected frame " ^ S.frame_name f))
  in
  while !running do
    match S.drain reader input with
    | `Eof _ -> running := false (* coordinator gone: exit quietly *)
    | `Frames fs -> List.iter (fun f -> if !running then handle f) fs
  done

(* the frame pipes the coordinator passed down *)
let inherited_fds () =
  match Option.map (String.split_on_char ',') (Sys.getenv_opt fds_var) with
  | Some [ r; w ] -> (fd_of_int (int_of_string r), fd_of_int (int_of_string w))
  | _ -> failwith (fds_var ^ " must name the frame pipes as <read>,<write>")

let maybe_exec () =
  match Sys.getenv_opt env_var with
  | None | Some "" | Some "0" -> ()
  | Some _ -> (
    match
      let input, output = inherited_fds () in
      main ~input ~output
    with
    | () -> exit 0
    | exception Unix.Unix_error (Unix.EPIPE, _, _) -> exit 0
    | exception e ->
      Printf.eprintf "[shard-worker %d] fatal: %s\n%!" (Unix.getpid ()) (Printexc.to_string e);
      exit 1)
