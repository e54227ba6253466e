(* Campaign orchestration: N statistically-sized fault-injection
   experiments per (program, tool) cell, as in the paper's §5.3 — one
   uniformly chosen single bit flip per run, outcomes tallied into a
   crash/SOC/benign contingency row.

   Each experiment owns a split of the master PRNG, so results are
   deterministic for a given seed regardless of how work is distributed
   over domains, which samples are replayed from a checkpoint journal, or
   how often a flaky sample was retried. *)

module T = Refine_core.Tool
module F = Refine_core.Fault
module P = Refine_support.Prng
module S = Refine_support.Supervisor
module Obs = Refine_obs

type counts = { crash : int; soc : int; benign : int; tool_error : int }

(* the statistical n: harness failures degrade the sample size, they do
   not enter the contingency rows *)
let total c = c.crash + c.soc + c.benign

let attempted c = total c + c.tool_error

let add_outcome c = function
  | F.Crash -> { c with crash = c.crash + 1 }
  | F.Soc -> { c with soc = c.soc + 1 }
  | F.Benign -> { c with benign = c.benign + 1 }
  | F.Tool_error -> { c with tool_error = c.tool_error + 1 }

let zero = { crash = 0; soc = 0; benign = 0; tool_error = 0 }

(* Wall-clock overhead attribution per cell, the Figure 8/9-shape columns
   of Report.overhead_table.  [execute_s] sums the profiling run and every
   sample's wall time *across worker domains*, so with D domains it can
   legitimately exceed the cell's elapsed wall time (it is CPU-time-like);
   [harness_s] is the residual elapsed time not attributed to a measured
   phase (supervisor scheduling, journaling, classification), clamped at
   zero when domain parallelism makes the attribution exceed elapsed. *)
type timing = {
  instrument_s : float;
  compile_s : float;
  execute_s : float;
  harness_s : float;
}

let zero_timing = { instrument_s = 0.0; compile_s = 0.0; execute_s = 0.0; harness_s = 0.0 }

(* ---- campaign counters ------------------------------------------------

   One set for both runners: the sharded coordinator counts the same
   series from its outcome stream through these helpers. *)

let m_samples outcome =
  Obs.Metrics.counter ~help:"resolved campaign samples by outcome"
    ~labels:[ ("outcome", outcome) ]
    "refine_campaign_samples_total"

let m_crash = m_samples "crash"
let m_soc = m_samples "SOC"
let m_benign = m_samples "benign"
let m_tool_error = m_samples "tool-error"

let m_outcome = function
  | F.Crash -> m_crash
  | F.Soc -> m_soc
  | F.Benign -> m_benign
  | F.Tool_error -> m_tool_error

let m_cells =
  Obs.Metrics.counter ~help:"completed (program, tool) campaign cells" "refine_campaign_cells_total"

let m_resumed =
  Obs.Metrics.counter ~help:"samples loaded from a resume journal instead of re-run"
    "refine_campaign_resumed_samples_total"

(* quarantine reasons are bounded categories (Tool.Quarantine) *)
let m_quarantined reason =
  Obs.Metrics.counter ~help:"campaign cells quarantined instead of sampled"
    ~labels:[ ("reason", reason) ]
    "refine_quarantined_cells_total"

let m_quarantined_verifier = m_quarantined "mir-verifier"
let m_quarantined_ir_verifier = m_quarantined "ir-verifier"
let m_quarantined_golden = m_quarantined "nondeterministic-golden"
let m_quarantined_empty = m_quarantined "empty-population"

let m_quarantine_reason = function
  | "nondeterministic-golden" -> m_quarantined_golden
  | "ir-verifier" -> m_quarantined_ir_verifier
  | "empty-population" -> m_quarantined_empty
  | _ -> m_quarantined_verifier

(* a quarantine reason reads "category: detail" *)
let quarantine_category reason =
  match String.index_opt reason ':' with Some i -> String.sub reason 0 i | None -> reason

let note_sample outcome = Obs.Metrics.inc (m_outcome outcome)
let note_resumed () = Obs.Metrics.inc m_resumed
let note_cell () = Obs.Metrics.inc m_cells
let note_quarantined reason = Obs.Metrics.inc (m_quarantine_reason (quarantine_category reason))

type cell = {
  program : string;
  tool : T.kind;
  model : F.model; (* what state the faults struck (DESIGN.md §18) *)
  samples : int;
  counts : counts;
  injection_cost : int64; (* summed modeled time of all injection runs *)
  profile : F.profile;
  static_instrumented : int;
  failures : S.failure list; (* samples that exhausted the retry budget *)
  timing : timing; (* wall-clock overhead attribution (zero for loaded cells) *)
  quarantined : string option;
      (* "category: detail" when the cell was quarantined (DESIGN.md §13):
         zero samples ran, the cell is reported but excluded from the
         contingency rows *)
}

(* Stable seed derivation: FNV-1a over the cell identity instead of
   [Hashtbl.hash], whose output may change between OCaml releases.  The
   NUL separator keeps ("ab","c") and ("a","bc") distinct.  The fault
   model joins the identity ONLY when it is not the default Reg_bit, so
   every pre-model campaign seed (and its journaled samples) stays
   bit-identical. *)
let cell_seed ?(model = F.Reg_bit) ~seed ~program tool =
  let id = program ^ "\000" ^ T.kind_name tool in
  let id = if model = F.Reg_bit then id else id ^ "\000" ^ F.string_of_model model in
  seed lxor P.hash_string id

(* Attempt [a] of a sample re-draws from a fresh deterministic split of the
   sample's own base generator, so retries (after e.g. a watchdog kill)
   stay reproducible without replaying the failed draw. *)
let rng_for_attempt base a =
  let r = P.copy base in
  if a = 0 then r
  else begin
    for _ = 1 to a do
      ignore (P.next_int64 r)
    done;
    P.split r
  end

(* A quarantined (program, tool) cell: no samples ran and none will — the
   cell is structurally unfit for injection (failed MIR verification, a
   nondeterministic golden run, or no target to inject into).  Reported,
   excluded from chi-squared. *)
let quarantined_cell ~program ~tool ~model ~samples reason =
  {
    program;
    tool;
    model;
    samples;
    counts = zero;
    injection_cost = 0L;
    profile = { F.golden_output = ""; golden_exit = 0; dyn_count = 0L; profile_cost = 0L };
    static_instrumented = 0;
    failures = [];
    timing = zero_timing;
    quarantined = Some reason;
  }

(* What a resume journal already holds for one cell: its journaled
   quarantine (deterministic, so the cell is not re-prepared), or its
   resolved samples by index, each counted as it loads. *)
type resumed = Quarantined of string | Resolved of (int, Journal.entry) Hashtbl.t

let resume ?journal ~model ~samples ~program tool =
  let tool_name = T.kind_name tool in
  match Option.bind journal (fun j -> Journal.quarantine_reason j ~program ~tool:tool_name) with
  | Some reason ->
    note_quarantined reason;
    Quarantined reason
  | None ->
    let resolved = Hashtbl.create 64 in
    Option.iter
      (fun j ->
        Hashtbl.iter
          (fun i e ->
            if i >= 0 && i < samples then begin
              note_resumed ();
              Hashtbl.replace resolved i e
            end)
          (Journal.completed ~model:(F.string_of_model model) j ~program ~tool:tool_name))
      journal;
    Resolved resolved

(* A cell from its resolved samples: the counts and the summed injection
   cost are folded from [resolved], the failures put in index order;
   counted as one completed cell. *)
let fold_cell ~program ~tool ~model ~samples ~profile ~static_instrumented ~failures ~timing
    resolved =
  let counts, injection_cost =
    Hashtbl.fold
      (fun _ (e : Journal.entry) (c, cost) ->
        (add_outcome c e.Journal.outcome, Int64.add cost e.Journal.cost))
      resolved (zero, 0L)
  in
  note_cell ();
  {
    program;
    tool;
    model;
    samples;
    counts;
    injection_cost;
    profile;
    static_instrumented;
    failures = List.sort (fun (a : S.failure) b -> compare a.S.index b.S.index) failures;
    timing;
    quarantined = None;
  }

(* One (program, tool) cell: prepare (compile + profile) once, then run
   the [todo] samples (default: every sample [journal] has not resolved)
   supervised, recording each one in [journal] and through [record] as it
   settles.  A [Tool.Quarantine] during preparation resolves the whole
   cell as quarantined — journaled so a resume never re-prepares it. *)
let run_cell ?domains ?(sel = T.Selection.default) ?journal ?todo ?record ?(retries = 0)
    ?cost_cap ?output_quota ?(model = F.Reg_bit) ?pipeline ?verify_each ?chaos ?watchdog
    ?heartbeat ~samples ~seed (tool : T.kind) ~program ~source () : cell =
  Option.iter
    (List.iter (fun i ->
         if i < 0 || i >= samples then
           invalid_arg
             (Printf.sprintf "Experiment.run_cell: sample %d is outside [0, %d)" i samples)))
    todo;
  let domains = match domains with Some d -> d | None -> S.default_domains () in
  let tool_name = T.kind_name tool and model_name = F.string_of_model model in
  match resume ?journal ~model ~samples ~program tool with
  | Quarantined reason -> quarantined_cell ~program ~tool ~model ~samples reason
  | Resolved resolved -> (
  let span_attrs = [ ("program", program); ("tool", tool_name) ] in
  let phases = Obs.Phase.create () in
  let cell_t0 = Obs.Control.now () in
  match
    Obs.Span.with_ ~attrs:span_attrs "prepare" (fun () ->
        T.prepare ~phases ~sel ?pipeline ?verify_each ?chaos ~model tool source)
  with
  | exception T.Quarantine (category, detail) ->
    let reason = category ^ ": " ^ detail in
    note_quarantined reason;
    Option.iter (fun j -> Journal.record_quarantine j ~program ~tool:tool_name ~reason) journal;
    quarantined_cell ~program ~tool ~model ~samples reason
  | prepared ->
  (* every index takes its split, run or not: sample i draws from the
     same generator whichever process, domain or resume runs it *)
  let master = P.create (cell_seed ~model ~seed ~program tool) in
  let bases = Array.init samples (fun _ -> P.split master) in
  let todo =
    Array.of_list
      (match todo with
      | Some l -> List.sort_uniq compare l
      | None -> List.filter (fun i -> not (Hashtbl.mem resolved i)) (List.init samples Fun.id))
  in
  (* cancelled by the watchdog; in-flight samples notice it at their poll *)
  let token = S.Cancel.create () in
  let poll () =
    (* a shard worker emits liveness heartbeats from the in-flight poll
       slot, so a hung sample goes silent instead of heartbeating *)
    (match heartbeat with Some h -> h () | None -> ());
    S.check token
  in
  let policy =
    {
      S.max_retries = retries;
      (* a Quarantine is a deterministic property of the cell; retrying the
         sample would only reproduce it *)
      retryable = (function T.Quarantine _ -> false | e -> S.default_policy.S.retryable e);
    }
  in
  (* one injection, with its wall time billed to the execute column even
     when it ends in a watchdog kill or cancellation *)
  let timed_injection rng =
    let t0 = Obs.Control.now () in
    match T.run_injection ?cost_cap ?output_quota ~model ~poll prepared rng with
    | e ->
      let dt = Obs.Control.now () -. t0 in
      Obs.Phase.add phases "execute" dt;
      Obs.Span.emit ~attrs:span_attrs ~cost:e.F.run_cost ~name:"sample" ~dur_s:dt ();
      e
    | exception ex ->
      let bt = Printexc.get_raw_backtrace () in
      Obs.Phase.add phases "execute" (Obs.Control.now () -. t0);
      Printexc.raise_with_backtrace ex bt
  in
  (* a sample is recorded the moment it settles, from the domain that ran
     it, so a kill loses only the samples still in flight *)
  let lock = Mutex.create () in
  let failures = ref [] in
  let settle k out =
    let i = todo.(k) in
    let resolve outcome cost attempts =
      let entry =
        {
          Journal.program;
          tool = tool_name;
          model = model_name;
          sample = i;
          outcome;
          cost;
          attempts;
        }
      in
      Mutex.protect lock (fun () ->
          note_sample outcome;
          Hashtbl.replace resolved i entry;
          Option.iter (fun j -> Journal.record j entry) journal;
          Option.iter (fun r -> r entry) record)
    in
    match out with
    | S.Done (e, attempts) -> resolve e.F.outcome e.F.run_cost attempts
    | S.Failed f ->
      (* graceful degradation: the sample becomes a ToolError tally
         entry; the budget burned by a watchdog kill still counts toward
         campaign time *)
      let cost = match f.S.exn with T.Sample_budget_exceeded c -> c | _ -> 0L in
      Mutex.protect lock (fun () -> failures := { f with S.index = i } :: !failures);
      resolve F.Tool_error cost f.S.attempts
    | S.Skipped -> ()
  in
  Obs.Span.with_ ~attrs:span_attrs "inject" (fun () ->
      S.run ~token ~policy ?watchdog ~domains (Array.length todo)
        (fun ~attempt k -> timed_injection (rng_for_attempt bases.(todo.(k)) attempt))
        ~settle);
  let timing =
    let wall = Obs.Control.now () -. cell_t0 in
    let instrument_s = Obs.Phase.get phases "instrument" in
    let compile_s = Obs.Phase.get phases "compile" in
    let execute_s = Obs.Phase.get phases "execute" in
    {
      instrument_s;
      compile_s;
      execute_s;
      harness_s = Float.max 0.0 (wall -. instrument_s -. compile_s -. execute_s);
    }
  in
  fold_cell ~program ~tool ~model ~samples ~profile:prepared.T.profile
    ~static_instrumented:prepared.T.static_instrumented
    ~failures:!failures ~timing resolved)

(* A cell whose preparation (compile/profile) failed outright: every
   sample is a ToolError, the campaign continues. *)
let degraded_cell ?(model = F.Reg_bit) ~program ~tool ~samples exn =
  {
    program;
    tool;
    model;
    samples;
    counts = { zero with tool_error = samples };
    injection_cost = 0L;
    profile = { F.golden_output = ""; golden_exit = 0; dyn_count = 0L; profile_cost = 0L };
    static_instrumented = 0;
    failures = [ { S.index = -1; attempts = 1; exn; backtrace = "" } ];
    timing = zero_timing;
    quarantined = None;
  }

(* Reports, CSV rows and journal records name a cell by its program, so a
   program listed twice would run its cells twice and its copy would
   resume from the original's records. *)
let check_distinct_programs caller (programs : (string * string) list) =
  let rec go = function
    | [] -> ()
    | (p, _) :: rest ->
      if List.mem_assoc p rest then
        invalid_arg (Printf.sprintf "%s: program %s is listed twice" caller p);
      go rest
  in
  go programs

(* The full evaluation matrix: every program x every tool.  A cell that
   fails to prepare degrades to all-ToolError instead of aborting the
   remaining cells (a [Tool.Quarantine] already resolved inside
   [run_cell] as a quarantined cell). *)
let run_matrix ?domains ?sel ?journal ?retries ?cost_cap ?output_quota ?model ?pipeline
    ?verify_each ?chaos ?watchdog ~samples ~seed
    (programs : (string * string) list) (tools : T.kind list) : cell list =
  check_distinct_programs "Experiment.run_matrix" programs;
  List.concat_map
    (fun (program, source) ->
      List.map
        (fun tool ->
          try
            run_cell ?domains ?sel ?journal ?retries ?cost_cap ?output_quota ?model ?pipeline
              ?verify_each ?chaos ?watchdog ~samples ~seed tool ~program ~source ()
          with e -> degraded_cell ?model ~program ~tool ~samples e)
        tools)
    programs

let find_cell ?model cells ~program ~tool =
  List.find
    (fun c ->
      c.program = program && c.tool = tool
      && match model with None -> true | Some m -> c.model = m)
    cells

(* contingency row for the chi-squared tests; ToolError is excluded *)
let row c = [| c.counts.crash; c.counts.soc; c.counts.benign |]
