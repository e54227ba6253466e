(* Per-tool compile/profile/inject drivers — the experiment workflow of the
   paper's Figure 3 for each of the three compared injectors.

   [prepare] builds the tool's binary from MinC source and runs the
   profiling phase once (dynamic instruction count + golden output);
   [run_injection] performs one fault-injection experiment and classifies
   its outcome.  The profiling binary and the injection binary are the same
   artifact; only the control library's mode differs. *)

module E = Refine_machine.Exec
module P = Refine_support.Prng
module Fimap = Refine_backend.Fimap
module Pl = Refine_passes.Pipeline
module Selection = Refine_passes.Selection
module Artifact_cache = Refine_passes.Artifact_cache
module Obs = Refine_obs
module M = Refine_mir.Minstr

type kind = Refine | Llfi | Pinfi

let kind_name = function Refine -> "REFINE" | Llfi -> "LLFI" | Pinfi -> "PINFI"

let kind_of_name name =
  match String.uppercase_ascii name with
  | "REFINE" -> Some Refine
  | "LLFI" -> Some Llfi
  | "PINFI" -> Some Pinfi
  | _ -> None

(* ---- observability (DESIGN.md §12) ------------------------------------

   Executor profiling and FI-site accounting, flushed into the metrics
   registry after each run.  All handles are pre-created per (tool, class)
   so the per-run flush never pays the registry's creation lookup; with
   observability disabled the whole block is one boolean branch per run. *)

let kind_index = function Refine -> 0 | Llfi -> 1 | Pinfi -> 2
let kind_names = [| "REFINE"; "LLFI"; "PINFI" |]

let m_exec_steps =
  Array.init 3 (fun t ->
      Array.init M.num_iclasses (fun k ->
          Obs.Metrics.counter ~help:"simulated instructions by opcode class"
            ~labels:[ ("tool", kind_names.(t)); ("class", M.iclass_name M.iclasses.(k)) ]
            "refine_exec_steps_total"))

let m_ext_calls =
  Array.init 3 (fun t ->
      Obs.Metrics.counter ~help:"runtime-library/libc calls made by simulated code"
        ~labels:[ ("tool", kind_names.(t)) ]
        "refine_exec_ext_calls_total")

let m_ext_cost =
  Array.init 3 (fun t ->
      Obs.Metrics.counter ~help:"modeled cost charged by extern calls"
        ~labels:[ ("tool", kind_names.(t)) ]
        "refine_exec_ext_cost_units_total")

let m_fi_hits =
  Array.init 3 (fun t ->
      Obs.Metrics.counter
        ~help:"dynamic visits to FI-instrumented sites (control-library calls or DBI hook hits)"
        ~labels:[ ("tool", kind_names.(t)) ]
        "refine_fi_site_hits_total")

let m_run_cost =
  Array.init 3 (fun t ->
      Obs.Metrics.counter ~help:"modeled cost of completed simulator runs"
        ~labels:[ ("tool", kind_names.(t)) ]
        "refine_run_cost_units_total")

(* Attach an executor profile iff observability is on; [flush_obs] mirrors
   it (and the control library's dynamic site count) into the registry. *)
let maybe_profile (eng : E.t) = if Obs.Control.enabled () then ignore (E.enable_profiling eng)

let flush_obs kind (eng : E.t) ~fi_hits ~run_cost =
  if Obs.Control.enabled () then begin
    let t = kind_index kind in
    (match eng.E.prof with
    | Some p ->
      Array.iteri
        (fun k n -> if n <> 0 then Obs.Metrics.add64 m_exec_steps.(t).(k) (Int64.of_int n))
        p.E.class_steps;
      Obs.Metrics.add64 m_ext_calls.(t) (Int64.of_int p.E.ext_calls);
      Obs.Metrics.add64 m_ext_cost.(t) (Int64.of_int p.E.ext_cost)
    | None -> ());
    Obs.Metrics.add64 m_fi_hits.(t) (Int64.of_int fi_hits);
    Obs.Metrics.add64 m_run_cost.(t) run_cost;
    Obs.Span.add_cost run_cost
  end

(* ---- sandbox quotas (DESIGN.md §13) -----------------------------------

   The per-run output cap forwarded to [Exec.run].  A tripped cap is an
   experimental outcome — the run ends [Trapped (Output_quota _)] and
   classifies as Crash — never a harness exception, so the supervisor
   burns no retries on adversarial samples. *)

type quotas = {
  output_bytes : int option; (* absolute cap; overrides derivation *)
  derive_output : bool; (* derive the output cap from the golden run *)
}

let no_quotas = { output_bytes = None; derive_output = false }

let default_quotas = { no_quotas with derive_output = true }

(* 16x the golden output with a 4 KiB floor: generous enough that any
   legitimate corruption (SOC) fits, tight enough that a fault turning the
   program into an output firehose trips long before the 10x cost
   timeout's worth of bytes accumulate. *)
let derived_output_quota (profile : Fault.profile) =
  max 4096 (16 * String.length profile.Fault.golden_output)

let effective_output_quota q (profile : Fault.profile) =
  match q.output_bytes with
  | Some _ as c -> c
  | None -> if q.derive_output then Some (derived_output_quota profile) else None

let m_quota_trips =
  Obs.Metrics.counter ~help:"sandbox quota trips by kind" ~labels:[ ("kind", "output") ]
    "refine_quota_trips_total"

(* Injection tally by (tool, fault model).  Created lazily on first use per
   label pair — [Metrics.counter] is mutex-protected and idempotent, so the
   per-sample cost of a repeat call is one registry lookup, and model
   labels only exist for models actually campaigned. *)
let note_injection kind (model : Fault.model) =
  if Obs.Control.enabled () then
    Obs.Metrics.inc
      (Obs.Metrics.counter ~help:"fault injections performed by fault model"
         ~labels:[ ("tool", kind_name kind); ("model", Fault.string_of_model model) ]
         "refine_injections_total")

let note_quota_trip (r : E.result) =
  if Obs.Control.enabled () then
    match r.E.status with
    | E.Trapped (E.Output_quota _) -> Obs.Metrics.inc m_quota_trips
    | _ -> ()

(* ---- engine cells (DESIGN.md §14, §19) --------------------------------

   The initialized globals region and the pre-decoded program (per-pc
   dispatch closures plus fused superinstructions) are computed once per
   prepared binary and stored on its record.  Every simulator run acquires
   its engine from a per-domain cell that holds one engine, and so one
   [Mem.mem_size] arena, for the domain's lifetime: [Exec.reset] zeroes
   only the pages the last run touched and loads the requested snapshot,
   moving the engine onto another binary when the domain switches cells.
   The engine keeps its decoded program across resets on the same image
   and gets the new image's decode installed after a switch; a detach
   handoff (§20) switches this same engine onto its target's code. *)

let engine_cell : E.t option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

(* The domain's engine, reset onto [snap] (created on first use),
   running [dprog]. *)
let acquire ?(ext_extra = []) snap dprog =
  let c = Domain.DLS.get engine_cell in
  let eng =
    match !c with
    | Some eng ->
      E.reset ~ext_extra ~snapshot:snap eng;
      eng
    | None ->
      let eng = E.create_from_snapshot ~ext_extra snap in
      c := Some eng;
      eng
  in
  E.install_decoded eng (Some dprog);
  eng

let m_superinstr =
  Array.map
    (fun idiom ->
      Obs.Metrics.counter ~help:"superinstructions fused at decode time by idiom"
        ~labels:[ ("idiom", idiom) ] "refine_decoded_superinstr_total")
    E.idioms

(* the decode of a prepared binary, counted into the fusion metric *)
let decode image =
  let dp = E.decode image in
  if Obs.Control.enabled () then
    Array.iteri
      (fun i n -> if n > 0 then Obs.Metrics.add64 m_superinstr.(i) (Int64.of_int n))
      (E.superinstr_counts dp);
  dp

(* ---- post-injection detach (DESIGN.md §20) ----------------------------

   REFINE keeps paying its compiled-in per-instruction FI tax after the
   single injection has retired, while PINFI detaches (paper §5.2) — the
   structural reason REFINE once measured ~4.4x PINFI against the paper's
   ~1.2x claim.  The fix mirrors PINFI's detach at the campaign layer:
   [prepare] builds a *detach target* next to each REFINE binary — the
   golden twin [Fimap.extract] reads off the instrumented image (every
   splice dropped, a call-site candidate's splice collapsed into one
   weighted jump), decoded with attached-equivalent cost weights, plus
   its correspondence map — and [run_injection] arms [Exec.run] with a
   handoff plan.  Once the injection fires, the engine drains to an
   original-instruction boundary, translates pc and live return
   addresses, and switches onto the twin's code in place; the rest of
   the run retires at decoded golden speed with bit-identical modeled
   cost at every original-instruction boundary.

   LLFI has no target: once its fault fires, the control library opens
   the skip window for good ([Runtime.publish_window]) and the decoded
   engine retires every later call group in one fused dispatch without
   entering the library.

   Eligibility is decided per sample by [detach_plan_for]; every
   ineligible or declined case simply runs attached — detach is an
   optimization, never a semantics change. *)

type detach_target = {
  dt_image : Refine_backend.Layout.image;
  dt_dprog : E.dprogram; (* decoded with attached-equivalent cost weights *)
  dt_map : E.handoff_map;
}

let m_detach_drain =
  Obs.Metrics.histogram ~help:"instructions single-stepped to reach the handoff boundary"
    ~buckets:[| 0.; 2.; 4.; 8.; 16.; 32.; 64.; 256.; 1024.; 4096. |]
    "refine_detach_drain_steps"

let note_detach kind =
  Obs.Metrics.inc
    (Obs.Metrics.counter ~help:"post-injection handoffs to the detach target"
       ~labels:[ ("tool", kind_name kind) ]
       "refine_detach_total")

let note_detach_declined kind =
  Obs.Metrics.inc
    (Obs.Metrics.counter
       ~help:"armed detach plans whose handoff was declined (ran attached to completion)"
       ~labels:[ ("tool", kind_name kind) ]
       "refine_detach_declined_total")

(* flushed per sample after the run: a handoff that happened counts and
   records its drain latency; an armed plan that fired but never handed
   off (validation declined it) counts as declined *)
let note_detach_result kind ~armed ~fired (r : E.result) =
  if Obs.Control.enabled () && armed then begin
    if r.E.detached then begin
      note_detach kind;
      Obs.Metrics.observe m_detach_drain (float_of_int r.E.drain_steps)
    end
    else if fired then note_detach_declined kind
  end

type prepared = {
  kind : kind;
  sel : Selection.t;
  image : Refine_backend.Layout.image;
  snap : E.snapshot; (* initialized globals, computed once per binary *)
  dprog : E.dprogram; (* decoded once per binary *)
  profile : Fault.profile;
  static_instrumented : int; (* instrumented sites (REFINE/LLFI); 0 for PINFI *)
  detach : detach_target option;
      (* post-injection handoff target (DESIGN.md §20); REFINE only *)
  opcode : bool; (* profiled over the Opcode population (PINFI only) *)
}

(* Opcode corruption strikes the instructions with a valid alternative
   opcode, a population PINFI's hook can count on the uninstrumented
   binary.  REFINE's splices and LLFI's calls are compiled in at operand
   sites, so neither binary can count it. *)
let model_unsupported kind (model : Fault.model) =
  match (kind, model) with
  | (Refine | Llfi), Fault.Opcode ->
    Some
      (Printf.sprintf
         "%s cannot run the opcode fault model: its compiled-in population is operand sites, \
          and opcode corruption needs the instructions with a valid alternative opcode (run it \
          on PINFI)"
         (kind_name kind))
  | _ -> None

exception Prepare_error of string

exception Quarantine of string * string
(* (category, detail): the cell must not be sampled — "mir-verifier" when
   the instrumented machine code fails [Mverify.check_instrumented],
   "nondeterministic-golden" when two independent profiling runs disagree,
   "empty-population" when the profiling run counts no target.
   Deterministic by construction, hence never retried. *)

(* Test-only failure injection for the hardening paths themselves:
   [break_mir] corrupts one spliced SetupFI block after instrumentation
   (so the verifier must catch it), [flaky_golden] perturbs the second
   profiling run's output (so the golden integrity check must catch it). *)
type chaos = { break_mir : bool; flaky_golden : bool }

let no_chaos = { break_mir = false; flaky_golden = false }

(* ---- pipelines & the artifact cache (DESIGN.md §15) -------------------

   The whole compile spine — IR opts, isel, regalloc/frame/peephole, FI
   instrumentation, layout — is one [Refine_passes.Pipeline] spec; each
   tool's FI pass plugs in at the position that defines its accuracy
   (paper Figure 1): REFINE as the last MIR pass before layout, LLFI as
   the last IR pass before isel, PINFI nowhere (it attaches at run time).

   Two content-addressed cache tiers sit on top, both through
   [Artifact_cache.memo]:

   - the IR tier keys on (source, IR-prefix pipeline, per-pass
     verification) and stores the optimized module *marshaled*, so every
     hit deserializes a fresh copy — the tool-independent part of the
     compile is shared across REFINE / LLFI / PINFI cells of the same
     program;
   - the prepared tier keys on (source, full pipeline string, tool
     configuration, per-pass verification) and shares whole
     [prepared] values — image, snapshot, decode, detach target and
     golden profile — across repeated cells of one configuration.

   Prepared entries carry a fingerprint of the image's code array,
   re-checked on every serve, so post-layout code mutation (chaos hooks,
   a test writing into a cached image) invalidates instead of serving a
   corrupted binary.  The tiers have no off switch: only chaos runs
   bypass the prepared tier, and only an IR stage holding an FI pass
   bypasses the IR tier. *)

let default_pipeline = Pl.of_level Pl.O2

let is_fi_pass name =
  match Refine_passes.Pass.find name with Some p -> p.Refine_passes.Pass.fi | None -> false

(* the tool-independent IR prefix: everything before the first FI pass *)
let split_fi_prefix names =
  let rec go acc = function
    | n :: rest when not (is_fi_pass n) -> go (n :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  go [] names

let pipeline_for ?(chaos = no_chaos) kind spec =
  let spec = Pl.ensure_layout spec in
  match kind with
  | Refine ->
    let spec = Pl.append_mir spec "refine-fi" in
    if chaos.break_mir then Pl.append_mir spec "chaos-break-mir" else spec
  | Llfi -> Pl.append_ir spec "llfi-fi"
  | Pinfi -> spec

let ir_cache : string Artifact_cache.t =
  Artifact_cache.create ~name:"ir" ~fingerprint:Digest.string ()

let compile_invocation_count = Atomic.make 0

let compile_invocations () = Atomic.get compile_invocation_count

let m_compile_invocations =
  Obs.Metrics.counter ~help:"front-end + IR-stage compile executions (artifact-cache misses)"
    "refine_compile_invocations_total"

let build_ir ?(pipeline = default_pipeline) ?(verify_each = false) ?phases src =
  let spec = { pipeline with Pl.isel = false; mir = []; layout = false } in
  let time name f = match phases with None -> f () | Some p -> Obs.Phase.time p name f in
  let rebuild () =
    Atomic.incr compile_invocation_count;
    if Obs.Control.enabled () then Obs.Metrics.inc m_compile_invocations;
    let m = time "compile" (fun () -> Refine_minic.Frontend.compile src) in
    ignore (Pl.run_ir ~verify_each ?phases spec m);
    m
  in
  (* FI passes in the IR stage make the result tool-specific: never share *)
  if List.exists is_fi_pass spec.Pl.ir then rebuild ()
  else begin
    (* a miss returns the module it just built; a hit deserializes a fresh
       copy — either way callers may mutate freely *)
    let built = ref None in
    let bytes =
      Artifact_cache.memo ir_cache [ src; Pl.print spec; string_of_bool verify_each ] (fun () ->
          let m = rebuild () in
          built := Some m;
          Marshal.to_string m [])
    in
    match !built with
    | Some m -> m
    | None -> time "compile" (fun () -> (Marshal.from_string bytes 0 : Refine_ir.Ir.modul))
  end

let target_of_image ~map image cost_w =
  { dt_image = image; dt_dprog = E.decode ~cost_of:cost_w image; dt_map = map }

let build_detach (kind : kind) image : detach_target option =
  match kind with
  | Pinfi -> None (* PINFI's cost model already detaches (Fi_cost) *)
  | Llfi -> None (* the skip window retires its post-injection calls *)
  | Refine -> (
    match Fimap.extract ~lib_call_cost:Fi_cost.refine_lib_call image with
    | None -> None (* splices do not parse: run attached *)
    | Some (twin, m) -> Some (target_of_image ~map:m.Fimap.handoff twin m.Fimap.cost_w))

(* Per-sample eligibility (the decline matrix of DESIGN.md §20).  The
   handoff itself can still decline at run time (drain cap, shadow-stack
   mismatch, budget edge); everything here is knowable before the run.
   A REFINE Instr_image overlay lands in instrumented coordinates
   (possibly on a spliced pc), meaningless on the golden twin. *)
let detach_plan_for (p : prepared) (model : Fault.model) : E.detach_plan option =
  match (p.detach, model) with
  | None, _ | _, Fault.Instr_image -> None
  | Some dt, _ -> Some { E.plan_prog = dt.dt_dprog; plan_map = dt.dt_map }

(* ---- the run driver ----------------------------------------------------

   The one place a tool's control library meets an engine.  As in the
   paper's Figure 3, profiling and injection run the same binary and only
   the control library's [mode] differs: REFINE and LLFI bind the runtime
   library's extern handlers, PINFI attaches its DBI hook (its tiny
   instrumentation phase); all three count and fire through one
   [Runtime.ctrl].  [run] executes the acquired engine, forwarding the
   detach [plan]; afterwards the fast-path selector calls are folded
   back, the run is flushed into the metrics registry and an armed plan's
   handoff is accounted.  Returns the result and the control record. *)
let drive ?phases ?plan (p : prepared) mode
    (run : ?detach:E.detach_plan -> E.t -> E.result) =
  let time name f = match phases with None -> f () | Some ph -> Obs.Phase.time ph name f in
  let ctrl = Runtime.create mode in
  let acquire ?ext_extra () = acquire ?ext_extra p.snap p.dprog in
  let eng =
    match p.kind with
    | Refine -> acquire ~ext_extra:(Runtime.refine_handlers ctrl) ()
    | Llfi -> acquire ~ext_extra:(Runtime.llfi_handlers ctrl) ()
    | Pinfi ->
      let eng = acquire () in
      time "instrument" (fun () -> Pinfi.attach ~sel:p.sel ~opcode:p.opcode ctrl eng);
      eng
  in
  maybe_profile eng;
  let r = run ?detach:plan eng in
  Runtime.absorb ctrl eng;
  flush_obs p.kind eng ~fi_hits:ctrl.Runtime.count ~run_cost:r.E.cost;
  note_detach_result p.kind ~armed:(Option.is_some plan) ~fired:ctrl.Runtime.fired r;
  (r, ctrl)

(* ---- prepare ----------------------------------------------------------- *)

let finish_profile (p : prepared) (count : int) (r : E.result) =
  (match r.status with
  | E.Exited 0 -> ()
  | E.Exited c -> raise (Prepare_error (Printf.sprintf "profiling run exited with code %d" c))
  | E.Trapped tr -> raise (Prepare_error ("profiling run trapped: " ^ E.string_of_trap tr))
  | E.Timed_out | E.Running -> raise (Prepare_error "profiling run did not finish"));
  {
    p with
    profile =
      {
        Fault.golden_output = r.output;
        golden_exit = 0;
        dyn_count = Int64.of_int count;
        profile_cost = r.cost;
      };
  }

(* fingerprint of the emitted code arrays — the binary's own and its
   detach target's: a prepared entry whose image (or whose handoff
   target's image) was mutated after caching must never be served again *)
let image_fingerprint (p : prepared) =
  let detach_code =
    match p.detach with
    | None -> [||]
    | Some dt -> dt.dt_image.Refine_backend.Layout.code
  in
  Digest.string (Marshal.to_string (p.image.Refine_backend.Layout.code, detach_code) [])

let prepared_cache : prepared Artifact_cache.t =
  Artifact_cache.create ~name:"prepared" ~fingerprint:image_fingerprint ()

let reset_artifact_caches () =
  Artifact_cache.reset ();
  Atomic.set compile_invocation_count 0

(* hard safety bound on a profiling run's steps; the 10x cost timeout
   bounds the injection runs *)
let profile_max_steps = 2_000_000_000L

(* [phases] buckets wall-clock time into the overhead-breakdown columns
   (instrument / compile / execute); the profiling runs count as execute.
   Omitted (the common library-use case), only the modeled costs remain.

   Profiling runs TWICE with independent machine and control-library
   state: a program whose golden output, exit code or dynamic population
   varies between fault-free runs cannot classify faults (every
   comparison against "the" golden run would be noise), so the cell is
   [Quarantine]d instead of sampled, as is a cell whose first profiling
   run counts no target: it has nothing to inject into.  The instrumented
   machine code is always re-checked at the end of the MIR stage
   ([Mverify.check_instrumented] for the REFINE splices,
   [Mverify.check_funcs] for LLFI's recompiled functions); [verify_each]
   additionally interleaves the IR/MIR verifiers after every single pass.
   Either kind of violation quarantines the cell. *)
let build_prepared ?phases ~sel ~opcode ~full ~verify_each ~(chaos : chaos) (kind : kind)
    (src : string) : prepared =
  let time name f = match phases with None -> f () | Some p -> Obs.Phase.time p name f in
  let quarantine_invalid f =
    try f () with
    | Refine_mir.Mverify.Invalid msg -> raise (Quarantine ("mir-verifier", msg))
    | Refine_ir.Verify.Invalid msg -> raise (Quarantine ("ir-verifier", msg))
  in
  let ctx = { Refine_passes.Pass.sel; save_flags = true } in
  (* tool-independent IR prefix (shared via the IR cache tier), then the
     rest of the pipeline: IR FI passes, isel, MIR passes, layout *)
  let prefix, ir_rest = split_fi_prefix full.Pl.ir in
  let m = build_ir ~pipeline:{ full with Pl.ir = prefix } ~verify_each ?phases src in
  let out =
    quarantine_invalid (fun () ->
        Pl.run ~ctx ~verify_each ~verify_fi:true ?phases { full with Pl.ir = ir_rest } m)
  in
  let image =
    match out.Pl.image with
    | Some image -> image
    | None -> raise (Prepare_error "pipeline spec does not end in layout")
  in
  (* read before the detach build so the MIR output is garbage by then *)
  let static_instrumented = out.Pl.fi_sites in
  let snap = E.snapshot image in
  let detach = build_detach kind image in
  let unprofiled =
    {
      kind;
      sel;
      image;
      snap;
      dprog = decode image;
      static_instrumented;
      detach;
      opcode;
      profile = { Fault.golden_output = ""; golden_exit = 0; dyn_count = 0L; profile_cost = 0L };
    }
  in
  let profile_once () =
    let r, ctrl =
      drive ?phases unprofiled Runtime.Profile (fun ?detach eng ->
          time "execute" (fun () -> E.run ~max_steps:profile_max_steps ?detach eng))
    in
    (ctrl.Runtime.count, r)
  in
  (* first run becomes the golden profile; the second must agree with it *)
  let count1, r1 = profile_once () in
  let p = finish_profile unprofiled count1 r1 in
  if count1 = 0 then
    raise
      (Quarantine
         ( "empty-population",
           Printf.sprintf "the profiling run counted no %s under %s"
             (if opcode then "instruction with a valid alternative opcode" else "operand site")
             (Selection.to_string sel) ));
  let count2, r2 = profile_once () in
  let out2 = if chaos.flaky_golden then r2.E.output ^ "#chaos" else r2.E.output in
  let exit2 = match r2.E.status with E.Exited c -> c | _ -> min_int in
  if
    out2 <> p.profile.Fault.golden_output
    || exit2 <> p.profile.Fault.golden_exit
    || Int64.of_int count2 <> p.profile.Fault.dyn_count
  then
    raise
      (Quarantine
         ( "nondeterministic-golden",
           Printf.sprintf
             "independent profiling runs disagree: output %dB/%dB exit %d/%d dyn %Ld/%Ld"
             (String.length p.profile.Fault.golden_output)
             (String.length out2) p.profile.Fault.golden_exit exit2 p.profile.Fault.dyn_count
             (Int64.of_int count2) ));
  p

let prepare ?phases ?(sel = Selection.default) ?(pipeline = default_pipeline)
    ?(verify_each = false) ?(chaos = no_chaos) ?(model = Fault.Reg_bit) (kind : kind)
    (src : string) : prepared =
  Option.iter invalid_arg (model_unsupported kind model);
  let opcode = model = Fault.Opcode in
  let full = pipeline_for ~chaos kind pipeline in
  let build () = build_prepared ?phases ~sel ~opcode ~full ~verify_each ~chaos kind src in
  (* chaos mutates code after instrumentation: those runs must neither be
     served from the prepared tier nor poison it *)
  if chaos <> no_chaos then build ()
  else
    let key =
      [
        src;
        Pl.print full;
        kind_name kind;
        Selection.to_string sel;
        string_of_bool verify_each;
      ]
    in
    (* the other models share one trigger population, and one entry *)
    Artifact_cache.memo prepared_cache (if opcode then key @ [ "population=opcode" ] else key) build

exception Sample_budget_exceeded of int64

(* One fault-injection experiment: pick a uniform dynamic target, run,
   classify against the golden output, with the 10x-profiling timeout.

   [cost_cap] is the harness watchdog: a modeled-cost budget below the
   paper's 10x timeout at which the sample is killed and reported as a
   harness failure ([Sample_budget_exceeded]) rather than classified as a
   Crash — exceeding the paper's own timeout is an experimental outcome,
   exceeding the operator's budget is not.  [poll] is forwarded to the
   simulator (called every 1024 instructions) so a cancellation token can
   abort in-flight samples.

   [quotas] (default [no_quotas]) is the output cap (DESIGN.md §13): a
   tripped cap ends the run [Trapped] and classifies as Crash — an
   outcome, never an exception, so the supervisor burns no retries on
   it. *)
let run_injection ?cost_cap ?(quotas = no_quotas) ?(model = Fault.Reg_bit) ?poll
    (p : prepared) (rng : P.t) : Fault.experiment =
  if (model = Fault.Opcode) <> p.opcode then
    invalid_arg
      (Printf.sprintf "Tool.run_injection: a %s fault on a cell profiled over %s"
         (Fault.string_of_model model)
         (if p.opcode then "the opcode population" else "operand sites"));
  let target = Int64.to_int (Int64.add 1L (P.int64 rng p.profile.Fault.dyn_count)) in
  let timeout = Int64.mul Fi_cost.timeout_factor p.profile.Fault.profile_cost in
  let max_cost, capped =
    match cost_cap with
    | Some c when Int64.compare c timeout < 0 -> (c, true)
    | _ -> (timeout, false)
  in
  note_injection p.kind model;
  (* post-injection handoff plan (DESIGN.md §20), when tool/model
     eligibility allows; [None] simply runs attached *)
  let r, ctrl =
    drive ?plan:(detach_plan_for p model) p (Runtime.Inject { target; rng; model })
      (fun ?detach eng ->
        E.run ~max_cost ?output_quota:(effective_output_quota quotas p.profile) ?poll ?detach eng)
  in
  note_quota_trip r;
  if capped && r.E.status = E.Timed_out then raise (Sample_budget_exceeded r.E.cost);
  { Fault.outcome = Fault.classify p.profile r; run_cost = r.E.cost; fault = ctrl.Runtime.record }
