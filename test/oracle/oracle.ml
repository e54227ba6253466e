(* The named oracle: one fault-injection sample, or one profiling run,
   exactly as [Tool] defines it — the same target draw, control library,
   10x cost timeout and output cap — but on a fresh engine with no
   decode and no detach plan, so [Exec.run] drives the [Exec.step] loop
   from the image entry to the end and every dynamic target enters the
   library: the step loop never reads the skip window.  Every production
   path (engine reuse across resets, decoded dispatch, superinstructions,
   the skip window, the detach handoff) must reproduce its outcome,
   modeled cost, fault record and profile bit for bit. *)

module X = Refine_machine.Exec
module P = Refine_support.Prng
module F = Refine_core.Fault
module T = Refine_core.Tool
module Rt = Refine_core.Runtime

(* a fresh step-loop engine on [p]'s binary running the tool's control
   library (PINFI's hook over the cell's population) in [ctrl]'s mode *)
let engine (p : T.prepared) ctrl =
  match p.T.kind with
  | T.Refine -> X.create ~ext_extra:(Rt.refine_handlers ctrl) p.T.image
  | T.Llfi -> X.create ~ext_extra:(Rt.llfi_handlers ctrl) p.T.image
  | T.Pinfi ->
    let eng = X.create p.T.image in
    Refine_core.Pinfi.attach ~sel:p.T.sel ~opcode:p.T.opcode ctrl eng;
    eng

let injection ?output_quota ~model (p : T.prepared) rng : F.experiment =
  if p.T.profile.F.dyn_count = 0L then { F.outcome = F.Benign; run_cost = 0L; fault = None }
  else begin
    let target = Int64.to_int (Int64.add 1L (P.int64 rng p.T.profile.F.dyn_count)) in
    let max_cost = Int64.mul Refine_core.Fi_cost.timeout_factor p.T.profile.F.profile_cost in
    let ctrl = Rt.create (Rt.Inject { target; rng; model }) in
    let eng = engine p ctrl in
    let output_quota =
      match output_quota with Some q -> q | None -> T.derived_output_quota p.T.profile
    in
    let r = X.run ~max_cost ~output_quota eng in
    { F.outcome = F.classify p.T.profile r; run_cost = r.X.cost; fault = ctrl.Rt.record }
  end

(* The profiling run [Tool.prepare] makes: the library in Profile mode
   over the whole fault-free run, with the exit code as the run ended
   rather than asserted. *)
let profile (p : T.prepared) : F.profile =
  let ctrl = Rt.create Rt.Profile in
  let r = X.run ~max_steps:2_000_000_000L (engine p ctrl) in
  {
    F.golden_output = r.X.output;
    golden_exit = (match r.X.status with X.Exited c -> c | _ -> min_int);
    dyn_count = Int64.of_int ctrl.Rt.count;
    profile_cost = r.X.cost;
  }
