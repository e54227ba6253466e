(* Opcode-corruption fault injection — the extension sketched in the
   paper's §4.5 Discussion.

   REFINE's compile-time instrumentation can only produce *valid* opcodes
   (the assembler rejects invalid encodings), and the paper proposes
   addressing opcode faults "by extending the runtime injection library to
   corrupt the memory addresses of OP codes".  This module implements that
   extension on the simulator: at a uniformly chosen dynamic instance, the
   static instruction's opcode is replaced by a *different valid opcode of
   the same operand shape* — modelling a corrupted code byte that persists
   for the rest of the run (code memory is not rewritten).

   The mutation is the engine-local Instr_image overlay
   ([Exec.set_overlay]), which persists until reset and never writes the
   shared code image, so prepared binaries stay shareable across
   experiments.  Runs execute PINFI's prepared binary on the domain's one
   engine ([Tool.engine]). *)

module M = Refine_mir.Minstr
module E = Refine_machine.Exec
module P = Refine_support.Prng

(* Valid same-shape opcode replacements — shared with the Instr_image
   fault model's opcode-field mutation, so the two corruption mechanisms
   cannot drift.  Instructions with no compatible alternative (moves,
   control transfers, ...) are not corruption targets, exactly as
   REFINE's valid-opcode restriction demands. *)
let alternatives = Corrupt.alternatives

let is_target i = alternatives i <> []

(* install the corruption hook on [eng], as [Pinfi.attach] does; the
   fault record names the corrupted pc *)
let attach (ctrl : Runtime.ctrl) (eng : E.t) =
  (* targets decided once per pc and declared, as in [Pinfi.attach] *)
  let targets = Array.map is_target eng.E.image.Refine_backend.Layout.code in
  let on_instr (eng : E.t) (pc : int) (i : M.t) =
    Runtime.tick ctrl eng;
    match ctrl.Runtime.mode with
    | Runtime.Profile -> ()
    | Runtime.Inject { target; rng; model = _ } ->
      if (not ctrl.Runtime.fired) && ctrl.Runtime.count = target then begin
        ctrl.Runtime.fired <- true;
        let alts = alternatives i in
        let replacement = List.nth alts (P.int rng (List.length alts)) in
        E.set_overlay eng ~pc (Some replacement);
        ctrl.Runtime.record <-
          Some
            {
              Fault.dyn_index = Int64.of_int ctrl.Runtime.count;
              op_index = 0;
              reg_name = Printf.sprintf "pc=%d" pc;
              bit = -1;
            };
        eng.E.post_hook <- None
      end
  in
  eng.E.post_hook <-
    Some { E.on_instr; hook_cost = Fi_cost.pin_attach_per_instr; hook_pcs = targets };
  Runtime.publish_window ctrl eng

(* profiling + one experiment, mirroring Tool.run_injection *)
let profile (p : Tool.prepared) : Fault.profile =
  let ctrl = Runtime.create Runtime.Profile in
  let eng = Tool.engine p in
  attach ctrl eng;
  let r = E.run ~max_steps:2_000_000_000L eng in
  Runtime.absorb ctrl eng;
  (match r.E.status with
  | E.Exited 0 -> ()
  | _ -> failwith "Opcode_fi.profile: fault-free run failed");
  {
    Fault.golden_output = r.E.output;
    golden_exit = 0;
    dyn_count = Int64.of_int ctrl.Runtime.count;
    profile_cost = r.E.cost;
  }

let run_injection (p : Tool.prepared) (prof : Fault.profile) (rng : P.t) : Fault.experiment =
  if prof.Fault.dyn_count = 0L then { Fault.outcome = Fault.Benign; run_cost = 0L; fault = None }
  else begin
    let target = Int64.to_int (Int64.add 1L (P.int64 rng prof.Fault.dyn_count)) in
    let ctrl = Runtime.create (Runtime.Inject { target; rng; model = Fault.Reg_bit }) in
    let eng = Tool.engine p in
    attach ctrl eng;
    let max_cost = Int64.mul Fi_cost.timeout_factor prof.Fault.profile_cost in
    let r = E.run ~max_cost eng in
    { Fault.outcome = Fault.classify prof r; run_cost = r.E.cost; fault = ctrl.Runtime.record }
  end
