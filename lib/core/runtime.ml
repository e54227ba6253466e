(* Fault-injection control runtime — the user-provided library of the
   paper's Figure 2/3.  The instrumented binary calls into it at run time:

   REFINE:  [fi_sel_instr] after every instrumented machine instruction
            (dynamic counting; returns 1 exactly at the target instance)
            and [fi_setup_fi] on the injection path (receives the operand
            count and their bit widths, returns <operand, bit>).
   LLFI:    [llfi_inject_i64]/[llfi_inject_f64]/[llfi_inject_i1] after
            every instrumented IR instruction (value in, possibly-flipped
            value out).

   In [Profile] mode the library only counts and never triggers — the same
   binary serves both phases, as in the paper ("the FI binary produced by
   compile-time instrumentation is used unmodified during profiling"). *)

module E = Refine_machine.Exec
module R = Refine_mir.Reg
module P = Refine_support.Prng

(* [count]/[target] are native ints: the trigger test below runs once per
   instrumented dynamic instruction, so it must be a word compare, not a
   boxed [Int64] allocation plus structural equality. *)
type mode =
  | Profile
  | Inject of { target : int; rng : P.t; model : Fault.model }

type ctrl = {
  mutable count : int;
  mode : mode;
  mutable fired : bool;
  mutable record : Fault.record option;
}

let create mode = { count = 0; mode; fired = false; record = None }

let should_fire ctrl =
  match ctrl.mode with
  | Profile -> false
  | Inject { target; _ } -> (not ctrl.fired) && ctrl.count = target

(* --- REFINE control library ------------------------------------------- *)

(* selInstr(): count the dynamic instrumented instruction; result 1 in r0
   iff this is the instance to inject into.

   Register faults (Reg_bit/Multi_bit) answer 1 and let the spliced
   SetupFI/FI_k blocks do the flip.  Mem_cell and Instr_image faults have
   no register target for the splice to flip: the library performs the
   mutation right here at the trigger instance and answers 0, so the
   splice's register path stays cold — the trigger timing is identical,
   only the struck state differs (DESIGN.md §18). *)
(* The skip window (DESIGN.md §20), shared by all three tools: the
   decoded engine may retire provably non-firing visits — REFINE selector
   calls, LLFI injectFault calls, PINFI hook calls — without entering
   this library, banking their dynamic counts in [eng.fi_pending].  Fold
   those back before using [ctrl.count]. *)
let[@inline] fold_pending ctrl (eng : E.t) =
  if eng.E.fi_pending <> 0 then begin
    ctrl.count <- ctrl.count + eng.E.fi_pending;
    eng.E.fi_pending <- 0
  end

(* Called by Tool after a run completes, before it reads [ctrl.count]:
   visits retired in-engine after the last real library call are still
   pending and must count toward the dynamic-instruction total. *)
let absorb ctrl (eng : E.t) = fold_pending ctrl eng

(* Publish how many upcoming visits are provably non-firing so the engine
   may retire them without us.  Profile mode never fires; Inject can skip
   exactly up to (but not including) the target instance — and once fired
   or past the target, never again (count is monotonic). *)
let[@inline] publish_window ctrl (eng : E.t) =
  eng.E.fi_skip <-
    (match ctrl.mode with
    | Profile -> max_int
    | Inject { target; _ } ->
      let d = target - ctrl.count - 1 in
      if d >= 0 && not ctrl.fired then d else max_int)

(* One real visit: fold the visits the engine retired, count this one and
   publish the next window. *)
let[@inline] tick ctrl (eng : E.t) =
  fold_pending ctrl eng;
  ctrl.count <- ctrl.count + 1;
  publish_window ctrl eng

(* [Tool.prepare] and [Tool.run_injection] keep Opcode off REFINE and LLFI
   cells: their compiled-in populations are operand sites *)
let opcode_on_pinfi_only () = invalid_arg "Runtime: the opcode fault model runs on PINFI only"

let refine_sel_instr ctrl (eng : E.t) =
  tick ctrl eng;
  if should_fire ctrl then begin
    match ctrl.mode with
    | Profile -> eng.E.regs.{R.ret_gpr} <- 0L
    | Inject { rng; model; _ } -> (
      match model with
      | Fault.Reg_bit | Fault.Multi_bit _ -> eng.E.regs.{R.ret_gpr} <- 1L
      | Fault.Mem_cell ->
        ctrl.fired <- true;
        eng.E.detach_req <- true;
        ctrl.record <- Some (Corrupt.mem_fault rng eng ~dyn_index:(Int64.of_int ctrl.count));
        eng.E.regs.{R.ret_gpr} <- 0L
      | Fault.Instr_image ->
        ctrl.fired <- true;
        eng.E.detach_req <- true;
        let pc = Corrupt.instrumented_pc eng in
        ctrl.record <-
          Some (Corrupt.image_fault rng eng ~pc ~dyn_index:(Int64.of_int ctrl.count));
        eng.E.regs.{R.ret_gpr} <- 0L
      | Fault.Opcode -> opcode_on_pinfi_only ())
  end
  else eng.E.regs.{R.ret_gpr} <- 0L

(* setupFI(nOps in r1, sizes packed per byte in r2): choose the operand and
   bit uniformly; result (op << 6) | bit in r0. *)
let refine_setup_fi ctrl (eng : E.t) =
  fold_pending ctrl eng;
  (match ctrl.mode with
  | Profile -> eng.E.regs.{R.ret_gpr} <- 0L
  | Inject { rng; model; _ } ->
    ctrl.fired <- true;
    eng.E.detach_req <- true;
    let nops = Int64.to_int eng.E.regs.{R.gpr 1} in
    let sizes = eng.E.regs.{R.gpr 2} in
    let op = P.int rng (max 1 nops) in
    let size =
      Int64.to_int (Int64.logand (Int64.shift_right_logical sizes (8 * op)) 0xFFL)
    in
    let bit, mask = Corrupt.draw_mask rng ~width:(max 1 size) model in
    (* Multi_bit: arm the engine's pending FI mask so the splice's single
       Mxorbit/Mxorbitmem applies all k bits at once (Exec consumes and
       clears it); Reg_bit keeps the splice's own single-bit path *)
    (match model with Fault.Multi_bit _ -> eng.E.fi_mask <- mask | _ -> ());
    ctrl.record <-
      Some { Fault.dyn_index = Int64.of_int ctrl.count; op_index = op; reg_name = "<refine>"; bit };
    eng.E.regs.{R.ret_gpr} <- Int64.of_int ((op lsl 6) lor bit));
  (* fired (or Profile): every later selector call is non-firing *)
  publish_window ctrl eng

let refine_handlers ctrl : (string * int * (E.t -> unit)) list =
  [
    ("fi_sel_instr", Fi_cost.refine_lib_call, refine_sel_instr ctrl);
    ("fi_setup_fi", Fi_cost.refine_lib_call, refine_setup_fi ctrl);
  ]

(* --- LLFI control library ---------------------------------------------- *)

(* injectFault(id in r1, value in [arg]): count, fault at the target
   instance, return the (possibly flipped) value in [ret].  A call that
   does not fire is the identity [ret <- arg] of [Fimap.llfi_calls],
   which the decoded engine's llfi-call superinstruction retires inside
   the window; once the fault has fired the window never closes again.

   Register-value faults flip the instrumented IR value (the classic
   injectFault semantics); an i1 value (a comparison result) has one
   meaningful bit, so any register fault — single or multi — inverts it,
   drawing nothing.  Mem_cell and Instr_image faults strike memory/code
   instead and return the value unchanged — the IR-level hook is only
   the trigger clock for them. *)
let llfi_inject ctrl ~i1 ~arg ~ret (eng : E.t) =
  tick ctrl eng;
  let v = eng.E.regs.{arg} in
  eng.E.regs.{ret} <-
    (match ctrl.mode with
    | Inject { rng; model; _ } when should_fire ctrl -> (
      ctrl.fired <- true;
      let dyn_index = Int64.of_int ctrl.count in
      match model with
      | (Fault.Reg_bit | Fault.Multi_bit _) when i1 ->
        ctrl.record <- Some { Fault.dyn_index; op_index = 0; reg_name = "<ir-bool>"; bit = 0 };
        Refine_support.Bitops.flip_bit v 0
      | Fault.Reg_bit | Fault.Multi_bit _ ->
        let bit, mask = Corrupt.draw_mask rng ~width:64 model in
        ctrl.record <- Some { Fault.dyn_index; op_index = 0; reg_name = "<ir-value>"; bit };
        Int64.logxor v mask
      | Fault.Mem_cell ->
        ctrl.record <- Some (Corrupt.mem_fault rng eng ~dyn_index);
        v
      | Fault.Instr_image ->
        let pc = Corrupt.instrumented_pc eng in
        ctrl.record <- Some (Corrupt.image_fault rng eng ~pc ~dyn_index);
        v
      | Fault.Opcode -> opcode_on_pinfi_only ())
    | Inject _ | Profile -> v)

let llfi_handlers ctrl : (string * int * (E.t -> unit)) list =
  List.map
    (fun (name, arg, ret) ->
      (name, Fi_cost.llfi_lib_call, llfi_inject ctrl ~i1:(name = "llfi_inject_i1") ~arg ~ret))
    Refine_backend.Fimap.llfi_calls
