(* PINFI-style binary-level fault injection (paper §5.2).

   The simulator plays the role of Intel Pin: a per-instruction analysis
   hook observes the clean, uninstrumented binary.  During profiling the
   hook counts dynamic instructions that write registers; during injection
   it fires at the chosen instance, flips a uniformly chosen bit of a
   uniformly chosen output register, and then *detaches* — the hook and the
   DBI per-instruction tax disappear for the rest of the run, which is the
   performance optimization the paper added to the public PINFI. *)

module E = Refine_machine.Exec
module M = Refine_mir.Minstr
module R = Refine_mir.Reg
module P = Refine_support.Prng
module Selection = Refine_passes.Selection

type ctrl = {
  mutable count : int; (* native int: incremented once per hooked instruction *)
  mode : Runtime.mode;
  mutable fired : bool;
  mutable record : Fault.record option;
  sel : Selection.t;
}

let create ?(sel = Selection.default) mode = { count = 0; mode; fired = false; record = None; sel }

let attach (ctrl : ctrl) (eng : E.t) =
  let all_funcs = List.mem "*" ctrl.sel.Selection.funcs in
  let hook (eng : E.t) (pc : int) (i : M.t) =
    if
      Selection.minstr_selected ctrl.sel i
      && (all_funcs
         || Selection.func_selected ctrl.sel eng.E.image.Refine_backend.Layout.func_of_pc.(pc))
    then begin
      ctrl.count <- ctrl.count + 1;
      match ctrl.mode with
      | Runtime.Profile -> ()
      | Runtime.Inject { target; rng; model } ->
        if (not ctrl.fired) && ctrl.count = target then begin
          ctrl.fired <- true;
          let dyn_index = Int64.of_int ctrl.count in
          (match model with
          | Fault.Mem_cell ->
            ctrl.record <- Some (Corrupt.mem_fault rng eng ~dyn_index)
          | Fault.Instr_image ->
            (* the DBI hook knows the exact pc it observed — no walk-back *)
            ctrl.record <- Some (Corrupt.image_fault rng eng ~pc ~dyn_index)
          | Fault.Reg_bit | Fault.Multi_bit _ ->
            let outs = M.outputs i in
            let op = P.int rng (List.length outs) in
            let reg = List.nth outs op in
            let bit, mask = Corrupt.draw_mask rng ~width:(R.width_bits reg) model in
            eng.E.regs.(reg) <- Int64.logxor eng.E.regs.(reg) mask;
            ctrl.record <-
              Some { Fault.dyn_index; op_index = op; reg_name = R.name reg; bit });
          (* detach: drop the hook and the DBI per-instruction tax *)
          eng.E.post_hook <- None;
          eng.E.hook_cost <- 0
        end
    end
  in
  eng.E.post_hook <- Some hook;
  eng.E.hook_cost <- Fi_cost.pin_attach_per_instr
