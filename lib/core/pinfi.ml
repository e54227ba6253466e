(* PINFI-style binary-level fault injection (paper §5.2).

   The simulator plays the role of Intel Pin: a per-instruction analysis
   hook observes the clean, uninstrumented binary.  During profiling the
   hook counts dynamic instructions that write registers; during injection
   it fires at the chosen instance, flips a uniformly chosen bit of a
   uniformly chosen output register, and then *detaches* — the hook and the
   DBI per-instruction tax disappear for the rest of the run, which is the
   performance optimization the paper added to the public PINFI.

   The same hook runs the paper's §4.5 valid-opcode corruption (the Opcode
   model) over its own population: the instructions with a valid
   alternative opcode. *)

module E = Refine_machine.Exec
module M = Refine_mir.Minstr
module R = Refine_mir.Reg
module P = Refine_support.Prng
module Selection = Refine_passes.Selection

(* the Opcode population: instructions with a valid alternative opcode,
   register-writing or not *)
let opcode_site sel i = Selection.class_selected sel i && Corrupt.alternatives i <> []

let attach ?(sel = Selection.default) ?(opcode = false) (ctrl : Runtime.ctrl) (eng : E.t) =
  (* the site decision, made once per pc at attach as Pin makes it at
     instrumentation time and declared to the engine, which calls the hook
     at those pcs only: until the hook fires it sees [code.(pc)] at every
     pc, and the firing call detaches it *)
  let image = eng.E.image in
  let code = image.Refine_backend.Layout.code in
  let selected = Array.make (Array.length code) false in
  (* one sweep over the functions: each runs up to the next one's start *)
  let starts = image.Refine_backend.Layout.func_starts in
  Array.iteri
    (fun k (name, first) ->
      let stop = if k + 1 < Array.length starts then snd starts.(k + 1) else Array.length code in
      if Selection.func_selected sel name then
        for pc = first to stop - 1 do
          selected.(pc) <-
            (if opcode then opcode_site sel code.(pc) else Selection.minstr_selected sel code.(pc))
        done)
    starts;
  let on_instr (eng : E.t) (pc : int) (i : M.t) =
    Runtime.tick ctrl eng;
    match ctrl.Runtime.mode with
    | Runtime.Profile -> ()
    | Runtime.Inject { target; rng; model } ->
      if (not ctrl.Runtime.fired) && ctrl.Runtime.count = target then begin
        ctrl.Runtime.fired <- true;
        let dyn_index = Int64.of_int ctrl.Runtime.count in
        (match model with
        | Fault.Mem_cell -> ctrl.Runtime.record <- Some (Corrupt.mem_fault rng eng ~dyn_index)
        | Fault.Instr_image ->
          (* the DBI hook knows the exact pc it observed — no walk-back *)
          ctrl.Runtime.record <- Some (Corrupt.image_fault rng eng ~pc ~dyn_index)
        | Fault.Opcode -> ctrl.Runtime.record <- Some (Corrupt.opcode_fault rng eng ~pc ~dyn_index)
        | Fault.Reg_bit | Fault.Multi_bit _ ->
          let outs = M.outputs i in
          let op = P.int rng (List.length outs) in
          let reg = List.nth outs op in
          let bit, mask = Corrupt.draw_mask rng ~width:(R.width_bits reg) model in
          eng.E.regs.{reg} <- Int64.logxor eng.E.regs.{reg} mask;
          ctrl.Runtime.record <-
            Some { Fault.dyn_index; op_index = op; reg_name = R.name reg; bit });
        (* detach: drop the hook and with it the DBI per-instruction tax *)
        eng.E.post_hook <- None
      end
  in
  eng.E.post_hook <-
    Some { E.on_instr; hook_cost = Fi_cost.pin_attach_per_instr; hook_pcs = selected };
  (* the decoded engine retires the visits before the target (all of them
     when profiling) without calling the hook *)
  Runtime.publish_window ctrl eng
