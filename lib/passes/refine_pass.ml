(* The REFINE compiler pass (paper §4.2): basic-block instrumentation of
   the final machine code, after instruction selection, register allocation,
   frame lowering and peephole optimization — right before emission.

   For every candidate instruction (writes at least one register, matches
   the -fi-funcs / -fi-instrs selection, and is not a return — there is no
   insertion point after a return), the pass splices the control-flow
   pattern of Figure 2 after it:

     PreFI    save the registers the instrumentation clobbers (r0) and
              FLAGS, call selInstr(), branch to PostFI unless it fired
     SetupFI  save r1/r2, pass <nOps, sizes> to setupFI(), decode the
              returned <operand, bit>, dispatch to the operand's FI block
     FI_k     flip the chosen bit of output register k with an XOR-class
              instruction; registers that live in the saved area (r0, r1,
              r2, FLAGS) are flipped in their stack slots so the restore
              does not undo the flip; rsp is flipped through a +32
              adjustment so the flip applies to the application-visible
              stack pointer
     PostFI   restore FLAGS and r0, continue with the rest of the block

   Because no code is touched before this point, the application's
   instruction stream is exactly the stream of the clean binary — the
   elimination of code-generation interference that §4.2.2 claims. *)

module M = Refine_mir.Minstr
module R = Refine_mir.Reg
module F = Refine_mir.Mfunc
module I = Refine_ir.Ir

(* The splice's fixed instructions, each one value that every splice of
   every function shares: an instrumented image has about twenty slots
   per original instruction, so a block allocated per slot would make
   the image's instructions outweigh the golden binary's many times
   over. *)
let r0 = R.gpr 0
let r1 = R.gpr 1
let r2 = R.gpr 2
let push_r0 = M.Mpush r0
let sel_call = M.Mcallext "fi_sel_instr"
let sel_test = M.Mcmp (R.ret_gpr, M.Imm 0L)
let push_r1 = M.Mpush r1
let push_r2 = M.Mpush r2
let setup_call = M.Mcallext "fi_setup_fi"
let decode_op = M.Mmov (r1, M.Reg R.ret_gpr)
let decode_shr = M.Mbin (I.Lshr, r1, r1, M.Imm 6L)
let decode_bit = M.Mbin (I.And, R.ret_gpr, R.ret_gpr, M.Imm 63L)
let pop_r2 = M.Mpop r2
let pop_r1 = M.Mpop r1
let pop_r0 = M.Mpop r0

(* Candidates: selected instructions that write registers; returns have no
   post-instruction insertion point (§4.2.3's block splicing needs one). *)
let candidate sel (i : M.t) =
  (match i with M.Mret | M.Mhalt -> false | _ -> true) && Selection.minstr_selected sel i

(* stack offsets of the saved registers while an FI block runs:
   pushes are r0 [, FLAGS] (PreFI) then r1, r2 (SetupFI) *)
let saved_slot ~save_flags r =
  let f = if save_flags then 8 else 0 in
  if r = r0 then Some (16 + f)
  else if save_flags && r = R.flags then Some 16
  else if r = r1 then Some 8
  else if r = r2 then Some 0
  else None

let flip_code ~save_flags target =
  match saved_slot ~save_flags target with
  | Some off -> [ M.Mxorbitmem (R.rsp, off, R.ret_gpr) ]
  | None ->
    if target = R.rsp then
      (* apply the flip to the application-visible rsp (above the saves) *)
      let depth = Int64.of_int (if save_flags then 32 else 24) in
      [
        M.Mbin (I.Add, R.rsp, R.rsp, M.Imm depth);
        M.Mxorbit (R.rsp, R.ret_gpr);
        M.Mbin (I.Sub, R.rsp, R.rsp, M.Imm depth);
      ]
    else [ M.Mxorbit (target, R.ret_gpr) ]

let pack_sizes outs =
  List.fold_left
    (fun (acc, shift) r ->
      (Int64.logor acc (Int64.shift_left (Int64.of_int (R.width_bits r)) shift), shift + 8))
    (0L, 0) outs
  |> fst

(* Returns the number of instrumented instructions (static).

   [save_flags=false] is an ablation switch used by tests and the
   benchmark harness: it omits the PreFI/PostFI FLAGS save/restore,
   demonstrating that without it the instrumentation's own compare
   corrupts application control flow — i.e. why Figure 2's PreFI must
   "save any register state that may be clobbered". *)
let run ?(sel = Selection.default) ?(save_flags = true) (mf : F.t) : int =
  if not (Selection.func_selected sel mf.F.mname) then 0
  else begin
    let instrumented = ref 0 in
    let new_blocks = ref [] in
    let cur_label = ref 0 in
    let cur_code = ref [] in
    let open_block lbl = cur_label := lbl; cur_code := [] in
    let close_block () =
      new_blocks := { F.mlbl = !cur_label; code = List.rev !cur_code } :: !new_blocks
    in
    let emit i = cur_code := i :: !cur_code in
    (* the per-site forms (operand counts, size words, dispatch compares,
       flips) repeat across a function's splices: emit each once *)
    let forms = Hashtbl.create 64 in
    let emit_form i =
      emit
        (match Hashtbl.find_opt forms i with
        | Some shared -> shared
        | None ->
          Hashtbl.add forms i i;
          i)
    in
    List.iter
      (fun (b : F.mblock) ->
        open_block b.mlbl;
        List.iter
          (fun i ->
            emit i;
            if candidate sel i then begin
              incr instrumented;
              let outs = M.outputs i in
              let nops = List.length outs in
              let setup = F.fresh_label mf in
              let fidone = F.fresh_label mf in
              let post = F.fresh_label mf in
              let fi_lbls = List.map (fun _ -> F.fresh_label mf) outs in
              (* PreFI *)
              emit push_r0;
              if save_flags then emit M.Mpushf;
              emit sel_call;
              emit sel_test;
              emit (M.Mjcc (M.CEq, post));
              emit (M.Mjmp setup);
              close_block ();
              (* SetupFI *)
              open_block setup;
              emit push_r1;
              emit push_r2;
              emit_form (M.Mmov (r1, M.Imm (Int64.of_int nops)));
              emit_form (M.Mmov (r2, M.Imm (pack_sizes outs)));
              emit setup_call;
              emit decode_op;
              emit decode_shr;
              emit decode_bit;
              List.iteri
                (fun k lbl ->
                  emit_form (M.Mcmp (r1, M.Imm (Int64.of_int k)));
                  emit (M.Mjcc (M.CEq, lbl)))
                fi_lbls;
              emit (M.Mjmp fidone);
              close_block ();
              (* FI_k blocks *)
              List.iter2
                (fun target lbl ->
                  open_block lbl;
                  List.iter emit_form (flip_code ~save_flags target);
                  emit (M.Mjmp fidone);
                  close_block ())
                outs fi_lbls;
              (* common restore of the SetupFI saves *)
              open_block fidone;
              emit pop_r2;
              emit pop_r1;
              emit (M.Mjmp post);
              close_block ();
              (* PostFI: restore and continue with the rest of the block *)
              open_block post;
              if save_flags then emit M.Mpopf;
              emit pop_r0
            end)
          b.code;
        close_block ())
      mf.F.blocks;
    mf.F.blocks <- List.rev !new_blocks;
    !instrumented
  end
