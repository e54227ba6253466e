(* Machine-code well-formedness checks, run after register allocation and
   frame lowering (and after FI instrumentation in tests).  Catches backend
   bugs the IR verifier cannot see: leftover virtual registers, unresolved
   labels, scratch-register conflicts and unterminated final blocks. *)

open Minstr

exception Invalid of string

let fail fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt

(* [allow_virtual] checks pre-RA code (after instruction selection). *)
let check_func ?(allow_virtual = false) (mf : Mfunc.t) =
  let labels = Hashtbl.create 16 in
  List.iter
    (fun (b : Mfunc.mblock) ->
      if Hashtbl.mem labels b.Mfunc.mlbl then
        fail "%s: duplicate machine label L%d" mf.Mfunc.mname b.Mfunc.mlbl;
      Hashtbl.add labels b.Mfunc.mlbl ())
    mf.Mfunc.blocks;
  (* [i] is rendered only for the message of a check that fails *)
  let check_reg i r =
    if Reg.is_physical r then ()
    else if Reg.is_virtual r then begin
      if not allow_virtual then fail "%s: virtual register %s survived allocation in %s"
          mf.Mfunc.mname (Reg.name r) (Mprinter.to_string i);
      match Hashtbl.find_opt mf.Mfunc.vreg_class r with
      | Some _ -> ()
      | None -> fail "%s: vreg %s has no class" mf.Mfunc.mname (Reg.name r)
    end
    else fail "%s: invalid register id %d in %s" mf.Mfunc.mname r (Mprinter.to_string i)
  in
  let check_label i l =
    if not (Hashtbl.mem labels l) then
      fail "%s: %s targets missing label L%d" mf.Mfunc.mname (Mprinter.to_string i) l
  in
  List.iter
    (fun (b : Mfunc.mblock) ->
      List.iter
        (fun i ->
          List.iter (check_reg i) (inputs i);
          List.iter (check_reg i) (outputs i);
          match i with
          | Mjmp l | Mjcc (_, l) -> check_label i l
          | Mcalli _ -> fail "%s: resolved call before layout" mf.Mfunc.mname
          | _ -> ())
        b.Mfunc.code)
    mf.Mfunc.blocks;
  (* the last block must not fall off the end of the function *)
  (match List.rev mf.Mfunc.blocks with
  | last :: _ -> (
    match List.rev last.Mfunc.code with
    | i :: _ ->
      if not (is_terminator i) then
        fail "%s: final block L%d falls off the function (%s)" mf.Mfunc.mname last.Mfunc.mlbl
          (Mprinter.to_string i)
    | [] -> fail "%s: final block L%d is empty" mf.Mfunc.mname last.Mfunc.mlbl)
  | [] -> fail "%s: no blocks" mf.Mfunc.mname);
  (* frame sanity *)
  if mf.Mfunc.frame_bytes < 0 then fail "%s: negative frame size" mf.Mfunc.mname;
  List.iter
    (fun r ->
      if not (Reg.is_callee_saved r) then
        fail "%s: %s recorded as used callee-saved" mf.Mfunc.mname (Reg.name r))
    mf.Mfunc.used_callee_saved

let check_funcs ?allow_virtual funcs = List.iter (check_func ?allow_virtual) funcs

(* --- post-instrumentation verification (DESIGN.md §13) ------------------

   The REFINE pass splices PreFI/SetupFI/FI_k/PostFI blocks into final
   machine code; the paper's accuracy claim rests on that splice changing
   nothing but the single flipped bit.  [check_instrumented] re-verifies
   an instrumented function structurally:

   - every [fi_sel_instr] call sits in a well-formed PreFI tail (register
     saves before it, compare + conditional skip + jump to SetupFI after
     it, ending the block);
   - SetupFI/FI_k/FIdone blocks write only the FI clique (r0, r1, r2,
     FLAGS, rsp) — except the single intended flip, whose shape is one of
     the three emitted patterns (register xor, saved-slot xor in the
     stack, rsp adjust + xor + readjust);
   - every FI_k block falls through to the same FIdone block, which
     restores r1/r2 and jumps to PostFI, whose prefix restores FLAGS (when
     saved) and r0;
   - all labels resolve (inherited from [check_func]) and the frame size
     is untouched by instrumentation ([expect_frame_bytes]).

   A violation raises [Invalid]; campaign callers convert it into a
   quarantined cell instead of trusting a binary whose machine program the
   splice may have corrupted. *)

let fi_clique = [ Reg.gpr 0; Reg.gpr 1; Reg.gpr 2; Reg.flags; Reg.rsp ]

let in_clique r = List.mem r fi_clique

let check_instrumented ?expect_frame_bytes (mf : Mfunc.t) =
  check_func mf;
  (match expect_frame_bytes with
  | Some n ->
    if mf.Mfunc.frame_bytes <> n then
      fail "%s: instrumentation changed the frame size (%d -> %d bytes)" mf.Mfunc.mname n
        mf.Mfunc.frame_bytes
  | None -> ());
  (* labels are unique ([check_func] above), so one table serves every
     splice lookup *)
  let blocks = Hashtbl.create 64 in
  List.iter (fun (b : Mfunc.mblock) -> Hashtbl.replace blocks b.Mfunc.mlbl b) mf.Mfunc.blocks;
  let block lbl =
    match Hashtbl.find_opt blocks lbl with
    | Some b -> b
    | None -> fail "%s: FI splice targets missing block L%d" mf.Mfunc.mname lbl
  in
  (* only clique registers may be written, except one optional flip *)
  let check_confined ~what ~allow_flip lbl code =
    let flips = ref 0 in
    List.iter
      (fun i ->
        match i with
        | Mxorbit (_, s) when allow_flip ->
          incr flips;
          if s <> Reg.ret_gpr then
            fail "%s: %s L%d flips with bit index in %s, not r0" mf.Mfunc.mname what lbl
              (Reg.name s)
        | Mxorbitmem (b, _, s) when allow_flip ->
          incr flips;
          if b <> Reg.rsp || s <> Reg.ret_gpr then
            fail "%s: %s L%d memory flip outside the saved area" mf.Mfunc.mname what lbl
        | _ ->
          List.iter
            (fun r ->
              if not (in_clique r) then
                fail "%s: %s L%d clobbers %s outside the FI clique (%s)" mf.Mfunc.mname what
                  lbl (Reg.name r) (Mprinter.to_string i))
            (outputs i))
      code;
    if allow_flip && !flips > 1 then
      fail "%s: %s L%d performs %d flips (at most one fault per block)" mf.Mfunc.mname what
        lbl !flips
  in
  (* FIdone: exactly restore r2, r1 and jump to PostFI; returns the PostFI
     label *)
  let check_fidone lbl =
    match (block lbl).Mfunc.code with
    | [ Mpop p2; Mpop p1; Mjmp post ] when p2 = Reg.gpr 2 && p1 = Reg.gpr 1 -> post
    | _ -> fail "%s: FIdone L%d is not [pop r2; pop r1; jmp PostFI]" mf.Mfunc.mname lbl
  in
  let check_post ~save_flags lbl =
    match (block lbl).Mfunc.code with
    | Mpopf :: Mpop p0 :: _ when save_flags && p0 = Reg.gpr 0 -> ()
    | Mpop p0 :: _ when (not save_flags) && p0 = Reg.gpr 0 -> ()
    | _ ->
      fail "%s: PostFI L%d does not restore %sr0 before continuing" mf.Mfunc.mname lbl
        (if save_flags then "FLAGS and " else "")
  in
  let check_fi_block lbl =
    let b = block lbl in
    (match List.rev b.Mfunc.code with
    | Mjmp fidone :: _ -> ignore (check_fidone fidone)
    | _ -> fail "%s: FI block L%d does not fall through to FIdone" mf.Mfunc.mname lbl);
    let body = List.filter (fun i -> not (is_terminator i)) b.Mfunc.code in
    (match body with
    | [ Mxorbit (_, _) ] | [ Mxorbitmem (_, _, _) ] -> ()
    | [ Mbin (Refine_ir.Ir.Add, a, b', Imm d); Mxorbit (x, _); Mbin (Refine_ir.Ir.Sub, c, e, Imm d') ]
      when a = Reg.rsp && b' = Reg.rsp && x = Reg.rsp && c = Reg.rsp && e = Reg.rsp && d = d' ->
      ()
    | _ -> fail "%s: FI block L%d is not a single-bit flip" mf.Mfunc.mname lbl);
    check_confined ~what:"FI block" ~allow_flip:true lbl b.Mfunc.code;
    match List.rev b.Mfunc.code with Mjmp fidone :: _ -> fidone | _ -> assert false
  in
  (* SetupFI: saves r1/r2, calls fi_setup_fi, decodes, dispatches only to
     FI blocks; returns (fi_labels, fidone label) *)
  let check_setup lbl =
    let b = block lbl in
    (match b.Mfunc.code with
    | Mpush p1 :: Mpush p2 :: _ when p1 = Reg.gpr 1 && p2 = Reg.gpr 2 -> ()
    | _ -> fail "%s: SetupFI L%d does not save r1/r2 first" mf.Mfunc.mname lbl);
    if not (List.exists (function Mcallext "fi_setup_fi" -> true | _ -> false) b.Mfunc.code)
    then fail "%s: SetupFI L%d never calls fi_setup_fi" mf.Mfunc.mname lbl;
    check_confined ~what:"SetupFI" ~allow_flip:false lbl b.Mfunc.code;
    let fi_lbls =
      List.filter_map (function Mjcc (CEq, l) -> Some l | _ -> None) b.Mfunc.code
    in
    let fidone =
      match List.rev b.Mfunc.code with
      | Mjmp l :: _ -> l
      | _ -> fail "%s: SetupFI L%d does not end in a dispatch default" mf.Mfunc.mname lbl
    in
    if fi_lbls = [] then
      fail "%s: SetupFI L%d dispatches to no FI block" mf.Mfunc.mname lbl;
    (fi_lbls, fidone)
  in
  let sites = ref 0 in
  List.iter
    (fun (b : Mfunc.mblock) ->
      if List.exists (function Mcallext "fi_sel_instr" -> true | _ -> false) b.Mfunc.code
      then begin
        incr sites;
        (* the PreFI tail must end the block: saves, the call, the
           fired-test and the two-way branch *)
        let tail = List.rev b.Mfunc.code in
        let setup, post, rest =
          match tail with
          | Mjmp setup :: Mjcc (CEq, post) :: Mcmp (r, Imm 0L) :: rest when r = Reg.ret_gpr ->
            (setup, post, rest)
          | _ ->
            fail "%s: PreFI in L%d does not end with [cmp r0,0; jcc eq PostFI; jmp SetupFI]"
              mf.Mfunc.mname b.Mfunc.mlbl
        in
        let save_flags =
          match rest with
          | Mcallext "fi_sel_instr" :: Mpushf :: Mpush p0 :: _ when p0 = Reg.gpr 0 -> true
          | Mcallext "fi_sel_instr" :: Mpush p0 :: _ when p0 = Reg.gpr 0 -> false
          | _ ->
            fail "%s: PreFI in L%d does not save r0%s before fi_sel_instr" mf.Mfunc.mname
              b.Mfunc.mlbl " (and FLAGS)"
        in
        let fi_lbls, fidone = check_setup setup in
        List.iter
          (fun l ->
            let fd = check_fi_block l in
            if fd <> fidone then
              fail "%s: FI block L%d falls through to L%d, not the splice's FIdone L%d"
                mf.Mfunc.mname l fd fidone)
          fi_lbls;
        let post' = check_fidone fidone in
        if post' <> post then
          fail "%s: FIdone L%d resumes at L%d but PreFI skips to L%d" mf.Mfunc.mname fidone
            post' post;
        check_post ~save_flags post
      end)
    mf.Mfunc.blocks;
  !sites
