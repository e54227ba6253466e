(* Instruction selection: optimized IR -> SX64 machine code over virtual
   registers.

   Selection includes the classic lowering steps whose output the paper's
   IR-level FI tools never see (§3.3.1): phi elimination into parallel
   copies, address-mode folding (gep + load/store -> indexed accesses),
   compare/branch fusion, ABI argument marshaling and stack-slot addressing
   for allocas.  Register allocation, prologue/epilogue insertion and
   spilling come later and add still more machine-only instructions. *)

module I = Refine_ir.Ir
module M = Refine_mir.Minstr
module R = Refine_mir.Reg
module F = Refine_mir.Mfunc

exception Unsupported of string

type env = {
  irf : I.func;
  mf : F.t;
  (* IR value -> virtual register *)
  vregs : (I.value, R.t) Hashtbl.t;
  (* IR use counts, for fusion decisions *)
  uses : (I.value, int) Hashtbl.t;
  (* single-use geps folded into the load/store that consumes them *)
  folded_geps : (I.value, I.operand * I.operand) Hashtbl.t;
  (* compares fused into their block's conditional branch *)
  fused_cmps : (I.value, unit) Hashtbl.t;
  (* alloca -> rbp-relative offset *)
  alloca_slots : (I.value, int) Hashtbl.t;
  global_addr : string -> int;
  mutable cur : F.mblock;
}

let class_of_ty = function I.I64 -> R.GPR | I.F64 -> R.FPR

let vreg_of env v =
  match Hashtbl.find_opt env.vregs v with
  | Some r -> r
  | None ->
    let r = F.fresh_vreg env.mf (class_of_ty (I.value_ty env.irf v)) in
    Hashtbl.add env.vregs v r;
    r

(* blocks accumulate in reverse while selecting (prepending keeps a long
   block linear); [select_func] reverses each one once at the end *)
let emit env i = env.cur.code <- i :: env.cur.code

(* Force an IR operand into a register. *)
let reg_of env (o : I.operand) : R.t =
  match o with
  | I.Var v -> vreg_of env v
  | I.ICst c ->
    let r = F.fresh_vreg env.mf R.GPR in
    emit env (M.Mmov (r, M.Imm c));
    r
  | I.FCst f ->
    let r = F.fresh_vreg env.mf R.FPR in
    emit env (M.Mmov (r, M.Imm (Int64.bits_of_float f)));
    r

(* Integer operand position that accepts an immediate. *)
let opd_of env (o : I.operand) : M.mopd =
  match o with
  | I.Var v -> M.Reg (vreg_of env v)
  | I.ICst c -> M.Imm c
  | I.FCst f -> M.Reg (reg_of env (I.FCst f))

let cc_of_icmp : I.icmp -> M.cc = function
  | I.Ieq -> M.CEq | I.Ine -> M.CNe | I.Ilt -> M.CLt | I.Ile -> M.CLe
  | I.Igt -> M.CGt | I.Ige -> M.CGe

let cc_of_fcmp : I.fcmp -> M.cc = function
  | I.Feq -> M.CFeq | I.Fne -> M.CFne | I.Flt -> M.CFlt | I.Fle -> M.CFle
  | I.Fgt -> M.CFgt | I.Fge -> M.CFge

(* --- analysis: use counts, fusable compares, foldable geps ------------ *)

let count_uses (fn : I.func) =
  let uses = Hashtbl.create 64 in
  let bump = function
    | I.Var v -> Hashtbl.replace uses v (1 + try Hashtbl.find uses v with Not_found -> 0)
    | _ -> ()
  in
  List.iter
    (fun (b : I.block) ->
      List.iter (fun (p : I.phi) -> List.iter (fun (_, o) -> bump o) p.incoming) b.phis;
      List.iter (fun i -> List.iter bump (I.instr_uses i)) b.body;
      List.iter bump (I.term_uses b.term))
    fn.blocks;
  uses

let analyse env =
  let use_count v = try Hashtbl.find env.uses v with Not_found -> 0 in
  List.iter
    (fun (b : I.block) ->
      (* fusable compare: defined here, single use, consumed by this block's Cbr *)
      (match b.term with
      | I.Cbr (I.Var c, _, _) when use_count c = 1 ->
        let defined_here_as_cmp =
          List.exists
            (fun i ->
              match i with
              | I.Icmp (d, _, _, _) | I.Fcmp (d, _, _, _) -> d = c
              | _ -> false)
            b.body
        in
        if defined_here_as_cmp then Hashtbl.replace env.fused_cmps c ()
      | _ -> ());
      (* foldable gep: single use, consumed as the address of a load/store *)
      List.iter
        (fun i ->
          match i with
          | I.Gep (d, base, idx) when use_count d = 1 ->
            let consumed_as_addr =
              List.exists
                (fun j ->
                  match j with
                  | I.Load (_, _, I.Var a) -> a = d
                  | I.Store (_, _, I.Var a) -> a = d
                  | _ -> false)
                (List.concat_map (fun (bb : I.block) -> bb.body) env.irf.blocks)
            in
            if consumed_as_addr then Hashtbl.replace env.folded_geps d (base, idx)
          | _ -> ())
        b.body)
    env.irf.blocks

(* --- address lowering -------------------------------------------------- *)

(* Lower a load/store address, folding single-use geps into addressing
   modes.  Returns the (base, index option, offset) triple. *)
let lower_addr env (addr : I.operand) : R.t * R.t option * int =
  match addr with
  | I.Var a when Hashtbl.mem env.folded_geps a -> (
    let base, idx = Hashtbl.find env.folded_geps a in
    let breg = reg_of env base in
    match idx with
    | I.ICst c -> (breg, None, 8 * Int64.to_int c)
    | other -> (breg, Some (reg_of env other), 0))
  | other -> (reg_of env other, None, 0)

(* --- phi copies -------------------------------------------------------- *)

(* Parallel copies for the edge into [target]: (dst vreg, source operand)
   pairs.  Sequentialized through temporaries when a destination is also
   read as a source (the swap problem). *)
let phi_copies env (target : I.block) (from : I.label) =
  let pairs =
    List.map
      (fun (p : I.phi) ->
        match List.assoc_opt from p.incoming with
        | Some o -> (vreg_of env p.pdst, o)
        | None ->
          raise
            (Unsupported
               (Printf.sprintf "phi v%d in L%d missing edge from L%d" p.pdst target.lbl from)))
      target.phis
  in
  if pairs = [] then ()
  else begin
    let dests = List.map fst pairs in
    let reads_dest =
      List.exists
        (fun (_, o) -> match o with I.Var v -> List.mem (vreg_of env v) dests | _ -> false)
        pairs
    in
    if not reads_dest then
      List.iter
        (fun (d, o) ->
          match o with
          | I.ICst c -> emit env (M.Mmov (d, M.Imm c))
          | I.FCst f -> emit env (M.Mmov (d, M.Imm (Int64.bits_of_float f)))
          | I.Var v -> emit env (M.Mmov (d, M.Reg (vreg_of env v))))
        pairs
    else begin
      (* copy all sources to temps first, then temps to destinations *)
      let temps =
        List.map
          (fun (d, o) ->
            let cls = F.reg_class env.mf d in
            let t = F.fresh_vreg env.mf cls in
            (match o with
            | I.ICst c -> emit env (M.Mmov (t, M.Imm c))
            | I.FCst f -> emit env (M.Mmov (t, M.Imm (Int64.bits_of_float f)))
            | I.Var v -> emit env (M.Mmov (t, M.Reg (vreg_of env v))));
            (d, t))
          pairs
      in
      List.iter (fun (d, t) -> emit env (M.Mmov (d, M.Reg t))) temps
    end
  end

(* --- calls ------------------------------------------------------------- *)

let marshal_args env (args : I.operand list) (tys : I.ty list) =
  (* force non-immediate arguments into vregs first so the physical-register
     marshal movs form one contiguous region (the allocator treats that
     region as part of the call) *)
  let prepared =
    List.map
      (fun (o : I.operand) ->
        match o with
        | I.ICst c -> `Imm c
        | I.FCst f -> `Imm (Int64.bits_of_float f)
        | I.Var v -> `Reg (vreg_of env v))
      args
  in
  let gp = ref R.arg_gprs and fp = ref R.arg_fprs in
  let take cell what =
    match !cell with
    | r :: rest ->
      cell := rest;
      r
    | [] -> raise (Unsupported ("too many " ^ what ^ " arguments"))
  in
  List.iter2
    (fun p ty ->
      let dst = match ty with I.I64 -> take gp "integer" | I.F64 -> take fp "float" in
      match p with
      | `Imm c -> emit env (M.Mmov (dst, M.Imm c))
      | `Reg r -> emit env (M.Mmov (dst, M.Reg r)))
    prepared tys

(* --- instruction lowering ---------------------------------------------- *)

let lower_instr env (modul : I.modul) (i : I.instr) =
  match i with
  | I.Ibinop (d, op, a, b) ->
    emit env (M.Mbin (op, vreg_of env d, reg_of env a, opd_of env b))
  | I.Fbinop (d, op, a, b) ->
    emit env (M.Mfbin (op, vreg_of env d, reg_of env a, reg_of env b))
  | I.Icmp (d, op, a, b) ->
    if not (Hashtbl.mem env.fused_cmps d) then begin
      emit env (M.Mcmp (reg_of env a, opd_of env b));
      emit env (M.Msetcc (cc_of_icmp op, vreg_of env d))
    end
  | I.Fcmp (d, op, a, b) ->
    if not (Hashtbl.mem env.fused_cmps d) then begin
      emit env (M.Mfcmp (reg_of env a, reg_of env b));
      emit env (M.Msetcc (cc_of_fcmp op, vreg_of env d))
    end
  | I.Funop (d, op, a) -> emit env (M.Mfun (op, vreg_of env d, reg_of env a))
  | I.Cast (d, op, a) -> emit env (M.Mcvt (op, vreg_of env d, reg_of env a))
  | I.Select (d, _, c, a, b) ->
    (* branch diamond; SX64 has no cmov *)
    let dst = vreg_of env d in
    let lfalse = F.fresh_label env.mf in
    let lend = F.fresh_label env.mf in
    emit env (M.Mcmp (reg_of env c, M.Imm 0L));
    emit env (M.Mjcc (M.CEq, lfalse));
    emit env (M.Mmov (dst, M.Reg (reg_of env a)));
    emit env (M.Mjmp lend);
    let bfalse = F.add_block env.mf lfalse in
    env.cur <- bfalse;
    emit env (M.Mmov (dst, M.Reg (reg_of env b)));
    emit env (M.Mjmp lend);
    let bend = F.add_block env.mf lend in
    env.cur <- bend
  | I.Load (d, _, addr) ->
    let base, idx, off = lower_addr env addr in
    (match idx with
    | None -> emit env (M.Mload (vreg_of env d, base, off))
    | Some ix -> emit env (M.Mloadidx (vreg_of env d, base, ix, off)))
  | I.Store (_, v, addr) ->
    let src = reg_of env v in
    let base, idx, off = lower_addr env addr in
    (match idx with
    | None -> emit env (M.Mstore (src, base, off))
    | Some ix -> emit env (M.Mstoreidx (src, base, ix, off)))
  | I.Alloca (d, _) ->
    let off = Hashtbl.find env.alloca_slots d in
    emit env (M.Mlea (vreg_of env d, R.rbp, None, off))
  | I.Gep (d, base, idx) ->
    if not (Hashtbl.mem env.folded_geps d) then begin
      match idx with
      | I.ICst c -> emit env (M.Mlea (vreg_of env d, reg_of env base, None, 8 * Int64.to_int c))
      | other -> emit env (M.Mlea (vreg_of env d, reg_of env base, Some (reg_of env other), 0))
    end
  | I.Gaddr (d, g) -> emit env (M.Mmov (vreg_of env d, M.Imm (Int64.of_int (env.global_addr g))))
  | I.Call (d, rty, name, args) -> (
    let is_ext = Refine_ir.Externs.is_extern name in
    let tys =
      if is_ext then fst (Option.get (Refine_ir.Externs.signature name))
      else
        match List.find_opt (fun (f : I.func) -> f.fname = name) modul.funcs with
        | Some callee -> List.map snd callee.params
        | None -> raise (Unsupported ("call to unknown function " ^ name))
    in
    marshal_args env args tys;
    emit env (if is_ext then M.Mcallext name else M.Mcall name);
    match d with
    | Some dv ->
      let ret_phys = match rty with I.I64 -> R.ret_gpr | I.F64 -> R.ret_fpr in
      emit env (M.Mmov (vreg_of env dv, M.Reg ret_phys))
    | None -> ())

let lower_term env (fn : I.func) (b : I.block) =
  let copies_then_jump target =
    let tblk = I.find_block fn target in
    (* multi-pred targets receive their copies here (the predecessor has a
       single successor after critical-edge splitting) *)
    phi_copies env tblk b.lbl;
    emit env (M.Mjmp target)
  in
  match b.term with
  | I.Br target -> copies_then_jump target
  | I.Cbr (_, t, e) when t = e -> copies_then_jump t
  | I.Cbr (c, t, e) -> (
    (* both successors are phi-free or single-pred after splitting; their
       copies are emitted at the top of the successor blocks *)
    let fused =
      match c with
      | I.Var v when Hashtbl.mem env.fused_cmps v ->
        List.find_map
          (fun i ->
            match i with
            | I.Icmp (d, op, a, bb) when d = v -> Some (`I (op, a, bb))
            | I.Fcmp (d, op, a, bb) when d = v -> Some (`F (op, a, bb))
            | _ -> None)
          b.body
      | _ -> None
    in
    match fused with
    | Some (`I (op, a, bb)) ->
      emit env (M.Mcmp (reg_of env a, opd_of env bb));
      emit env (M.Mjcc (cc_of_icmp op, t));
      emit env (M.Mjmp e)
    | Some (`F (op, a, bb)) ->
      emit env (M.Mfcmp (reg_of env a, reg_of env bb));
      emit env (M.Mjcc (cc_of_fcmp op, t));
      emit env (M.Mjmp e)
    | None ->
      emit env (M.Mcmp (reg_of env c, M.Imm 0L));
      emit env (M.Mjcc (M.CNe, t));
      emit env (M.Mjmp e))
  | I.Ret value ->
    (match value with
    | Some o ->
      let phys =
        match I.operand_ty env.irf o with I.I64 -> R.ret_gpr | I.F64 -> R.ret_fpr
      in
      (match o with
      | I.ICst c -> emit env (M.Mmov (phys, M.Imm c))
      | I.FCst f -> emit env (M.Mmov (phys, M.Imm (Int64.bits_of_float f)))
      | I.Var v -> emit env (M.Mmov (phys, M.Reg (vreg_of env v))))
    | None -> ());
    emit env M.Mret
  | I.Unreachable -> emit env M.Mhalt

(* A block with a single predecessor receives its phi copies at its own
   top (the predecessor may have several successors). *)
let entry_phi_copies env (cfg : Refine_ir.Cfg.t) (b : I.block) =
  if b.phis <> [] then
    match Refine_ir.Cfg.predecessors cfg b.lbl with
    | [ single ] -> phi_copies env b single
    | preds ->
      (* multi-pred blocks get copies from predecessors; verify the
         invariant that those predecessors have one successor each *)
      List.iter
        (fun p ->
          let pb = I.find_block env.irf p in
          if List.length (I.term_succs pb.term) > 1 then
            raise (Unsupported "critical edge survived splitting"))
        preds

(* When copies are emitted in predecessors, suppress them at block top. *)
let select_func ~global_addr (modul : I.modul) (fn : I.func) : F.t =
  Splitcrit.run fn;
  let cfg = Refine_ir.Cfg.build fn in
  let mf = F.create fn.fname in
  (* reserve MIR labels matching IR labels *)
  List.iter (fun (b : I.block) -> if b.lbl >= mf.F.next_label then mf.F.next_label <- b.lbl + 1)
    fn.blocks;
  let env =
    {
      irf = fn;
      mf;
      vregs = Hashtbl.create 64;
      uses = count_uses fn;
      folded_geps = Hashtbl.create 16;
      fused_cmps = Hashtbl.create 16;
      alloca_slots = Hashtbl.create 16;
      global_addr;
      cur = F.add_block mf (I.entry_block fn).lbl;
    }
  in
  analyse env;
  (* frame slots for allocas *)
  List.iter
    (fun (b : I.block) ->
      List.iter
        (fun i ->
          match i with
          | I.Alloca (d, n) -> Hashtbl.replace env.alloca_slots d (F.alloc_slot mf n)
          | _ -> ())
        b.body)
    fn.blocks;
  (* parameters: copy ABI registers into vregs at entry *)
  let gp = ref R.arg_gprs and fp = ref R.arg_fprs in
  List.iter
    (fun (v, ty) ->
      let cell = match ty with I.I64 -> gp | I.F64 -> fp in
      match !cell with
      | r :: rest ->
        cell := rest;
        emit env (M.Mmov (vreg_of env v, M.Reg r))
      | [] -> raise (Unsupported "too many parameters"))
    fn.params;
  (* lower blocks in IR order; entry block instructions continue in cur *)
  let first = ref true in
  List.iter
    (fun (b : I.block) ->
      if !first then first := false
      else env.cur <- F.add_block mf b.lbl;
      entry_phi_copies env cfg b;
      List.iter (lower_instr env modul) b.body;
      lower_term env fn b)
    fn.blocks;
  List.iter (fun (mb : F.mblock) -> mb.code <- List.rev mb.code) mf.F.blocks;
  mf
