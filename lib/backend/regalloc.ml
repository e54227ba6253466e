(* Linear-scan register allocation.

   Intervals that overlap a call position can only be assigned callee-saved
   registers (the ABI gives the callee the right to clobber the rest); this
   restriction is what makes the LLFI pass's injected calls degrade code
   quality exactly like the paper's Listing 2c — live ranges that used to
   fit in caller-saved registers now spill around every instrumented
   instruction.

   Spilled virtual registers get an 8-byte frame slot; a rewrite pass loads
   operands into reserved scratch registers before each use and stores the
   result after each definition, producing the reload/spill traffic that
   backend-level FI can target but IR-level FI cannot see. *)

module M = Refine_mir.Minstr
module F = Refine_mir.Mfunc
module R = Refine_mir.Reg

type assignment = Phys of R.t | Slot of int (* rbp-relative offset *)

type active = { mutable iv : Liveness.interval; mutable reg : R.t }

(* [calls] ascending: the first call position at or after the interval's
   start, found by binary search, lies inside it *)
let overlaps_call (calls : int array) (iv : Liveness.interval) =
  let lo = ref 0 and hi = ref (Array.length calls) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if calls.(mid) < iv.start_pos then lo := mid + 1 else hi := mid
  done;
  !lo < Array.length calls && calls.(!lo) <= iv.end_pos

let run (mf : F.t) =
  let live = Liveness.build mf in
  let calls = Array.of_list live.call_positions (* sorted by [Liveness.build] *) in
  let assignment : (R.t, assignment) Hashtbl.t = Hashtbl.create 64 in
  (* free register pools *)
  let free_caller_gpr = ref R.caller_saved_gprs in
  let free_callee_gpr = ref R.callee_saved_gprs in
  let free_caller_fpr = ref R.caller_saved_fprs in
  let free_callee_fpr = ref R.callee_saved_fprs in
  let pool_of cls callee =
    match (cls, callee) with
    | R.GPR, false -> free_caller_gpr
    | R.GPR, true -> free_callee_gpr
    | R.FPR, false -> free_caller_fpr
    | R.FPR, true -> free_callee_fpr
  in
  let release r =
    let cls = R.class_of_phys r in
    let callee = R.is_callee_saved r in
    let pool = pool_of cls callee in
    pool := r :: !pool
  in
  let used_callee = Hashtbl.create 8 in
  let take cls callee =
    let pool = pool_of cls callee in
    match !pool with
    | r :: rest ->
      pool := rest;
      if callee then Hashtbl.replace used_callee r ();
      Some r
    | [] -> None
  in
  let active : active list ref = ref [] in
  let expire pos =
    let expired, remaining = List.partition (fun a -> a.iv.Liveness.end_pos < pos) !active in
    List.iter (fun a -> release a.reg) expired;
    active := remaining
  in
  let spill_slot : (R.t, int) Hashtbl.t = Hashtbl.create 16 in
  let slot_for v =
    match Hashtbl.find_opt spill_slot v with
    | Some s -> s
    | None ->
      let s = F.alloc_slot mf 8 in
      Hashtbl.add spill_slot v s;
      s
  in
  List.iter
    (fun (iv : Liveness.interval) ->
      expire iv.start_pos;
      let needs_callee = overlaps_call calls iv in
      let reg =
        if needs_callee then take iv.cls true
        else
          match take iv.cls false with
          | Some r -> Some r
          | None -> take iv.cls true
      in
      match reg with
      | Some r ->
        Hashtbl.replace assignment iv.vreg (Phys r);
        active := { iv; reg = r } :: !active
      | None -> (
        (* steal from the active interval with the furthest end whose
           register is usable for this interval, if it outlives us *)
        let usable a =
          F.reg_class mf a.iv.Liveness.vreg = iv.cls
          && ((not needs_callee) || R.is_callee_saved a.reg)
        in
        let candidates = List.filter usable !active in
        let victim =
          List.fold_left
            (fun best a ->
              match best with
              | None -> Some a
              | Some b -> if a.iv.Liveness.end_pos > b.iv.Liveness.end_pos then Some a else Some b)
            None candidates
        in
        match victim with
        | Some v when v.iv.Liveness.end_pos > iv.end_pos ->
          (* victim spills; we take its register *)
          Hashtbl.replace assignment v.iv.Liveness.vreg (Slot (slot_for v.iv.Liveness.vreg));
          Hashtbl.replace assignment iv.vreg (Phys v.reg);
          v.iv <- iv
        | _ ->
          (* spill the current interval *)
          Hashtbl.replace assignment iv.vreg (Slot (slot_for iv.vreg))))
    live.intervals;
  mf.F.used_callee_saved <-
    Hashtbl.fold (fun r () acc -> r :: acc) used_callee [] |> List.sort compare;
  (* ---- rewrite: apply assignments, insert reloads/spills --------------- *)
  let assign r =
    if R.is_virtual r then
      match Hashtbl.find_opt assignment r with
      | Some a -> a
      | None -> Phys R.scratch_gpr0 (* defined but never alive: any scratch is fine *)
    else Phys r
  in
  List.iter
    (fun (b : F.mblock) ->
      let out = ref [] in
      List.iter
        (fun instr ->
          let ins = List.filter R.is_virtual (M.inputs instr) in
          let outs = List.filter R.is_virtual (M.outputs instr) in
          let spilled_ins =
            List.sort_uniq compare (List.filter (fun r -> match assign r with Slot _ -> true | _ -> false) ins)
          in
          let spilled_outs =
            List.sort_uniq compare (List.filter (fun r -> match assign r with Slot _ -> true | _ -> false) outs)
          in
          (* pick scratches per class, in order *)
          let gpr_scratches = ref [ R.scratch_gpr0; R.scratch_gpr1; R.scratch_gpr2 ] in
          let fpr_scratches = ref [ R.scratch_fpr0; R.scratch_fpr1 ] in
          let scratch_map : (R.t, R.t) Hashtbl.t = Hashtbl.create 4 in
          let scratch_for v =
            match Hashtbl.find_opt scratch_map v with
            | Some s -> s
            | None ->
              let pool = match F.reg_class mf v with R.GPR -> gpr_scratches | R.FPR -> fpr_scratches in
              (match !pool with
              | s :: rest ->
                pool := rest;
                Hashtbl.add scratch_map v s;
                s
              | [] -> failwith "Regalloc: out of scratch registers")
          in
          (* reload spilled inputs *)
          List.iter
            (fun v ->
              let s = scratch_for v in
              let off = match assign v with Slot o -> o | Phys _ -> assert false in
              out := M.Mload (s, R.rbp, off) :: !out)
            spilled_ins;
          (* ensure spilled outputs have a scratch too; when the pool of a
             class is exhausted, an output may reuse an input's scratch —
             the engine reads all inputs before writing the destination *)
          List.iter
            (fun v ->
              if not (Hashtbl.mem scratch_map v) then begin
                let cls = F.reg_class mf v in
                let pool = match cls with R.GPR -> gpr_scratches | R.FPR -> fpr_scratches in
                match !pool with
                | s :: rest ->
                  pool := rest;
                  Hashtbl.add scratch_map v s
                | [] -> (
                  let donor =
                    List.find_opt (fun u -> F.reg_class mf u = cls) spilled_ins
                  in
                  match donor with
                  | Some u -> Hashtbl.add scratch_map v (Hashtbl.find scratch_map u)
                  | None -> failwith "Regalloc: out of scratch registers")
              end)
            spilled_outs;
          let subst r =
            if R.is_virtual r then
              match assign r with
              | Phys p -> p
              | Slot _ -> Hashtbl.find scratch_map r
            else r
          in
          out := M.map_regs subst instr :: !out;
          (* store spilled outputs *)
          List.iter
            (fun v ->
              let s = Hashtbl.find scratch_map v in
              let off = match assign v with Slot o -> o | Phys _ -> assert false in
              out := M.Mstore (s, R.rbp, off) :: !out)
            spilled_outs)
        b.code;
      b.code <- List.rev !out)
    mf.F.blocks
