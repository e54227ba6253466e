(* Shared fault-mutation primitives for the cross-layer fault models
   (DESIGN.md §18).

   The three injector runtimes (REFINE control library, LLFI callbacks,
   PINFI hook) share the *what* of a fault — which machine state is struck
   and how — while keeping their own *when* (trigger mechanism).  This
   module owns the what:

   - [draw_mask]: the XOR mask of a register-value fault (single bit, k
     distinct bits, or a contiguous burst);
   - [mem_fault]: flip one bit of a data-memory cell drawn uniformly over
     the image's initialized bytes (Mem_cell);
   - [image_fault]: corrupt one code slot via the engine's overlay — a
     different valid instruction, a wild operand encoding, or an illegal
     encoding that traps on fetch (Instr_image);
   - [alternatives] and [opcode_fault]: the valid same-shape opcode
     replacements, and the overlay of one of them (Opcode, the paper's
     §4.5 valid-opcode corruption).

   It lives below [Runtime]/[Pinfi] so both can call it without
   dependency cycles. *)

module E = Refine_machine.Exec
module M = Refine_mir.Minstr
module R = Refine_mir.Reg
module L = Refine_backend.Layout
module Mem = Refine_ir.Memlayout
module P = Refine_support.Prng
module B = Refine_support.Bitops
module I = Refine_ir.Ir

(* --- valid same-shape opcode replacements ------------------------------
   Instructions with no compatible alternative (moves, control transfers,
   ...) are not valid-opcode corruption targets. *)
let alternatives (i : M.t) : M.t list =
  let ibinops = [ I.Add; I.Sub; I.Mul; I.And; I.Or; I.Xor; I.Shl; I.Lshr; I.Ashr ] in
  let fbinops = [ I.Fadd; I.Fsub; I.Fmul; I.Fdiv ] in
  let int_ccs = [ M.CEq; M.CNe; M.CLt; M.CLe; M.CGt; M.CGe ] in
  let float_ccs = [ M.CFeq; M.CFne; M.CFlt; M.CFle; M.CFgt; M.CFge ] in
  match i with
  | M.Mbin (op, d, a, b) ->
    List.filter_map
      (fun op' -> if op' <> op then Some (M.Mbin (op', d, a, b)) else None)
      ibinops
  | M.Mfbin (op, d, a, b) ->
    List.filter_map
      (fun op' -> if op' <> op then Some (M.Mfbin (op', d, a, b)) else None)
      fbinops
  | M.Mfun (op, d, a) ->
    List.filter_map
      (fun op' -> if op' <> op then Some (M.Mfun (op', d, a)) else None)
      [ I.Fneg; I.Fsqrt; I.Fabs ]
  | M.Mjcc (cc, l) ->
    let pool = if List.mem cc int_ccs then int_ccs else float_ccs in
    List.filter_map (fun cc' -> if cc' <> cc then Some (M.Mjcc (cc', l)) else None) pool
  | M.Msetcc (cc, d) ->
    let pool = if List.mem cc int_ccs then int_ccs else float_ccs in
    List.filter_map (fun cc' -> if cc' <> cc then Some (M.Msetcc (cc', d)) else None) pool
  | M.Mload (d, b, off) -> [ M.Mlea (d, b, None, off) ] (* mov r,[m] -> lea r,[m] *)
  | M.Mlea (d, b, None, off) -> [ M.Mload (d, b, off) ]
  | _ -> []

(* --- register-value XOR masks ------------------------------------------ *)

(* (lowest flipped bit, XOR mask) of one register-value fault below
   [width].  Reg_bit draws exactly one [P.int rng width] — the same single
   draw the pre-model runtimes made, so fixed-seed reg campaigns stay
   bit-identical.  Multi_bit draws via [Bitops.draw_bits].  Mem_cell,
   Instr_image and Opcode faults never reach here (their mutation is not
   a register mask). *)
let draw_mask rng ~width (model : Fault.model) : int * int64 =
  match model with
  | Fault.Multi_bit { bits; burst } ->
    let chosen = B.draw_bits (P.int rng) ~width ~bits ~burst in
    (List.hd chosen, B.mask_of_bits chosen)
  | Fault.Reg_bit | Fault.Mem_cell | Fault.Instr_image | Fault.Opcode ->
    let bit = P.int rng width in
    (bit, Int64.shift_left 1L bit)

(* --- data-memory cells (Mem_cell) -------------------------------------- *)

(* Candidate cells: the initialized global byte ranges of the image.  A
   program with no initialized data still has architecturally meaningful
   memory — the sentinel return-address cell at the top of the stack — so
   the model degrades to an 8-byte target instead of an empty population. *)
let data_extent (image : L.image) : (int * int) list =
  let gs =
    List.filter_map
      (fun (g : I.global) ->
        match g.I.gbytes with
        | Some s when String.length s > 0 ->
          Some (image.L.global_addr g.I.gname, String.length s)
        | _ -> None)
      image.L.globals
  in
  if gs = [] then [ (Mem.mem_size - 8, 8) ] else gs

let mem_fault rng (eng : E.t) ~dyn_index : Fault.record =
  let ranges = data_extent eng.E.image in
  let total = List.fold_left (fun n (_, len) -> n + len) 0 ranges in
  let idx = P.int rng total in
  let rec locate idx = function
    | (base, len) :: rest -> if idx < len then base + idx else locate (idx - len) rest
    | [] -> assert false
  in
  let addr = locate idx ranges in
  let bit = P.int rng 8 in
  E.flip_mem_bit eng ~addr ~bit;
  { Fault.dyn_index; op_index = 0; reg_name = Printf.sprintf "mem[0x%x]" addr; bit }

(* --- instruction-image mutation (Instr_image) -------------------------- *)

(* One bit of a register-field encoding: the mutated index may name a
   different register or fall outside the register file (an illegal
   encoding). *)
let mutate_reg rng r : R.t option =
  let r' = r lxor (1 lsl P.int rng 6) in
  if r' >= 0 && r' < R.num_regs then Some r' else None

let mutate_opd rng = function
  | M.Imm v -> Some (M.Imm (B.flip_bit v (P.int rng 64)))
  | M.Reg r -> Option.map (fun r' -> M.Reg r') (mutate_reg rng r)

(* offsets and branch targets: flip one bit of the low 16 — wild but
   type-correct values; an out-of-range branch target traps [Bad_pc] when
   (if) the mutated instruction executes, exactly like a real code-byte
   upset *)
let mutate_int rng v = v lxor (1 lsl P.int rng 16)

(* The mutated decoding of instruction [i] under a code-image bit upset:
   [None] = the corrupted encoding no longer decodes (fetch traps
   [Illegal_instr]).  One draw selects the struck field class — opcode
   (1 in 4, matching roughly one byte of a several-byte encoding) or a
   uniformly chosen operand field. *)
let mutate rng (i : M.t) : M.t option =
  if P.int rng 4 = 0 then begin
    (* opcode field: another valid same-shape encoding, or an illegal one *)
    let alts = alternatives i in
    let n = List.length alts in
    let j = P.int rng (n + 1) in
    if j = n then None else Some (List.nth alts j)
  end
  else begin
    let reg r k = Option.map k (mutate_reg rng r) in
    let opd o k = Option.map k (mutate_opd rng o) in
    match i with
    | M.Mmov (d, s) ->
      if P.int rng 2 = 0 then reg d (fun d -> M.Mmov (d, s)) else opd s (fun s -> M.Mmov (d, s))
    | M.Mload (d, b, off) -> (
      match P.int rng 3 with
      | 0 -> reg d (fun d -> M.Mload (d, b, off))
      | 1 -> reg b (fun b -> M.Mload (d, b, off))
      | _ -> Some (M.Mload (d, b, mutate_int rng off)))
    | M.Mstore (s, b, off) -> (
      match P.int rng 3 with
      | 0 -> reg s (fun s -> M.Mstore (s, b, off))
      | 1 -> reg b (fun b -> M.Mstore (s, b, off))
      | _ -> Some (M.Mstore (s, b, mutate_int rng off)))
    | M.Mloadidx (d, b, ix, off) -> (
      match P.int rng 4 with
      | 0 -> reg d (fun d -> M.Mloadidx (d, b, ix, off))
      | 1 -> reg b (fun b -> M.Mloadidx (d, b, ix, off))
      | 2 -> reg ix (fun ix -> M.Mloadidx (d, b, ix, off))
      | _ -> Some (M.Mloadidx (d, b, ix, mutate_int rng off)))
    | M.Mstoreidx (s, b, ix, off) -> (
      match P.int rng 4 with
      | 0 -> reg s (fun s -> M.Mstoreidx (s, b, ix, off))
      | 1 -> reg b (fun b -> M.Mstoreidx (s, b, ix, off))
      | 2 -> reg ix (fun ix -> M.Mstoreidx (s, b, ix, off))
      | _ -> Some (M.Mstoreidx (s, b, ix, mutate_int rng off)))
    | M.Mlea (d, b, ix, off) -> (
      match P.int rng 3 with
      | 0 -> reg d (fun d -> M.Mlea (d, b, ix, off))
      | 1 -> reg b (fun b -> M.Mlea (d, b, ix, off))
      | _ -> Some (M.Mlea (d, b, ix, mutate_int rng off)))
    | M.Mbin (op, d, a, b) -> (
      match P.int rng 3 with
      | 0 -> reg d (fun d -> M.Mbin (op, d, a, b))
      | 1 -> reg a (fun a -> M.Mbin (op, d, a, b))
      | _ -> opd b (fun b -> M.Mbin (op, d, a, b)))
    | M.Mfbin (op, d, a, b) -> (
      match P.int rng 3 with
      | 0 -> reg d (fun d -> M.Mfbin (op, d, a, b))
      | 1 -> reg a (fun a -> M.Mfbin (op, d, a, b))
      | _ -> reg b (fun b -> M.Mfbin (op, d, a, b)))
    | M.Mfun (op, d, a) ->
      if P.int rng 2 = 0 then reg d (fun d -> M.Mfun (op, d, a))
      else reg a (fun a -> M.Mfun (op, d, a))
    | M.Mcvt (op, d, a) ->
      if P.int rng 2 = 0 then reg d (fun d -> M.Mcvt (op, d, a))
      else reg a (fun a -> M.Mcvt (op, d, a))
    | M.Mcmp (a, b) ->
      if P.int rng 2 = 0 then reg a (fun a -> M.Mcmp (a, b)) else opd b (fun b -> M.Mcmp (a, b))
    | M.Mfcmp (a, b) ->
      if P.int rng 2 = 0 then reg a (fun a -> M.Mfcmp (a, b))
      else reg b (fun b -> M.Mfcmp (a, b))
    | M.Msetcc (cc, d) -> reg d (fun d -> M.Msetcc (cc, d))
    | M.Mjcc (cc, target) -> Some (M.Mjcc (cc, mutate_int rng target))
    | M.Mjmp target -> Some (M.Mjmp (mutate_int rng target))
    | M.Mpush r -> reg r (fun r -> M.Mpush r)
    | M.Mpop r -> reg r (fun r -> M.Mpop r)
    | M.Mcalli target -> Some (M.Mcalli (mutate_int rng target))
    | M.Mxorbit (d, s) ->
      if P.int rng 2 = 0 then reg d (fun d -> M.Mxorbit (d, s))
      else reg s (fun s -> M.Mxorbit (d, s))
    | M.Mxorbitmem (b, off, s) -> (
      match P.int rng 3 with
      | 0 -> reg b (fun b -> M.Mxorbitmem (b, off, s))
      | 1 -> reg s (fun s -> M.Mxorbitmem (b, off, s))
      | _ -> Some (M.Mxorbitmem (b, mutate_int rng off, s)))
    (* operand-less or name-carrying encodings: a bit upset lands in the
       opcode/name bytes and stops decoding *)
    | M.Mpushf | M.Mpopf | M.Mcall _ | M.Mcallext _ | M.Mret | M.Mhalt -> None
  end

let image_fault rng (eng : E.t) ~pc ~dyn_index : Fault.record =
  let i = eng.E.image.L.code.(pc) in
  let i' = mutate rng i in
  E.set_overlay eng ~pc i';
  {
    Fault.dyn_index;
    op_index = 0;
    reg_name = Printf.sprintf "code[%d]" pc;
    bit = (match i' with None -> -1 | Some _ -> 0);
  }

(* --- valid-opcode corruption (Opcode) ----------------------------------
   A corrupted opcode byte that persists for the rest of the run: one
   uniform draw over the slot's alternatives, installed through the same
   overlay as Instr_image. *)
let opcode_fault rng (eng : E.t) ~pc ~dyn_index : Fault.record =
  let alts = alternatives eng.E.image.L.code.(pc) in
  E.set_overlay eng ~pc (Some (List.nth alts (P.int rng (List.length alts))));
  { Fault.dyn_index; op_index = 0; reg_name = Printf.sprintf "pc=%d" pc; bit = -1 }

(* The pc of the application instruction a control-library call was
   instrumented after: the call site is [eng.pc - 1] (the executor already
   advanced past the Mcallext), and the REFINE splice precedes it with the
   PreFI saves — walk back over Mpush/Mpushf to the original instruction.
   For LLFI's IR-level calls this lands on the nearest preceding machine
   instruction of the call sequence, the closest machine-level anchor an
   IR-level tool has. *)
let instrumented_pc (eng : E.t) : int =
  let code = eng.E.image.L.code in
  let p = ref (eng.E.pc - 2) in
  while !p > 0 && (match code.(!p) with M.Mpush _ | M.Mpushf -> true | _ -> false) do
    decr p
  done;
  max 0 !p
