(* What one instruction does (DESIGN.md §14, §19): the memory and flag
   helpers, the reference [step] semantics, the decoded closures and the
   two superinstructions, [decode], and the engine's fusion-free and
   overlay tables.

   This unit stays one compilation unit on purpose.  The dev profile
   compiles with [-opaque], so nothing is inlined across units, and an
   int64 passed to a helper that is not inlined gets boxed: [opd],
   [load64], [store64], [push], [pop] and the decoded result writers are
   inlined here, so a value travels between the register file and the
   arena unboxed.

   Integer/float operation semantics are shared with the IR reference
   interpreter ([Refine_ir.Interp]) so the two cannot drift; the semantic
   property tests compare them on random programs.

   Cost model (DESIGN.md §6): 1 unit per instruction, [ext_call_cost] units
   per runtime-library call, plus the attached dynamic-instrumentation
   hook's (PINFI's) [hook_cost] per instruction — charged, before the
   instruction runs, by [step] and by the decoded loop's hooked path, never
   by [exec_instr] or a decoded closure.  Condition codes are evaluated
   with int bit tests, and extern calls dispatch through the engine's
   handler array, resolved once from the image's [ext_slot_of_pc] table. *)

open State

(* --- flags ----------------------------------------------------------- *)

(* FLAGS is the word ZF|LT|UNORD (bits 0, 1, 2), written raw into the
   unboxed register file *)
let set_flags t ~zf ~lt ~unord =
  let i =
    (if zf then 1 else 0) lor (if lt then 2 else 0) lor if unord then 4 else 0
  in
  t.regs.{R.flags} <- Int64.of_int i

let eval_cc t (cc : M.cc) =
  let fl = Int64.to_int t.regs.{R.flags} in
  let zf = fl land 1 <> 0 and lt = fl land 2 <> 0 and unord = fl land 4 <> 0 in
  match cc with
  | M.CEq -> zf
  | M.CNe -> not zf
  | M.CLt -> lt
  | M.CLe -> lt || zf
  | M.CGt -> not (lt || zf)
  | M.CGe -> not lt
  | M.CFeq -> zf && not unord
  | M.CFne -> (not zf) || unord
  | M.CFlt -> lt && not unord
  | M.CFle -> (lt || zf) && not unord
  | M.CFgt -> (not (lt || zf)) && not unord
  | M.CFge -> (not lt) && not unord

(* --- memory ----------------------------------------------------------- *)

(* [State]'s page size and return sentinel, restated as literals: under
   [-opaque] another unit's value is loaded at every use, and these are
   read on every store and every return *)
let page_bits = 12
let sentinel = -1L
let () = assert (page_bits = State.page_bits && sentinel = State.sentinel)

(* [addr > mem_size - 8] rather than [addr + 8 > mem_size]: the latter
   wraps for addresses within 8 of max_int (reachable when a fault writes
   a huge value into a base register) and would let the access outside
   the arena, which the unchecked accessors below never bounds-check. *)
let[@inline always] check_addr addr =
  if addr < Mem.null_guard || addr > Mem.mem_size - 8 then raise (Halt_trap (Mem_fault addr))

(* flag the page(s) an 8-byte write at [addr] lands on; two unconditional
   byte stores are cheaper than testing whether the write straddles *)
let[@inline always] touch8 (t : t) addr =
  Bytes.unsafe_set t.priv.dirty (addr lsr page_bits) '\001';
  Bytes.unsafe_set t.priv.dirty ((addr + 7) lsr page_bits) '\001'

(* the arena's little-endian 8-byte cell at [addr], range already checked *)
let[@inline always] get_le (m : arena) addr =
  let v = unsafe_get64 m addr in
  if Sys.big_endian then bswap64 v else v

(* The machine's checked 64-bit accesses.  Inlined, like every helper an
   int64 passes through, so a value travels between the register file and
   the arena unboxed. *)
let[@inline always] load64 (t : t) addr =
  check_addr addr;
  get_le t.mem addr

let[@inline always] store64 (t : t) addr v =
  check_addr addr;
  unsafe_set64 t.mem addr (if Sys.big_endian then bswap64 v else v);
  touch8 t addr

let[@inline always] push (t : t) v =
  let sp = Int64.to_int (A1.unsafe_get t.regs R.rsp) - 8 in
  if sp < Mem.mem_size - Mem.stack_limit then raise (Halt_trap Stack_overflow);
  A1.unsafe_set t.regs R.rsp (Int64.of_int sp);
  store64 t sp v

let[@inline always] pop (t : t) =
  let sp = Int64.to_int (A1.unsafe_get t.regs R.rsp) in
  let v = load64 t sp in
  A1.unsafe_set t.regs R.rsp (Int64.of_int (sp + 8));
  v

let f64 = Int64.float_of_bits
let b64 = Int64.bits_of_float

(* The extern slot of the [Mcallext] at [pc].  [Layout.build] and
   [Fimap] give every [Mcallext] one and no fault model creates an
   [Mcallext], so a missing slot is a harness defect. *)
let ext_slot (image : L.image) pc =
  let slot = L.ext_slot image pc in
  if slot < 0 then invalid_arg (Printf.sprintf "Exec: Mcallext at pc %d has no extern slot" pc);
  slot

(* --- single step -------------------------------------------------------- *)

(* the opcode class of the slot at [pc] (in range), off the image's
   one-byte-per-slot table *)
let[@inline always] class_at (image : L.image) pc =
  Char.code (String.unsafe_get image.L.class_of_pc pc)

(* Shadow call stack: record, per [Mcalli], the stack slot the return
   address was pushed into and the value pushed.  Handoff to a golden-map
   detach target validates every live entry against memory and rewrites
   the slot to the translated golden pc; a mismatch (a fault struck a
   stored return address or rsp) declines the handoff instead of
   translating a wrong frame.  Two int-array writes per call on the hot
   path; the arrays only grow (by doubling) past 64 live frames. *)
let[@inline] cs_push (t : t) slot v =
  let p = t.priv in
  let n = p.cs_len in
  (if n >= Array.length p.cs_slots then begin
     let cap = Array.length p.cs_slots in
     let ns = Array.make (2 * cap) 0 and nv = Array.make (2 * cap) 0L in
     Array.blit p.cs_slots 0 ns 0 cap;
     Array.blit p.cs_vals 0 nv 0 cap;
     p.cs_slots <- ns;
     p.cs_vals <- nv
   end);
  Array.unsafe_set p.cs_slots n slot;
  Array.unsafe_set p.cs_vals n v;
  p.cs_len <- n + 1

let[@inline] cs_pop (t : t) =
  let p = t.priv in
  if p.cs_len > 0 then p.cs_len <- p.cs_len - 1

let[@inline always] opd (t : t) = function M.Reg r -> t.regs.{r} | M.Imm v -> v

(* Execute [i] as the instruction at [pc0] (bounds already established by
   the caller).  Factored out of [step] so the Instr_image overlay can
   substitute a mutated instruction for the fetched one without an
   allocation on the hot path, and so a decoded slot without a fast
   closure can run it.  A trap raises [Halt_trap]; the hook is not this
   function's business (its callers charge and call it). *)
let exec_instr (t : t) pc0 (i : M.t) =
  let code = t.image.L.code in
  t.steps <- t.steps + 1;
  t.cost <- t.cost + 1;
  (match t.prof with
  | None -> ()
  | Some p ->
    let k = class_at t.image pc0 in
    p.class_steps.(k) <- p.class_steps.(k) + 1);
  t.pc <- pc0 + 1;
  match i with
  | M.Mmov (d, s) -> t.regs.{d} <- opd t s
  | M.Mload (d, b, off) -> t.regs.{d} <- load64 t (Int64.to_int t.regs.{b} + off)
  | M.Mstore (s, b, off) -> store64 t (Int64.to_int t.regs.{b} + off) t.regs.{s}
  | M.Mloadidx (d, b, ix, off) ->
    t.regs.{d} <-
      load64 t (Int64.to_int t.regs.{b} + (8 * Int64.to_int t.regs.{ix}) + off)
  | M.Mstoreidx (s, b, ix, off) ->
    store64 t (Int64.to_int t.regs.{b} + (8 * Int64.to_int t.regs.{ix}) + off) t.regs.{s}
  | M.Mlea (d, b, ix, off) ->
    let base = t.regs.{b} in
    let idx = match ix with Some r -> Int64.mul 8L t.regs.{r} | None -> 0L in
    t.regs.{d} <- Int64.add (Int64.add base idx) (Int64.of_int off)
  | M.Mbin (op, d, a, b) ->
    let va = t.regs.{a} and vb = opd t b in
    let r =
      try Refine_ir.Interp.eval_ibinop op va vb
      with Refine_ir.Interp.Trap _ -> raise (Halt_trap Div_by_zero)
    in
    t.regs.{d} <- r;
    set_flags t ~zf:(r = 0L) ~lt:(Int64.compare r 0L < 0) ~unord:false
  | M.Mfbin (op, d, a, b) ->
    t.regs.{d} <- b64 (Refine_ir.Interp.eval_fbinop op (f64 t.regs.{a}) (f64 t.regs.{b}))
  | M.Mfun (op, d, a) -> t.regs.{d} <- b64 (Refine_ir.Interp.eval_funop op (f64 t.regs.{a}))
  | M.Mcvt (Sitofp, d, a) -> t.regs.{d} <- b64 (Int64.to_float t.regs.{a})
  | M.Mcvt (Fptosi, d, a) -> t.regs.{d} <- Refine_ir.Interp.fptosi (f64 t.regs.{a})
  | M.Mcmp (a, b) ->
    let va = t.regs.{a} and vb = opd t b in
    let c = Int64.compare va vb in
    set_flags t ~zf:(c = 0) ~lt:(c < 0) ~unord:false
  | M.Mfcmp (a, b) ->
    let va = f64 t.regs.{a} and vb = f64 t.regs.{b} in
    if Float.is_nan va || Float.is_nan vb then set_flags t ~zf:false ~lt:false ~unord:true
    else set_flags t ~zf:(va = vb) ~lt:(va < vb) ~unord:false
  | M.Msetcc (cc, d) -> t.regs.{d} <- (if eval_cc t cc then 1L else 0L)
  | M.Mjcc (cc, target) -> if eval_cc t cc then t.pc <- target
  | M.Mjmp target -> t.pc <- target
  | M.Mpush r -> push t t.regs.{r}
  | M.Mpop r -> t.regs.{r} <- pop t
  | M.Mpushf -> push t t.regs.{R.flags}
  | M.Mpopf -> t.regs.{R.flags} <- pop t
  | M.Mcalli target ->
    let ra = Int64.of_int t.pc in
    push t ra;
    cs_push t (Int64.to_int t.regs.{R.rsp}) ra;
    t.pc <- target
  | M.Mcall name -> raise (Halt_trap (Extern_fault ("unresolved call " ^ name)))
  | M.Mcallext _ ->
    (* pre-resolved dispatch: no string hashing on the hot path *)
    t.priv.handlers.(ext_slot t.image pc0) t
  | M.Mret ->
    let ra = pop t in
    cs_pop t;
    if ra = sentinel then t.status <- Exited (Int64.to_int t.regs.{R.ret_gpr})
    else begin
      let target = Int64.to_int ra in
      if target < 0 || target >= Array.length code then raise (Halt_trap (Bad_pc target))
      else t.pc <- target
    end
  | M.Mxorbit (d, s) ->
    if d = R.rsp || d = R.rbp then t.priv.sp_struck <- true;
    (* a pending multi-bit mask overrides the single-bit flip: the
       splice stays one instruction, the fault gets k bits (§18) *)
    if t.fi_mask <> 0L then begin
      t.regs.{d} <- Int64.logxor t.regs.{d} t.fi_mask;
      t.fi_mask <- 0L
    end
    else
      t.regs.{d} <-
        Int64.logxor t.regs.{d}
          (Int64.shift_left 1L (Int64.to_int (Int64.logand t.regs.{s} 63L)))
  | M.Mxorbitmem (b, off, s) ->
    let addr = Int64.to_int t.regs.{b} + off in
    let v = load64 t addr in
    let mask =
      if t.fi_mask <> 0L then begin
        let m = t.fi_mask in
        t.fi_mask <- 0L;
        m
      end
      else Int64.shift_left 1L (Int64.to_int (Int64.logand t.regs.{s} 63L))
    in
    store64 t addr (Int64.logxor v mask)
  | M.Mhalt -> t.status <- Exited (Int64.to_int t.regs.{R.ret_gpr})

(* The fetch of an Instr_image slot whose corrupted encoding no longer
   decodes: it retires as a step, then traps. *)
let illegal_fetch (t : t) pc =
  t.steps <- t.steps + 1;
  t.cost <- t.cost + 1;
  raise (Halt_trap (Illegal_instr pc))

(* One instruction of the reference semantics.  An attached hook's cost is
   charged before the instruction runs, so a trapping instruction pays it;
   the hook attached when the instruction started runs after it, at a pc
   it declares, unless the instruction trapped.  The skip window is never
   read here: every declared visit calls the hook. *)
let step (t : t) =
  let code = t.image.L.code in
  let pc0 = t.pc in
  if pc0 < 0 || pc0 >= Array.length code then t.status <- Trapped (Bad_pc pc0)
  else begin
    let hook = t.post_hook in
    (match hook with Some h -> t.cost <- t.cost + h.hook_cost | None -> ());
    try
      (* overlay check is one int compare on the hot path; only a hit pays
         for the option match *)
      let i =
        if pc0 <> t.overlay_pc then Array.unsafe_get code pc0
        else match t.overlay_instr with Some i -> i | None -> illegal_fetch t pc0
      in
      exec_instr t pc0 i;
      match hook with Some h when h.hook_pcs.(pc0) -> h.on_instr t pc0 i | _ -> ()
    with Halt_trap tr -> t.status <- Trapped tr
  end

(* --- pre-decoded engine (DESIGN.md §19) ---------------------------------

   The decoded executor turns each loaded instruction into a closure with
   operands, flag-word writes, branch targets and extern slots resolved at
   decode time — generalizing §14's extern-slot pre-resolution to every
   opcode — plus two superinstructions that retire the instrumentation the
   paper's tools insert: REFINE's FI splice and LLFI's injectFault call
   group.  Exactness invariants (asserted by the differential qcheck
   suite):

   - every single-instruction decode retires its own step / cost / profile
     counts and ends with the legacy loop's 1024-step poll-slot test, so FI
     triggers (the word-compare on the target step) and heartbeats fire at
     bit-identical points;
   - a superinstruction retires its group in one batch only inside the FI
     library's skip window and when no poll slot, budget edge or stack
     trap falls inside the group; the batch enters no library, so nothing
     in it can install an overlay or a DBI hook.  Otherwise it runs its
     head's single decode and the group goes on one instruction at a
     time, so there is one exact path per instruction;
   - while a [post_hook] is attached the loop dispatches the fusion-free
     table itself: it charges the hook's cost before each instruction,
     calls the hook after it at the pcs the hook declares (or retires the
     visit inside the skip window) and runs the poll-slot check after the
     hook, exactly where [step_loop] does; a decoded closure never
     charges hook cost;
   - an Instr_image overlay switches the engine to its own fusion-free
     table whose overlaid slot runs the mutated instruction's decode;
   - every slot of a REFINE splice runs [exec_instr] itself through the
     one [interp] closure, and only the splice's head heads a
     superinstruction, the fi-splice.

   Decoded closures capture no engine and, [Mcalli]'s return address
   aside, no pc: they run as the slot at [t.pc], so a decode shares one
   closure among the slots holding the same instruction and weight, and
   a [dprogram] is immutable and shared read-only across engines and
   domains. *)

type dop = t -> unit

(* retire-check: the legacy run loop's poll-slot test, executed after
   every retired instruction *)
let[@inline always] rc (t : t) = if t.steps land 1023 = 0 then t.priv.d_check ()

(* per-instruction accounting, [exec_instr]'s prologue for the slot at
   [t.pc] (called before the closure moves the pc), charging [c] cost
   units: 1, or the whole weight of a weighted slot (DESIGN.md §20) whose
   form can neither trap nor change the run status.  Like [exec_instr], it
   reads the opcode class off the image only while profiling, so a closure
   holds neither its class nor its pc and serves every slot holding its
   instruction *)
let[@inline always] account (t : t) c =
  t.steps <- t.steps + 1;
  t.cost <- t.cost + c;
  match t.prof with
  | None -> ()
  | Some p ->
    let k = class_at t.image t.pc in
    p.class_steps.(k) <- p.class_steps.(k) + 1

(* a profiled batch retires one more step of the slot at [pc]'s class *)
let[@inline always] count_class (p : profile) (image : L.image) pc =
  let k = class_at image pc in
  p.class_steps.(k) <- p.class_steps.(k) + 1

(* [exec_instr] and a status-changing form charge a weighted slot 1: add
   the [rest] of its weight once the slot retired, if the run goes on *)
let[@inline always] top_up (t : t) rest =
  match t.status with Running -> t.cost <- t.cost + rest | _ -> ()

(* comparisons spelled with the int64-specialized operators: the compiler
   compiles them to unboxed native compares instead of C calls *)
let[@inline always] set_flags_r (t : t) (r : int64) =
  let i = (if r = 0L then 1 else 0) lor if r < 0L then 2 else 0 in
  A1.unsafe_set t.regs R.flags (Int64.of_int i)

let[@inline always] flags_of (va : int64) (vb : int64) =
  (if va = vb then 1 else 0) lor if va < vb then 2 else 0

(* integer condition codes as a FLAGS bit test: [Some (mask, want)] means
   the condition holds iff [(flags land mask <> 0) = want]; [None] for
   float codes (they additionally read the UNORD bit) *)
let int_cc : M.cc -> (int * bool) option = function
  | M.CEq -> Some (1, true)
  | M.CNe -> Some (1, false)
  | M.CLt -> Some (2, true)
  | M.CLe -> Some (3, true)
  | M.CGt -> Some (3, false)
  | M.CGe -> Some (2, false)
  | _ -> None

(* [eval_cc] specialized to a closure over the integer FLAGS word *)
let cc_fn (cc : M.cc) : int -> bool =
  match cc with
  | M.CEq -> fun fl -> fl land 1 <> 0
  | M.CNe -> fun fl -> fl land 1 = 0
  | M.CLt -> fun fl -> fl land 2 <> 0
  | M.CLe -> fun fl -> fl land 3 <> 0
  | M.CGt -> fun fl -> fl land 3 = 0
  | M.CGe -> fun fl -> fl land 2 = 0
  | M.CFeq -> fun fl -> fl land 1 <> 0 && fl land 4 = 0
  | M.CFne -> fun fl -> fl land 1 = 0 || fl land 4 <> 0
  | M.CFlt -> fun fl -> fl land 2 <> 0 && fl land 4 = 0
  | M.CFle -> fun fl -> fl land 3 <> 0 && fl land 4 = 0
  | M.CFgt -> fun fl -> fl land 3 = 0 && fl land 4 = 0
  | M.CFge -> fun fl -> fl land 2 = 0 && fl land 4 = 0

(* Decode one instruction, first met at slot [pc0] with cost weight [cw],
   into a closure.  The closure takes its pc from the engine ([t.pc] is
   the slot it runs as), so [decode] shares it across every slot holding
   the same instruction and weight; only [Mcalli] captures its slot's
   return address.  The class and extern-slot tables are read off the
   engine's image at that pc, matching [exec_instr], including for
   Instr_image overlay instructions; an extern's slot is a function of its
   callee name ([Layout] gives each distinct extern one), so it is
   resolved once here from [image].  Register indices are validated here
   so the closures use unchecked array access; an operand outside the
   register file (impossible for layout output, and [Corrupt.mutate]
   clamps registers) falls back to the legacy [exec_instr].

   A weighted slot (DESIGN.md §20: a detach target's candidate, whose
   weight stands for the splice the twin lost) charges its weight only
   once it retired with the run still going, as the attached run reaches
   that splice only then.  Each form's fast closure keeps that rule at the
   least cost: a form that can neither trap nor change the run status
   charges the whole weight up front; a trap-capable one (load, store,
   push, pop, divide, [Mcalli], [Mxorbitmem]) charges 1 and adds the
   [rest] after its access; [Mret] and extern calls, which can also end
   the run, top up only while it is [Running], as [via_legacy] does; and
   [Mhalt] and an unresolved [Mcall], which always end it, charge 1. *)
let decode_one ?(cw = 1) (image : L.image) (pc0 : int) (i : M.t) : dop =
  let rest = cw - 1 in
  let code_len = Array.length image.L.code in
  let okr r = r >= 0 && r < R.num_regs in
  let oko = function M.Reg r -> okr r | M.Imm _ -> true in
  let via_legacy : dop =
   fun t ->
    exec_instr t t.pc i;
    top_up t rest;
    rc t
  in
  match i with
  | M.Mmov (d, M.Reg s) when okr d && okr s ->
    fun t ->
      account t cw;
      t.pc <- t.pc + 1;
      A1.unsafe_set t.regs d (A1.unsafe_get t.regs s);
      rc t
  | M.Mmov (d, M.Imm v) when okr d ->
    fun t ->
      account t cw;
      t.pc <- t.pc + 1;
      A1.unsafe_set t.regs d v;
      rc t
  | M.Mload (d, b, off) when okr d && okr b ->
    fun t ->
      account t 1;
      t.pc <- t.pc + 1;
      A1.unsafe_set t.regs d (load64 t (Int64.to_int (A1.unsafe_get t.regs b) + off));
      t.cost <- t.cost + rest;
      rc t
  | M.Mstore (s, b, off) when okr s && okr b ->
    fun t ->
      account t 1;
      t.pc <- t.pc + 1;
      store64 t (Int64.to_int (A1.unsafe_get t.regs b) + off) (A1.unsafe_get t.regs s);
      t.cost <- t.cost + rest;
      rc t
  | M.Mloadidx (d, b, ix, off) when okr d && okr b && okr ix ->
    fun t ->
      account t 1;
      t.pc <- t.pc + 1;
      A1.unsafe_set t.regs d
        (load64 t
           (Int64.to_int (A1.unsafe_get t.regs b)
           + (8 * Int64.to_int (A1.unsafe_get t.regs ix))
           + off));
      t.cost <- t.cost + rest;
      rc t
  | M.Mstoreidx (s, b, ix, off) when okr s && okr b && okr ix ->
    fun t ->
      account t 1;
      t.pc <- t.pc + 1;
      store64 t
        (Int64.to_int (A1.unsafe_get t.regs b)
        + (8 * Int64.to_int (A1.unsafe_get t.regs ix))
        + off)
        (A1.unsafe_get t.regs s);
      t.cost <- t.cost + rest;
      rc t
  | M.Mlea (d, b, Some ix, off) when okr d && okr b && okr ix ->
    let offl = Int64.of_int off in
    fun t ->
      account t cw;
      t.pc <- t.pc + 1;
      A1.unsafe_set t.regs d
        (Int64.add
           (Int64.add (A1.unsafe_get t.regs b) (Int64.mul 8L (A1.unsafe_get t.regs ix)))
           offl);
      rc t
  | M.Mlea (d, b, None, off) when okr d && okr b ->
    let offl = Int64.of_int off in
    fun t ->
      account t cw;
      t.pc <- t.pc + 1;
      A1.unsafe_set t.regs d (Int64.add (A1.unsafe_get t.regs b) offl);
      rc t
  | M.Mbin (op, d, a, b) when okr d && okr a && oko b ->
    (* inlined into every closure below, so the result is never boxed *)
    let[@inline always] fin (t : t) (r : int64) =
      A1.unsafe_set t.regs d r;
      set_flags_r t r;
      rc t
    in
    (* a divide charges 1 up front and the rest of its weight once it got
       past its zero check *)
    let[@inline always] fin_div (t : t) (r : int64) =
      t.cost <- t.cost + rest;
      fin t r
    in
    (match b with
    | M.Imm vb -> (
      match (op : Refine_ir.Ir.ibinop) with
      | Add ->
        fun t ->
          account t cw;
          t.pc <- t.pc + 1;
          fin t (Int64.add (A1.unsafe_get t.regs a) vb)
      | Sub ->
        fun t ->
          account t cw;
          t.pc <- t.pc + 1;
          fin t (Int64.sub (A1.unsafe_get t.regs a) vb)
      | Mul ->
        fun t ->
          account t cw;
          t.pc <- t.pc + 1;
          fin t (Int64.mul (A1.unsafe_get t.regs a) vb)
      | And ->
        fun t ->
          account t cw;
          t.pc <- t.pc + 1;
          fin t (Int64.logand (A1.unsafe_get t.regs a) vb)
      | Or ->
        fun t ->
          account t cw;
          t.pc <- t.pc + 1;
          fin t (Int64.logor (A1.unsafe_get t.regs a) vb)
      | Xor ->
        fun t ->
          account t cw;
          t.pc <- t.pc + 1;
          fin t (Int64.logxor (A1.unsafe_get t.regs a) vb)
      | Shl ->
        let sh = Int64.to_int (Int64.logand vb 63L) in
        fun t ->
          account t cw;
          t.pc <- t.pc + 1;
          fin t (Int64.shift_left (A1.unsafe_get t.regs a) sh)
      | Lshr ->
        let sh = Int64.to_int (Int64.logand vb 63L) in
        fun t ->
          account t cw;
          t.pc <- t.pc + 1;
          fin t (Int64.shift_right_logical (A1.unsafe_get t.regs a) sh)
      | Ashr ->
        let sh = Int64.to_int (Int64.logand vb 63L) in
        fun t ->
          account t cw;
          t.pc <- t.pc + 1;
          fin t (Int64.shift_right (A1.unsafe_get t.regs a) sh)
      | Div ->
        fun t ->
          account t 1;
          t.pc <- t.pc + 1;
          let va = A1.unsafe_get t.regs a in
          if vb = 0L then raise (Halt_trap Div_by_zero)
          else if va = Int64.min_int && vb = -1L then fin_div t Int64.min_int
          else fin_div t (Int64.div va vb)
      | Rem ->
        fun t ->
          account t 1;
          t.pc <- t.pc + 1;
          let va = A1.unsafe_get t.regs a in
          if vb = 0L then raise (Halt_trap Div_by_zero)
          else if va = Int64.min_int && vb = -1L then fin_div t 0L
          else fin_div t (Int64.rem va vb))
    | M.Reg rb -> (
      match (op : Refine_ir.Ir.ibinop) with
      | Add ->
        fun t ->
          account t cw;
          t.pc <- t.pc + 1;
          fin t (Int64.add (A1.unsafe_get t.regs a) (A1.unsafe_get t.regs rb))
      | Sub ->
        fun t ->
          account t cw;
          t.pc <- t.pc + 1;
          fin t (Int64.sub (A1.unsafe_get t.regs a) (A1.unsafe_get t.regs rb))
      | Mul ->
        fun t ->
          account t cw;
          t.pc <- t.pc + 1;
          fin t (Int64.mul (A1.unsafe_get t.regs a) (A1.unsafe_get t.regs rb))
      | And ->
        fun t ->
          account t cw;
          t.pc <- t.pc + 1;
          fin t (Int64.logand (A1.unsafe_get t.regs a) (A1.unsafe_get t.regs rb))
      | Or ->
        fun t ->
          account t cw;
          t.pc <- t.pc + 1;
          fin t (Int64.logor (A1.unsafe_get t.regs a) (A1.unsafe_get t.regs rb))
      | Xor ->
        fun t ->
          account t cw;
          t.pc <- t.pc + 1;
          fin t (Int64.logxor (A1.unsafe_get t.regs a) (A1.unsafe_get t.regs rb))
      | Shl ->
        fun t ->
          account t cw;
          t.pc <- t.pc + 1;
          fin t
            (Int64.shift_left (A1.unsafe_get t.regs a)
               (Int64.to_int (Int64.logand (A1.unsafe_get t.regs rb) 63L)))
      | Lshr ->
        fun t ->
          account t cw;
          t.pc <- t.pc + 1;
          fin t
            (Int64.shift_right_logical (A1.unsafe_get t.regs a)
               (Int64.to_int (Int64.logand (A1.unsafe_get t.regs rb) 63L)))
      | Ashr ->
        fun t ->
          account t cw;
          t.pc <- t.pc + 1;
          fin t
            (Int64.shift_right (A1.unsafe_get t.regs a)
               (Int64.to_int (Int64.logand (A1.unsafe_get t.regs rb) 63L)))
      | Div ->
        fun t ->
          account t 1;
          t.pc <- t.pc + 1;
          let va = A1.unsafe_get t.regs a and vb = A1.unsafe_get t.regs rb in
          if vb = 0L then raise (Halt_trap Div_by_zero)
          else if va = Int64.min_int && vb = -1L then fin_div t Int64.min_int
          else fin_div t (Int64.div va vb)
      | Rem ->
        fun t ->
          account t 1;
          t.pc <- t.pc + 1;
          let va = A1.unsafe_get t.regs a and vb = A1.unsafe_get t.regs rb in
          if vb = 0L then raise (Halt_trap Div_by_zero)
          else if va = Int64.min_int && vb = -1L then fin_div t 0L
          else fin_div t (Int64.rem va vb)))
  | M.Mfbin (op, d, a, b) when okr d && okr a && okr b ->
    let[@inline always] fin (t : t) r =
      A1.unsafe_set t.regs d (b64 r);
      rc t
    in
    (match (op : Refine_ir.Ir.fbinop) with
    | Fadd ->
      fun t ->
        account t cw;
        t.pc <- t.pc + 1;
        fin t (f64 (A1.unsafe_get t.regs a) +. f64 (A1.unsafe_get t.regs b))
    | Fsub ->
      fun t ->
        account t cw;
        t.pc <- t.pc + 1;
        fin t (f64 (A1.unsafe_get t.regs a) -. f64 (A1.unsafe_get t.regs b))
    | Fmul ->
      fun t ->
        account t cw;
        t.pc <- t.pc + 1;
        fin t (f64 (A1.unsafe_get t.regs a) *. f64 (A1.unsafe_get t.regs b))
    | Fdiv ->
      fun t ->
        account t cw;
        t.pc <- t.pc + 1;
        fin t (f64 (A1.unsafe_get t.regs a) /. f64 (A1.unsafe_get t.regs b)))
  | M.Mfun (op, d, a) when okr d && okr a -> (
    match (op : Refine_ir.Ir.funop) with
    | Fneg ->
      fun t ->
        account t cw;
        t.pc <- t.pc + 1;
        A1.unsafe_set t.regs d (b64 (-.f64 (A1.unsafe_get t.regs a)));
        rc t
    | Fsqrt ->
      fun t ->
        account t cw;
        t.pc <- t.pc + 1;
        A1.unsafe_set t.regs d (b64 (sqrt (f64 (A1.unsafe_get t.regs a))));
        rc t
    | Fabs ->
      fun t ->
        account t cw;
        t.pc <- t.pc + 1;
        A1.unsafe_set t.regs d (b64 (Float.abs (f64 (A1.unsafe_get t.regs a))));
        rc t)
  | M.Mcvt (Sitofp, d, a) when okr d && okr a ->
    fun t ->
      account t cw;
      t.pc <- t.pc + 1;
      A1.unsafe_set t.regs d (b64 (Int64.to_float (A1.unsafe_get t.regs a)));
      rc t
  | M.Mcvt (Fptosi, d, a) when okr d && okr a ->
    fun t ->
      account t cw;
      t.pc <- t.pc + 1;
      A1.unsafe_set t.regs d (Refine_ir.Interp.fptosi (f64 (A1.unsafe_get t.regs a)));
      rc t
  | M.Mcmp (a, M.Imm vb) when okr a ->
    fun t ->
      account t cw;
      t.pc <- t.pc + 1;
      let fl = flags_of (A1.unsafe_get t.regs a) vb in
      A1.unsafe_set t.regs R.flags (Int64.of_int fl);
      rc t
  | M.Mcmp (a, M.Reg rb) when okr a && okr rb ->
    fun t ->
      account t cw;
      t.pc <- t.pc + 1;
      let fl = flags_of (A1.unsafe_get t.regs a) (A1.unsafe_get t.regs rb) in
      A1.unsafe_set t.regs R.flags (Int64.of_int fl);
      rc t
  | M.Mfcmp (a, b) when okr a && okr b ->
    fun t ->
      account t cw;
      t.pc <- t.pc + 1;
      let va = f64 (A1.unsafe_get t.regs a) and vb = f64 (A1.unsafe_get t.regs b) in
      let fl =
        if Float.is_nan va || Float.is_nan vb then 4
        else (if va = vb then 1 else 0) lor if va < vb then 2 else 0
      in
      A1.unsafe_set t.regs R.flags (Int64.of_int fl);
      rc t
  | M.Msetcc (cc, d) when okr d ->
    let test = cc_fn cc in
    fun t ->
      account t cw;
      t.pc <- t.pc + 1;
      A1.unsafe_set t.regs d
        (if test (Int64.to_int (A1.unsafe_get t.regs R.flags)) then 1L else 0L);
      rc t
  | M.Mjcc (cc, target) -> (
    match int_cc cc with
    | Some (mask, want) ->
      fun t ->
        account t cw;
        t.pc <- t.pc + 1;
        let fl = Int64.to_int (A1.unsafe_get t.regs R.flags) in
        if (fl land mask <> 0) = want then t.pc <- target;
        rc t
    | None ->
      let test = cc_fn cc in
      fun t ->
        account t cw;
        t.pc <- t.pc + 1;
        if test (Int64.to_int (A1.unsafe_get t.regs R.flags)) then t.pc <- target;
        rc t)
  | M.Mjmp target ->
    fun t ->
      account t cw;
      t.pc <- target;
      rc t
  | M.Mpush r when okr r ->
    fun t ->
      account t 1;
      t.pc <- t.pc + 1;
      push t (A1.unsafe_get t.regs r);
      t.cost <- t.cost + rest;
      rc t
  | M.Mpop r when okr r ->
    fun t ->
      account t 1;
      t.pc <- t.pc + 1;
      A1.unsafe_set t.regs r (pop t);
      t.cost <- t.cost + rest;
      rc t
  | M.Mpushf ->
    fun t ->
      account t 1;
      t.pc <- t.pc + 1;
      push t t.regs.{R.flags};
      t.cost <- t.cost + rest;
      rc t
  | M.Mpopf ->
    fun t ->
      account t 1;
      t.pc <- t.pc + 1;
      t.regs.{R.flags} <- pop t;
      t.cost <- t.cost + rest;
      rc t
  | M.Mcalli target ->
    (* the return address is a decode-time constant: no box per call, and
       the one closure a decode does not share *)
    let ra = Int64.of_int (pc0 + 1) in
    fun t ->
      account t 1;
      t.pc <- t.pc + 1;
      push t ra;
      cs_push t (Int64.to_int (A1.unsafe_get t.regs R.rsp)) ra;
      t.pc <- target;
      t.cost <- t.cost + rest;
      rc t
  | M.Mcall name ->
    let tr = Halt_trap (Extern_fault ("unresolved call " ^ name)) in
    fun t ->
      account t 1;
      t.pc <- t.pc + 1;
      raise tr
  | M.Mcallext _ ->
    (* extern slot resolved at decode time (the §14 fast path, one step
       earlier); every call of the same callee has this slot *)
    let slot = ext_slot image pc0 in
    fun t ->
      account t 1;
      t.pc <- t.pc + 1;
      t.priv.handlers.(slot) t;
      top_up t rest;
      rc t
  | M.Mret ->
    fun t ->
      account t 1;
      t.pc <- t.pc + 1;
      let ra = pop t in
      cs_pop t;
      if ra = sentinel then t.status <- Exited (Int64.to_int t.regs.{R.ret_gpr})
      else begin
        let target = Int64.to_int ra in
        if target < 0 || target >= code_len then raise (Halt_trap (Bad_pc target))
        else t.pc <- target
      end;
      top_up t rest;
      rc t
  | M.Mxorbit (d, s) when okr d && okr s ->
    let sp = d = R.rsp || d = R.rbp in
    fun t ->
      account t cw;
      t.pc <- t.pc + 1;
      if sp then t.priv.sp_struck <- true;
      (if t.fi_mask <> 0L then begin
         A1.unsafe_set t.regs d (Int64.logxor (A1.unsafe_get t.regs d) t.fi_mask);
         t.fi_mask <- 0L
       end
       else
         A1.unsafe_set t.regs d
           (Int64.logxor (A1.unsafe_get t.regs d)
              (Int64.shift_left 1L
                 (Int64.to_int (Int64.logand (A1.unsafe_get t.regs s) 63L)))));
      rc t
  | M.Mxorbitmem (b, off, s) when okr b && okr s ->
    fun t ->
      account t 1;
      t.pc <- t.pc + 1;
      let addr = Int64.to_int (A1.unsafe_get t.regs b) + off in
      let v = load64 t addr in
      let mask =
        if t.fi_mask <> 0L then begin
          let m = t.fi_mask in
          t.fi_mask <- 0L;
          m
        end
        else Int64.shift_left 1L (Int64.to_int (Int64.logand (A1.unsafe_get t.regs s) 63L))
      in
      store64 t addr (Int64.logxor v mask);
      t.cost <- t.cost + rest;
      rc t
  | M.Mhalt ->
    (* the run ends here, so a weighted halt never pays its weight *)
    fun t ->
      account t 1;
      t.pc <- t.pc + 1;
      t.status <- Exited (Int64.to_int t.regs.{R.ret_gpr});
      rc t
  | _ -> via_legacy

(* The decode of every slot of a REFINE splice (DESIGN.md §19): the
   reference semantics on the instruction at the pc, then the poll-slot
   check.  Inside the skip window the fi-splice superinstruction retires a
   whole non-firing splice, so its slots run singly only on a sample's
   first and firing selector visits, where the splice's guard declines at
   a poll slot or budget edge, and on the fire path, at most once per
   sample; all of them share this one closure instead of holding a
   closure specialized per slot. *)
let interp : dop =
 fun t ->
  let pc = t.pc in
  exec_instr t pc (Array.unsafe_get t.image.L.code pc);
  rc t

(* Hand-fused REFINE FI splice (DESIGN.md §20): the instrumentation the
   pass wraps around every candidate, as [Fimap.splices] parses it —

     Mpush r0; [Mpushf]; Mcallext "fi_sel_instr";
     Mcmp (r0, 0); Mjcc (CEq, post); ...; post: [Mpopf]; Mpop r0

   where r0 is [ret_gpr] — dispatched as one closure with one batched
   path: inside the selector's skip window ([fi_skip > 0], published
   by the FI control library: the call provably cannot fire) the whole
   non-firing splice retires without entering the library, provided no
   poll slot, budget edge or stack trap falls inside it.  Its observable
   effects are the PreFI stack stores, FLAGS = cmp 0,0 for the flag-less
   variant (the pf variant restores the saved FLAGS: net unchanged), the
   retired step/cost/profile counters, and the skipped call banked in
   [fi_pending] (folded back by [Runtime.absorb] or the next real
   selector call); rsp and r0 end where they started.  Anywhere else the
   splice goes on constituent-exact, every one of its slots interpreted
   ([interp]) through the dispatch loop. *)
let fuse_splice (image : L.image) (spl : Refine_backend.Fimap.splice) : dop =
  let pc0 = spl.Refine_backend.Fimap.sp_start and pf = spl.sp_flags and sp_end = spl.sp_end in
  let npush = if pf then 2 else 1 in
  let a = pc0 + npush in
  let slot = ext_slot image a in
  let len = npush + 3 + npush in
  let floor = Mem.mem_size - Mem.stack_limit in
  fun t ->
    let s = t.steps and q = t.priv in
    let sp = Int64.to_int (A1.unsafe_get t.regs R.rsp) in
    let hcost = Array.unsafe_get q.handler_cost slot in
    if
      t.fi_skip > 0
      && s land 1023 <= 1023 - len
      && q.d_max_steps - s >= len
      && q.d_max_cost - t.cost >= len + hcost
      && sp - (8 * npush) >= floor
      && sp - (8 * npush) >= Mem.null_guard
      && sp <= Mem.mem_size
    then begin
      store64 t (sp - 8) (A1.unsafe_get t.regs R.ret_gpr);
      if pf then store64 t (sp - 16) (A1.unsafe_get t.regs R.flags)
      else A1.unsafe_set t.regs R.flags 1L;
      t.steps <- s + len;
      t.cost <- t.cost + len + hcost;
      (match t.prof with
      | None -> ()
      | Some p ->
        let im = t.image in
        count_class p im pc0;
        if pf then count_class p im (pc0 + 1);
        count_class p im a;
        count_class p im (a + 1);
        count_class p im (a + 2);
        if pf then count_class p im (sp_end - 1);
        count_class p im sp_end;
        p.ext_calls <- p.ext_calls + 1;
        p.ext_cost <- p.ext_cost + hcost);
      t.fi_skip <- t.fi_skip - 1;
      t.fi_pending <- t.fi_pending + 1;
      t.pc <- sp_end + 1
    end
    else interp t

(* Hand-fused LLFI call group (DESIGN.md §20): the marshaling and result
   move isel emits around every [llfi_inject_*] call the LLFI pass inserts
   (a callee of [Fimap.llfi_calls]) —

     Mmov (r1, #id); Mmov (arg, x); Mcallext name; Mmov (d, ret)

   where [arg]/[ret] are the callee's value argument and result registers.
   Inside the skip window (published by the LLFI control library: the call
   provably does not fire, so it is the identity [ret <- arg]) the group
   retires in one batch without entering the library, provided no poll
   slot or budget edge falls inside it: r1, [arg], [ret] and [d] are
   written in program order, the step/cost/profile counters retire four
   instructions plus the declared library-call cost, and the skipped call
   is banked in [fi_pending].  Anywhere else the head's single decode runs
   and the group goes on constituent-exact through the dispatch loop. *)
let fuse_llfi (image : L.image) (single : dop array) pc0 ~id ~arg (x : M.mopd) ~ret ~d : dop =
  let slot = ext_slot image (pc0 + 2) in
  let r1 = R.gpr 1 in
  let s_head = single.(pc0) in
  fun t ->
    let s = t.steps and q = t.priv in
    let hcost = Array.unsafe_get q.handler_cost slot in
    if
      t.fi_skip > 0
      && s land 1023 <= 1019
      && q.d_max_steps - s >= 4
      && q.d_max_cost - t.cost >= 4 + hcost
    then begin
      A1.unsafe_set t.regs r1 id;
      A1.unsafe_set t.regs arg (match x with M.Imm v -> v | M.Reg r -> A1.unsafe_get t.regs r);
      A1.unsafe_set t.regs ret (A1.unsafe_get t.regs arg);
      A1.unsafe_set t.regs d (A1.unsafe_get t.regs ret);
      t.steps <- s + 4;
      t.cost <- t.cost + 4 + hcost;
      (match t.prof with
      | None -> ()
      | Some p ->
        let im = t.image in
        for k = pc0 to pc0 + 3 do
          count_class p im k
        done;
        p.ext_calls <- p.ext_calls + 1;
        p.ext_cost <- p.ext_cost + hcost);
      t.fi_skip <- t.fi_skip - 1;
      t.fi_pending <- t.fi_pending + 1;
      t.pc <- pc0 + 4
    end
    else s_head t

let idioms = [| "fi-splice"; "llfi-call" |]

(* Decode a whole image: per-pc single decodes, then a fused table where
   the head of each REFINE splice and each LLFI call group holds its
   superinstruction.  The other pcs of a group keep their single decodes,
   so jumps landing inside it dispatch correctly.  A single decode is
   built once per distinct (instruction, weight) and shared by every slot
   holding it, except [Mcalli]'s, and the slots of a REFINE splice are
   interpreted.  Only a plain (unweighted) image has superinstructions: a
   detach target has no splices and carries their cost as slot weights. *)
let decode ?cost_of (image : L.image) : dprogram =
  let code = image.L.code in
  let n = Array.length code in
  (match cost_of with
  | Some c when Array.length c <> n ->
    invalid_arg "Exec.decode: cost_of length does not match the image"
  | _ -> ());
  let cw pc = match cost_of with None -> 1 | Some c -> c.(pc) in
  (* REFINE FI splices, as the detach map reads them *)
  let splices =
    match cost_of with
    | Some _ -> []
    | None -> Option.value ~default:[] (Refine_backend.Fimap.splices image)
  in
  let spliced = Bytes.make n '\000' in
  List.iter
    (fun (spl : Refine_backend.Fimap.splice) ->
      Bytes.fill spliced spl.sp_start (spl.sp_end - spl.sp_start + 1) '\001')
    splices;
  let in_splice pc = Bytes.get spliced pc <> '\000' in
  (* a closure takes its pc from the engine, so one per distinct
     (instruction, weight) serves every slot holding it; [Mcalli] keeps
     its slot's return address *)
  let forms = Hashtbl.create 256 in
  let fused =
    Array.init n (fun pc ->
        if in_splice pc then interp
        else
          match code.(pc) with
          | M.Mcalli _ as i -> decode_one ~cw:(cw pc) image pc i
          | i -> (
            let key = (i, cw pc) in
            match Hashtbl.find_opt forms key with
            | Some f -> f
            | None ->
              let f = decode_one ~cw:(cw pc) image pc i in
              Hashtbl.add forms key f;
              f))
  in
  (* a superinstruction replaces its head's single decode, which [heads]
     keeps for the fusion-free table *)
  let heads = ref [] in
  let super = Array.make (Array.length idioms) 0 in
  let fuse idiom pc f =
    heads := (pc, fused.(pc)) :: !heads;
    fused.(pc) <- f;
    super.(idiom) <- super.(idiom) + 1
  in
  List.iter
    (fun (spl : Refine_backend.Fimap.splice) -> fuse 0 spl.sp_start (fuse_splice image spl))
    splices;
  (match cost_of with
  | Some _ -> ()
  | None ->
    let okr r = r >= 0 && r < R.num_regs in
    for pc = 0 to n - 4 do
      match (code.(pc), code.(pc + 1), code.(pc + 2), code.(pc + 3)) with
      | M.Mmov (r1, M.Imm id), M.Mmov (arg, x), M.Mcallext name, M.Mmov (d, M.Reg ret)
        when r1 = R.gpr 1 && okr d
             && (match x with M.Reg r -> okr r | M.Imm _ -> true)
             && (not (in_splice pc))
             && List.mem (name, arg, ret) Refine_backend.Fimap.llfi_calls ->
        fuse 1 pc (fuse_llfi image fused pc ~id ~arg x ~ret ~d)
      | _ -> ()
    done);
  let heads = List.sort (fun (p, _) (q, _) -> compare p q) !heads in
  {
    d_image = image;
    d_fused = fused;
    d_heads = Array.of_list (List.map fst heads);
    d_head_singles = Array.of_list (List.map snd heads);
    d_super = super;
  }

let superinstr_counts dp = Array.copy dp.d_super

(* The engine's fusion-free table for [dp]: [dp]'s fused table with every
   superinstruction head's own decode put back.  Only a hooked run and an
   Instr_image overlay dispatch it, so the decode keeps just the heads and
   an engine builds the table on first use; it keeps it until its decode
   changes, so a sample allocates no table. *)
let fusion_free (t : t) (dp : dprogram) =
  let p = t.priv in
  if p.ff_src != dp.d_fused then begin
    let table = Array.copy dp.d_fused in
    Array.iteri (fun j pc -> table.(pc) <- dp.d_head_singles.(j)) dp.d_heads;
    p.ff_table <- table;
    p.ff_src <- dp.d_fused;
    p.ov_slot <- -1
  end;
  p.ff_table

(* The dispatch table while an Instr_image overlay is armed: the engine's
   fusion-free table (a superinstruction spanning the overlaid pc would
   execute the pristine encoding) whose overlaid slot holds the mutated
   instruction's decode, or — when the mutated encoding no longer decodes
   — a closure that traps [Illegal_instr] exactly as [step] does (it
   raises, so a hooked loop does not call the hook after it).  [reset], or
   the next overlay, puts the slot's own decode back. *)
let overlay_table (t : t) (dp : dprogram) =
  let table = fusion_free t dp in
  clear_overlay_slot t;
  let p = t.priv and pc = t.overlay_pc in
  p.ov_saved <- table.(pc);
  p.ov_slot <- pc;
  table.(pc) <-
    (match t.overlay_instr with
    | Some i -> decode_one t.image pc i
    | None -> fun t -> illegal_fetch t pc);
  table

(* Install (or uninstall, with [None]) a decoded program on an engine.
   The dprogram must have been built from the engine's own image — decoded
   closures bake that image's extern slots and code bounds and read its
   class table.
   Installing the program already installed is a no-op. *)
let install_decoded (t : t) = function
  | Some dp ->
    if dp.d_image != t.image then
      invalid_arg "Exec.install_decoded: decoded program was built from a different image";
    if not (match t.dprog with Some cur -> cur == dp | None -> false) then begin
      t.dprog <- Some dp;
      t.priv.d_active <- (if t.overlay_pc >= 0 then overlay_table t dp else dp.d_fused)
    end
  | None ->
    t.dprog <- None;
    t.priv.d_active <- [||]

let decoded t = match t.dprog with Some _ -> true | None -> false
let dispatch_table t = t.priv.d_active

(* Byte-granular memory fault (Mem_cell model): XOR one bit of one data
   byte.  Out-of-range addresses are a harness defect (callers draw the
   cell from the initialized image), so they raise [Invalid_argument]
   rather than a machine trap. *)
let flip_mem_bit (t : t) ~addr ~bit =
  if addr < Mem.null_guard || addr >= Mem.mem_size then
    invalid_arg (Printf.sprintf "Exec.flip_mem_bit: address 0x%x outside data memory" addr);
  if bit < 0 || bit > 7 then
    invalid_arg (Printf.sprintf "Exec.flip_mem_bit: bit %d out of [0,7]" bit);
  let b = Char.code (A1.get t.mem addr) in
  A1.set t.mem addr (Char.chr (b lxor (1 lsl bit)));
  Bytes.unsafe_set t.priv.dirty (addr lsr page_bits) '\001'

(* Install the Instr_image corruption overlay: the engine-local view of one
   mutated code slot ([None] = the mutated encoding is illegal).  The
   shared [image.code] is never written; [reset] clears the overlay. *)
let set_overlay (t : t) ~pc instr =
  if pc < 0 || pc >= Array.length t.image.L.code then
    invalid_arg (Printf.sprintf "Exec.set_overlay: pc %d outside the code image" pc);
  t.overlay_pc <- pc;
  t.overlay_instr <- instr;
  match t.dprog with None -> () | Some dp -> t.priv.d_active <- overlay_table t dp
