(* Architectural simulator for SX64 images.

   This is the substitute for the paper's physical Xeon nodes: it executes
   the machine code produced by the backend against an architectural state
   (register file, FLAGS, byte-addressable memory, downward stack) and
   reports the observable outcome — output, exit code, or a trap.  Faults
   injected into this state propagate, mask, or crash the run exactly as
   the paper's fault model intends.

   Integer/float operation semantics are shared with the IR reference
   interpreter ([Refine_ir.Interp]) so the two cannot drift; the semantic
   property tests compare them on random programs.

   Cost model (DESIGN.md §6): 1 unit per instruction, [ext_call_cost] units
   per runtime-library call, plus the attached dynamic-instrumentation
   hook's (PINFI's) [hook_cost] per instruction — charged, before the
   instruction runs, by [step] and by the decoded loop's hooked path, never
   by [exec_instr] or a decoded closure.

   Fast path (DESIGN.md §14): the per-instruction accounting allocates
   nothing when profiling is off — step/cost counters are plain [int]
   fields (63 bits is ample for any modeled budget), condition codes are
   evaluated with int bit tests, and extern calls dispatch through a
   per-engine handler array resolved once from the image's
   [ext_slot_of_pc] table instead of hashing the extern name per call.

   Off-heap machine state (DESIGN.md §14): the register file is an int64
   Bigarray, so a computed register value is stored raw instead of boxed,
   and the helpers a value passes through ([opd], [load64], [store64],
   [push], [pop] and the decoded result writers) are inlined so nothing
   boxes it on the way.  The arena is a private mapping of /dev/zero: zero
   by construction, committed by the kernel page by page as the machine
   writes, and unmapped when its engine is collected.

   Touched-page memory (DESIGN.md §14): a [snapshot] holds only the
   initialized globals region; every engine owns one [Mem.mem_size] arena
   plus a private map with one flag per 4 KiB page, set by every write to
   the arena.  [reset] zeroes the flagged pages and reloads the snapshot,
   optionally a different one, so a fault-injection campaign reuses one
   arena per worker domain across samples and cells; the detach handoff
   switches the running engine's code in place and moves no memory. *)

module M = Refine_mir.Minstr
module R = Refine_mir.Reg
module L = Refine_backend.Layout
module Mem = Refine_ir.Memlayout
module A1 = Bigarray.Array1

type regfile = (int64, Bigarray.int64_elt, Bigarray.c_layout) A1.t
type arena = Mem.arena

let ext_call_cost = 25

type trap =
  | Mem_fault of int
  | Div_by_zero
  | Bad_pc of int
  | Stack_overflow
  | Out_of_memory
  | Extern_fault of string
  | Output_quota of int
  | Heap_quota of int
  | Wall_clock of float
  | Livelock
  | Illegal_instr of int

let string_of_trap = function
  | Mem_fault a -> Printf.sprintf "memory fault at 0x%x" a
  | Div_by_zero -> "integer division by zero"
  | Bad_pc a -> Printf.sprintf "illegal instruction address %d" a
  | Stack_overflow -> "stack overflow"
  | Out_of_memory -> "out of heap memory"
  | Extern_fault m -> "extern fault: " ^ m
  | Output_quota q -> Printf.sprintf "output quota exceeded (%d bytes)" q
  | Heap_quota q -> Printf.sprintf "heap quota exceeded (%d bytes)" q
  | Wall_clock s -> Printf.sprintf "wall-clock deadline exceeded (%.3fs)" s
  | Livelock -> "livelock: architectural state repeated"
  | Illegal_instr a -> Printf.sprintf "illegal instruction encoding at pc %d" a

type status = Running | Exited of int | Trapped of trap | Timed_out

exception Halt_trap of trap

(* Executor profile: per-opcode-class step counts plus extern-call tallies,
   accumulated into plain unboxed int cells so the per-instruction cost is
   one [None] match when profiling is off and two int array ops when on;
   the owner (Tool) flushes it into the metrics registry after the run. *)
type profile = {
  class_steps : int array; (* Minstr.num_iclasses slots, Minstr.iclass_index order *)
  mutable ext_calls : int;
  mutable ext_cost : int;
}

(* The initialized globals region [globals_base, heap_base) of one image;
   the rest of a pristine arena is zero apart from the stack-top
   sentinel, which [load] writes itself. *)
type snapshot = { s_image : L.image; s_globals : arena }

type t = {
  mutable image : L.image; (* rebound by [reset] and by the detach handoff *)
  regs : regfile; (* R.num_regs entries; raw bits for GPR/FPR/FLAGS *)
  mem : arena; (* the arena; only this module writes it, flagging each touched page *)
  mutable pc : int;
  mutable steps : int; (* unboxed hot counters: int, not int64 (§14) *)
  mutable cost : int;
  mutable status : status;
  mutable heap : int;
  env : Refine_ir.Externs.env;
  ext_extra : (string, int * (t -> unit)) Hashtbl.t;
      (* FI runtime library: name -> (modeled cost, handler) *)
  mutable post_hook : hook option;
      (* PINFI-style DBI; charged and called by [step] and the decoded
         loop's hooked path only *)
  mutable prof : profile option; (* executor profiling; None = zero-cost path *)
  mutable heap_quota : int; (* max heap bytes above heap_base; max_int = off *)
  mutable handlers : (t -> unit) array;
      (* pre-resolved extern dispatch, indexed by image.ext_slot_of_pc *)
  mutable builtins : (t -> unit) option array;
      (* memoized libc/libm handlers per ext slot, reused across resets *)
  mutable fi_mask : int64;
      (* pending multi-bit FI mask: when nonzero, the next Mxorbit /
         Mxorbitmem applies this XOR mask instead of its single-bit flip,
         then clears it (set by the REFINE control library, DESIGN.md §18) *)
  mutable overlay_pc : int;
      (* Instr_image corruption overlay: the engine-local view of one
         mutated code slot.  -1 = none.  The shared [image.code] array is
         never written, so snapshots, the prepared-tier cache fingerprint
         and sibling engines stay pristine; [reset] clears the overlay. *)
  mutable overlay_instr : M.t option;
      (* the mutated instruction at [overlay_pc]; None = the corrupted
         encoding no longer decodes (executing it traps [Illegal_instr]) *)
  mutable dprog : dprogram option;
      (* pre-decoded program installed on this engine (DESIGN.md §19);
         None = [run] drives the [step] loop *)
  mutable d_active : (t -> unit) array;
      (* the dispatch table the decoded loop reads: [dprog.d_fused]
         normally; while an Instr_image overlay is armed, the engine's
         fusion-free table ([priv.ff_table]) whose overlaid slot runs the
         mutated instruction (a superinstruction head must never replay a
         stale slot) *)
  mutable d_check : unit -> unit;
      (* the current run's 1024-step poll-slot check, called by decoded
         closures after every retired constituent *)
  mutable d_max_steps : int; (* current run's budgets, re-tested between *)
  mutable d_max_cost : int; (*  fused constituents exactly like the legacy
                                while-condition *)
  mutable detach_req : bool;
      (* set by the FI control library when the single injection has
         retired; [run] switches onto the detach plan's target at
         the next poll slot (DESIGN.md §20) *)
  mutable sp_struck : bool;
      (* an FI flip ([Mxorbit]) struck rsp or rbp: the run may go on to
         pop stack slots outside the live frames a map-mode handoff
         validates, so such a handoff declines *)
  mutable handler_cost : int array;
      (* declared modeled cost per extern slot, parallel to [handlers]
         (rebuilt together) — lets the fi-splice fast path charge a
         skipped selector call exactly *)
  mutable fi_skip : int;
      (* the FI skip window (DESIGN.md §20): how many upcoming FI library
         visits are provably non-firing — REFINE selector calls, LLFI
         injectFault calls, or hook calls at a declared pc.  Published by
         the control library after every real visit (and by a hook at
         attach); consumed one per visit by the fused fi-splice and
         llfi-call closures and by the hooked loop, which retire the visit
         without entering the library.  0 (the default) = every visit
         goes to the library. *)
  mutable fi_pending : int;
      (* visits retired inside the window since the library last ran;
         the library folds them into its own dynamic counter on the next
         real visit, and [Runtime.absorb] folds the remainder after the
         run — so counts and fault records never see a stale total *)
  mutable cs_slots : int array;
      (* shadow call stack: per live [Mcalli] frame, the stack slot that
         holds the pushed return address... *)
  mutable cs_vals : int64 array; (* ...and the value pushed into it *)
  mutable cs_len : int;
  priv : priv;
}

(* Engine-private bookkeeping, opaque outside this module. *)
and priv = {
  dirty : Bytes.t;
      (* one flag per page of [mem]: a clear flag means the page is all
         zero.  Set by every write to [mem]; cleared by [reset], which
         zeroes exactly the flagged pages. *)
  mutable snap : snapshot; (* what a plain [reset] restores *)
  mutable ff_table : (t -> unit) array;
      (* this engine's fusion-free table for the decode whose fused table
         is [ff_src]: what a hooked run dispatches, and, with an
         Instr_image overlay's decode in slot [ov_slot], what an overlaid
         run dispatches.  Built on first use, rebuilt only when the
         engine's decode changes *)
  mutable ff_src : (t -> unit) array;
  mutable ov_slot : int; (* the slot an armed overlay wrote; -1 = none *)
  mutable ov_saved : t -> unit; (* the fusion-free decode it replaced *)
}

(* A DBI hook, the modeled cost it adds to every instruction while
   attached and the pcs it observes: one value, so attaching or detaching
   moves all three. *)
and hook = {
  on_instr : t -> int -> M.t -> unit;
      (* after each retired instruction at a declared pc: pre-execution pc,
         instruction *)
  hook_cost : int;
  hook_pcs : bool array; (* one flag per code slot: [on_instr] runs where it is set *)
}

(* A decoded program: the per-pc dispatch table plus static decode facts.
   Closures capture no engine and run as the slot at the engine's pc, so
   one closure serves every slot holding its instruction and one
   dprogram is shared read-only by every engine of the same image, across
   domains. *)
and dprogram = {
  d_image : L.image; (* the image this decode was built from *)
  d_fused : (t -> unit) array; (* dispatch table with superinstruction heads *)
  d_heads : int array; (* the superinstruction heads' pcs, ascending... *)
  d_head_singles : (t -> unit) array;
      (* ...and their fusion-free decodes: with [d_fused], the fusion-free
         table, which only hooked and overlaid runs dispatch, so each
         engine that needs it builds its own ([fusion_free]) *)
  d_super : int array; (* fused sites per idiom, indexed like [idioms] *)
}

let no_check () = ()

type result = {
  status : status;
  output : string;
  steps : int64;
  cost : int64;
  truncated : bool; (* output was cut at the quota; never a golden match *)
  detached : bool; (* the run switched onto its detach plan's target *)
  drain_steps : int; (* attached steps executed to reach a mapped handoff pc *)
}

(* --- post-injection detach (DESIGN.md §20) ----------------------------- *)

(* instrumented pc -> golden pc, one piece per run of mapped or dropped
   pcs, looked up by binary search ([Fimap.rank] / [Fimap.next]) *)
type handoff_map = Refine_backend.Fimap.handoff = { h_pcs : int array; h_ranks : int array }

type detach_plan = {
  plan_prog : dprogram;
      (* the target's weighted decode; its image shares the engine's
         extern table and heap base, so the handoff installs it in place *)
  plan_map : handoff_map; (* pc and return-address translation *)
}

exception Detach_signal
(* raised by the poll-slot check when [detach_req] is set and a plan is
   armed; [run] catches it, attempts the handoff, and continues on
   whichever code the attempt leaves installed *)

(* sentinel return address that terminates the program when popped *)
let sentinel = -1L

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

(* [addr > mem_size - 8] rather than [addr + 8 > mem_size]: the latter
   wraps for addresses within 8 of max_int (reachable when a fault writes
   a huge value into a base register) and would let the access outside
   the arena, which the unchecked accessors below never bounds-check. *)
let[@inline always] check_addr addr =
  if addr < Mem.null_guard || addr > Mem.mem_size - 8 then raise (Halt_trap (Mem_fault addr))

(* 4 KiB pages: the granularity of the touched-page map *)
let page_bits = 12
let page_size = 1 lsl page_bits
let num_pages = Mem.mem_size / page_size

(* flag the page(s) an 8-byte write at [addr] lands on; two unconditional
   byte stores are cheaper than testing whether the write straddles *)
let[@inline always] touch8 (t : t) addr =
  Bytes.unsafe_set t.priv.dirty (addr lsr page_bits) '\001';
  Bytes.unsafe_set t.priv.dirty ((addr + 7) lsr page_bits) '\001'

(* unaligned 64-bit native-endian access without a bounds check; every
   caller has validated the range first *)
external unsafe_get64 : arena -> int -> int64 = "%caml_bigstring_get64u"
external unsafe_set64 : arena -> int -> int64 -> unit = "%caml_bigstring_set64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

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

(* --- extern calls ------------------------------------------------------ *)

let f64 = Int64.float_of_bits
let b64 = Int64.bits_of_float

let count_ext t cost =
  match t.prof with
  | None -> ()
  | Some p ->
    p.ext_calls <- p.ext_calls + 1;
    p.ext_cost <- p.ext_cost + cost

(* Build the memoized handler for a libc/libm extern: the signature is
   parsed and the argument registers assigned ONCE, so a call only copies
   registers into a reused buffer and dispatches.  [None] for names the
   runtime library does not know (resolved to a trap-on-invoke handler, so
   an unknown extern on a dead path still costs nothing). *)
let builtin_handler name : (t -> unit) option =
  match Refine_ir.Externs.signature name with
  | None -> None
  | Some (tys, ret) ->
    let exception Exhausted in
    (try
       let gp = ref R.arg_gprs and fp = ref R.arg_fprs in
       let arg_regs =
         List.map
           (fun ty ->
             let cell = match ty with Refine_ir.Ir.I64 -> gp | Refine_ir.Ir.F64 -> fp in
             match !cell with
             | r :: rest ->
               cell := rest;
               r
             | [] -> raise Exhausted)
           tys
       in
       let arg_regs = Array.of_list arg_regs in
       let args = Array.make (Array.length arg_regs) 0L in
       Some
         (fun t ->
           t.cost <- t.cost + ext_call_cost;
           count_ext t ext_call_cost;
           for i = 0 to Array.length arg_regs - 1 do
             args.(i) <- t.regs.{arg_regs.(i)}
           done;
           let r =
             try Refine_ir.Externs.call t.env name args
             with Refine_ir.Externs.Extern_trap m -> raise (Halt_trap (Extern_fault m))
           in
           match t.env.exited with
           | Some code -> t.status <- Exited code
           | None -> (
             match ret with
             | Some Refine_ir.Ir.I64 -> t.regs.{R.ret_gpr} <- r
             | Some Refine_ir.Ir.F64 -> t.regs.{R.ret_fpr} <- r
             | None -> ()))
     with Exhausted ->
       Some
         (fun t ->
           t.cost <- t.cost + ext_call_cost;
           count_ext t ext_call_cost;
           raise (Halt_trap (Extern_fault (name ^ ": too many arguments")))))

let unknown_extern name : t -> unit =
 fun t ->
  t.cost <- t.cost + ext_call_cost;
  count_ext t ext_call_cost;
  raise (Halt_trap (Extern_fault ("unknown extern " ^ name)))

(* Resolve every extern slot of the image to a concrete handler: the FI
   runtime library ([ext_extra]) takes priority, then the memoized builtin,
   then a trap-on-invoke handler.  Called at engine construction and on
   every [reset] (the FI control state is per-sample); builtins are reused
   across resets, so a rebind never re-parses a signature. *)
let bind_handlers t =
  let names = t.image.L.ext_names in
  (* record each slot's declared modeled cost alongside the closure: the
     fi-splice fast path retires provably non-firing selector calls
     without invoking the handler and must still charge its cost *)
  t.handler_cost <-
    Array.init (Array.length names) (fun k ->
        match Hashtbl.find_opt t.ext_extra names.(k) with
        | Some (cost, _) -> cost
        | None -> ext_call_cost);
  Array.init (Array.length names) (fun k ->
      let name = names.(k) in
      match Hashtbl.find_opt t.ext_extra name with
      | Some (cost, fn) ->
        fun (t : t) ->
          t.cost <- t.cost + cost;
          count_ext t cost;
          fn t
      | None -> (
        match t.builtins.(k) with Some h -> h | None -> unknown_extern name))

(* The extern slot of the [Mcallext] at [pc].  [Layout.build] and
   [Fimap] give every [Mcallext] one and no fault model creates an
   [Mcallext], so a missing slot is a harness defect. *)
let ext_slot (image : L.image) pc =
  let slot = L.ext_slot image pc in
  if slot < 0 then invalid_arg (Printf.sprintf "Exec: Mcallext at pc %d has no extern slot" pc);
  slot

(* --- engine construction ------------------------------------------------ *)

(* The initialized globals region of [image], [globals_base, heap_base):
   each global's initializer at its layout address, zeros elsewhere. *)
let snapshot (image : L.image) : snapshot =
  let g = A1.create Bigarray.char Bigarray.c_layout (image.L.heap_base - Mem.globals_base) in
  A1.fill g '\000';
  List.iter
    (fun (gl : Refine_ir.Ir.global) ->
      match gl.gbytes with
      | Some s ->
        let base = image.L.global_addr gl.gname - Mem.globals_base in
        String.iteri (fun k c -> A1.set g (base + k) c) s
      | None -> ())
    image.L.globals;
  { s_image = image; s_globals = g }

(* Bring the arena to [s]'s post-loader image: zero every flagged page,
   then write the globals and the sentinel return address at the top of
   the stack, as if the loader had called main.  Pages the previous
   sample (or the previous snapshot's globals) touched are exactly the
   flagged ones, so nothing else can differ from zero. *)
let load (t : t) (s : snapshot) =
  let d = t.priv.dirty in
  for p = 0 to num_pages - 1 do
    if Bytes.unsafe_get d p <> '\000' then begin
      A1.fill (A1.sub t.mem (p lsl page_bits) page_size) '\000';
      Bytes.unsafe_set d p '\000'
    end
  done;
  let n = A1.dim s.s_globals in
  A1.blit s.s_globals (A1.sub t.mem Mem.globals_base n);
  for p = Mem.globals_base lsr page_bits to (Mem.globals_base + n - 1) lsr page_bits do
    Bytes.unsafe_set d p '\001'
  done;
  store64 t (Mem.mem_size - 8) sentinel

let create_from_snapshot ?(ext_extra = []) (s : snapshot) : t =
  let image = s.s_image in
  let self = ref None in
  let mem = Mem.new_arena () in
  let env =
    {
      Refine_ir.Externs.out = Buffer.create 1024;
      read_byte =
        (fun a ->
          if a < Mem.null_guard || a >= Mem.mem_size then
            raise (Refine_ir.Externs.Extern_trap (Printf.sprintf "print_str read at 0x%x" a))
          else A1.get mem a);
      alloc =
        (fun n ->
          match !self with
          | None -> assert false
          | Some t ->
            let addr = t.heap in
            t.heap <- t.heap + Mem.align8 n;
            if t.heap > Mem.mem_size - Mem.stack_limit then
              raise (Refine_ir.Externs.Extern_trap "out of heap memory")
            else if t.heap - t.image.L.heap_base > t.heap_quota then
              (* sandbox quota, tighter than physical memory: Halt_trap skips
                 the Extern_fault wrapper so the trap keeps its own kind *)
              raise (Halt_trap (Heap_quota t.heap_quota))
            else addr);
      exited = None;
    }
  in
  let t =
    {
      image;
      regs = A1.init Bigarray.int64 Bigarray.c_layout R.num_regs (fun _ -> 0L);
      mem;
      pc = image.L.entry;
      steps = 0;
      cost = 0;
      status = Running;
      heap = image.L.heap_base;
      env;
      ext_extra = Hashtbl.create 8;
      post_hook = None;
      prof = None;
      heap_quota = max_int;
      handlers = [||];
      builtins = [||];
      fi_mask = 0L;
      overlay_pc = -1;
      overlay_instr = None;
      dprog = None;
      d_active = [||];
      d_check = no_check;
      d_max_steps = max_int;
      d_max_cost = max_int;
      detach_req = false;
      sp_struck = false;
      handler_cost = [||];
      fi_skip = 0;
      fi_pending = 0;
      cs_slots = Array.make 64 0;
      cs_vals = Array.make 64 0L;
      cs_len = 0;
      priv =
        {
          dirty = Bytes.make num_pages '\000';
          snap = s;
          ff_table = [||];
          ff_src = [||];
          ov_slot = -1;
          ov_saved = ignore;
        };
    }
  in
  self := Some t;
  load t s;
  List.iter (fun (name, cost, fn) -> Hashtbl.replace t.ext_extra name (cost, fn)) ext_extra;
  t.builtins <- Array.map builtin_handler image.L.ext_names;
  t.handlers <- bind_handlers t;
  t.regs.{R.rsp} <- Int64.of_int (Mem.mem_size - 8);
  t

let create ?ext_extra (image : L.image) : t = create_from_snapshot ?ext_extra (snapshot image)

(* Put back the fusion-free decode an Instr_image overlay replaced in the
   engine's table, which is then pristine again. *)
let clear_overlay_slot (t : t) =
  let p = t.priv in
  if p.ov_slot >= 0 then begin
    p.ff_table.(p.ov_slot) <- p.ov_saved;
    p.ov_slot <- -1
  end

(* Restore the pristine post-loader state: zero the touched pages and
   reload the snapshot — the bound one, or [snapshot], which moves the
   engine onto another binary so a campaign worker keeps one arena for
   its lifetime instead of one per cell.  Every mutable piece of the
   machine is re-initialized, so a reset engine is bit-identical to a
   fresh [create_from_snapshot] (the differential property tests assert
   exactly this). *)
let reset ?(ext_extra = []) ?snapshot (t : t) : unit =
  let s = match snapshot with Some s -> s | None -> t.priv.snap in
  if s.s_image != t.image then begin
    (* a property of the image, not of a sample: drop the old image's
       decode; rebind the memoized builtins only for another extern table *)
    if s.s_image.L.ext_names <> t.image.L.ext_names then
      t.builtins <- Array.map builtin_handler s.s_image.L.ext_names;
    t.image <- s.s_image;
    t.dprog <- None
  end;
  t.priv.snap <- s;
  load t s;
  A1.fill t.regs 0L;
  t.regs.{R.rsp} <- Int64.of_int (Mem.mem_size - 8);
  t.pc <- t.image.L.entry;
  t.steps <- 0;
  t.cost <- 0;
  t.status <- Running;
  t.heap <- t.image.L.heap_base;
  Buffer.clear t.env.out;
  t.env.exited <- None;
  t.post_hook <- None;
  t.prof <- None;
  t.heap_quota <- max_int;
  t.fi_mask <- 0L;
  t.overlay_pc <- -1;
  t.overlay_instr <- None;
  (* the overlaid slot goes with the overlay: a reused engine must never
     dispatch a stale corrupted decode or keep running fusion-free *)
  clear_overlay_slot t;
  (match t.dprog with Some dp -> t.d_active <- dp.d_fused | None -> t.d_active <- [||]);
  t.d_check <- no_check;
  t.d_max_steps <- max_int;
  t.d_max_cost <- max_int;
  t.detach_req <- false;
  t.sp_struck <- false;
  t.fi_skip <- 0;
  t.fi_pending <- 0;
  t.cs_len <- 0;
  Hashtbl.reset t.ext_extra;
  List.iter (fun (name, cost, fn) -> Hashtbl.replace t.ext_extra name (cost, fn)) ext_extra;
  t.handlers <- bind_handlers t

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
  let n = t.cs_len in
  (if n >= Array.length t.cs_slots then begin
     let cap = Array.length t.cs_slots in
     let ns = Array.make (2 * cap) 0 and nv = Array.make (2 * cap) 0L in
     Array.blit t.cs_slots 0 ns 0 cap;
     Array.blit t.cs_vals 0 nv 0 cap;
     t.cs_slots <- ns;
     t.cs_vals <- nv
   end);
  Array.unsafe_set t.cs_slots n slot;
  Array.unsafe_set t.cs_vals n v;
  t.cs_len <- n + 1

let[@inline] cs_pop (t : t) = if t.cs_len > 0 then t.cs_len <- t.cs_len - 1

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
    t.handlers.(ext_slot t.image pc0) t
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
    if d = R.rsp || d = R.rbp then t.sp_struck <- true;
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
   opcode — plus superinstructions fusing the hot MinC idioms
   (compare-branch, load-op-store, loop-back-edge).  Exactness invariants
   (asserted by the differential qcheck suite):

   - every constituent of a superinstruction retires its own step / cost /
     profile counts and ends with the legacy loop's 1024-step poll-slot
     test, so FI triggers (the word-compare on the target step), heart-
     beats, livelock fingerprints and quota trips fire at bit-identical
     points;
   - between constituents the fused closure re-tests exactly the legacy
     while-condition (status, max_steps, max_cost) plus the fall-through
     pc, so budget exhaustion, traps and taken branches leave the machine
     in the state the legacy interpreter would;
   - fused idioms contain no extern calls, so nothing a constituent
     executes can install an overlay or a DBI hook mid-fusion (the fused
     fi-splice and llfi-call retire their library call without entering
     the library);
   - a superinstruction whose guard declines runs its constituents'
     single decodes, so there is one exact path per instruction;
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
   every retired constituent *)
let[@inline always] rc (t : t) = if t.steps land 1023 = 0 then t.d_check ()

(* per-constituent accounting, [exec_instr]'s prologue for the slot at
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

(* the legacy while-condition, re-tested between fused constituents *)
let[@inline always] d_live (t : t) =
  (match t.status with Running -> true | _ -> false)
  && t.steps < t.d_max_steps && t.cost < t.d_max_cost

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
      t.handlers.(slot) t;
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
      if sp then t.sp_struck <- true;
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

(* --- superinstruction fusion ------------------------------------------- *)

(* Compose two decoded constituents: [f2] runs only if [f1] fell through
   to [next1] with the legacy while-condition intact.  Exact by
   construction, because every single-instruction decode self-retires and
   self-checks. *)
let compose2 next1 (f1 : dop) (f2 : dop) : dop =
 fun t ->
  f1 t;
  if t.pc = next1 && d_live t then f2 t

(* --- batched retirement --------------------------------------------------

   A superinstruction's constituents are only *observable* individually at
   a 1024-step poll slot, a trap, a budget edge, or a status change: those
   are the only points where anything outside the fused closure reads the
   counters or the architectural state.  The compare-branch idioms contain
   no trapping or status-changing constituent, so when the guard proves no
   poll slot and no budget edge falls inside the group, the per-constituent
   counter writes collapse into one batched update and the intermediate
   FLAGS/pc writes into their final values — bit-identical by construction,
   since no observation point was skipped.  The guard declining (boundary
   or budget edge inside the group) runs the constituents' own single
   decodes, composed with [compose2]. *)

(* Hand-fused integer compare-branch: one closure, flags kept in a local,
   the cc as a decode-time FLAGS bit test.  [cw0]/[cw1] are the slots'
   cost weights (1 on plain images).  Like every superinstruction it
   reads its constituents' classes off the image only while profiling. *)
let fuse_pair2 ~cw0 ~cw1 (single : dop array) pc0 a (b : M.mopd) ~mask ~want ~tgt : dop =
  let c2 = cw0 + cw1 in
  let exact = compose2 (pc0 + 1) single.(pc0) single.(pc0 + 1) in
  let finish (t : t) fl =
    let s = t.steps in
    if s land 1023 <= 1021 && t.d_max_steps - s >= 2 && t.d_max_cost - t.cost >= c2 then begin
      (* batched: no poll slot or budget edge inside the pair *)
      t.steps <- s + 2;
      t.cost <- t.cost + c2;
      (match t.prof with
      | None -> ()
      | Some p ->
        count_class p t.image pc0;
        count_class p t.image (pc0 + 1));
      A1.unsafe_set t.regs R.flags (Int64.of_int fl);
      t.pc <- (if (fl land mask <> 0) = want then tgt else pc0 + 2)
    end
    else exact t
  in
  match b with
  | M.Imm vb -> fun t -> finish t (flags_of (A1.unsafe_get t.regs a) vb)
  | M.Reg rb -> fun t -> finish t (flags_of (A1.unsafe_get t.regs a) (A1.unsafe_get t.regs rb))

(* Hand-fused loop back edge: compare + conditional exit + backward jump,
   the bottom-of-loop shape of every counted MinC loop.  The jump
   constituent retires only on the fall-through path, exactly as the
   legacy interpreter would reach it. *)
let fuse_loop3 ~cw0 ~cw1 ~cw2 (single : dop array) pc0 a (b : M.mopd) ~mask ~want ~tgt ~jt : dop =
  let pc1 = pc0 + 1 and pc2 = pc0 + 2 in
  let c2 = cw0 + cw1 in
  let c3 = c2 + cw2 in
  let exact = compose2 pc1 single.(pc0) (compose2 pc2 single.(pc1) single.(pc2)) in
  let finish (t : t) fl =
    let s = t.steps in
    if s land 1023 <= 1020 && t.d_max_steps - s >= 3 && t.d_max_cost - t.cost >= c3 then begin
      (* batched: no poll slot or budget edge inside the triple *)
      A1.unsafe_set t.regs R.flags (Int64.of_int fl);
      (match t.prof with
      | None -> ()
      | Some p ->
        count_class p t.image pc0;
        count_class p t.image pc1);
      if (fl land mask <> 0) = want then begin
        (* exit taken: only cmp+jcc retire *)
        t.steps <- s + 2;
        t.cost <- t.cost + c2;
        t.pc <- tgt
      end
      else begin
        t.steps <- s + 3;
        t.cost <- t.cost + c3;
        (match t.prof with None -> () | Some p -> count_class p t.image pc2);
        t.pc <- jt
      end
    end
    else exact t
  in
  match b with
  | M.Imm vb -> fun t -> finish t (flags_of (A1.unsafe_get t.regs a) vb)
  | M.Reg rb -> fun t -> finish t (flags_of (A1.unsafe_get t.regs a) (A1.unsafe_get t.regs rb))

(* Hand-fused counted-loop latch: a non-trapping integer op updating the
   latch register, the compare on it, and the conditional back edge, in
   one group.  The branch is the last constituent, so all three always
   retire together and the batched path needs only the boundary/budget
   guard; the op's intermediate FLAGS write is unobservable inside the
   batch (the compare overwrites it), so only the compare's flags are
   stored.  Decode guarantees none of the operands is FLAGS itself. *)
let fuse_latch3 ~cw0 ~cw1 ~cw2 (single : dop array) pc0 (op : Refine_ir.Ir.ibinop) d a
    (b : M.mopd) a2 (b2 : M.mopd) ~mask ~want ~tgt : dop =
  let c3 = cw0 + cw1 + cw2 in
  let exact =
    compose2 (pc0 + 1) single.(pc0) (compose2 (pc0 + 2) single.(pc0 + 1) single.(pc0 + 2))
  in
  fun t ->
    let s = t.steps in
    if s land 1023 <= 1020 && t.d_max_steps - s >= 3 && t.d_max_cost - t.cost >= c3 then begin
      let va = A1.unsafe_get t.regs a in
      let vb = match b with M.Imm v -> v | M.Reg r -> A1.unsafe_get t.regs r in
      let r =
        match op with
        | Add -> Int64.add va vb
        | Sub -> Int64.sub va vb
        | Mul -> Int64.mul va vb
        | And -> Int64.logand va vb
        | Or -> Int64.logor va vb
        | Xor -> Int64.logxor va vb
        | Shl -> Int64.shift_left va (Int64.to_int (Int64.logand vb 63L))
        | Lshr -> Int64.shift_right_logical va (Int64.to_int (Int64.logand vb 63L))
        | Ashr -> Int64.shift_right va (Int64.to_int (Int64.logand vb 63L))
        | Div | Rem -> assert false (* excluded at decode: they can trap *)
      in
      A1.unsafe_set t.regs d r;
      let va2 = A1.unsafe_get t.regs a2 in
      let vb2 = match b2 with M.Imm v -> v | M.Reg rr -> A1.unsafe_get t.regs rr in
      let fl = flags_of va2 vb2 in
      A1.unsafe_set t.regs R.flags (Int64.of_int fl);
      t.steps <- s + 3;
      t.cost <- t.cost + c3;
      (match t.prof with
      | None -> ()
      | Some p ->
        count_class p t.image pc0;
        count_class p t.image (pc0 + 1);
        count_class p t.image (pc0 + 2));
      t.pc <- (if (fl land mask <> 0) = want then tgt else pc0 + 3)
    end
    else exact t

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
    let s = t.steps in
    let sp = Int64.to_int (A1.unsafe_get t.regs R.rsp) in
    let hcost = Array.unsafe_get t.handler_cost slot in
    if
      t.fi_skip > 0
      && s land 1023 <= 1023 - len
      && t.d_max_steps - s >= len
      && t.d_max_cost - t.cost >= len + hcost
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
    let s = t.steps in
    let hcost = Array.unsafe_get t.handler_cost slot in
    if
      t.fi_skip > 0
      && s land 1023 <= 1019
      && t.d_max_steps - s >= 4
      && t.d_max_cost - t.cost >= 4 + hcost
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

let idioms = [| "cmp-branch"; "load-op-store"; "loop-back"; "fi-splice"; "llfi-call" |]

(* Decode a whole image: per-pc single decodes, then a fused table where
   idiom heads are replaced by superinstructions.  Interior pcs of a fused
   region keep their single decodes, so jumps landing mid-idiom dispatch
   correctly.  A single decode is built once per distinct (instruction,
   weight) and shared by every slot holding it, except [Mcalli]'s; the
   slots of a REFINE splice are interpreted, and only its head heads an
   idiom, the fi-splice. *)
let decode ?cost_of (image : L.image) : dprogram =
  let code = image.L.code in
  let n = Array.length code in
  (match cost_of with
  | Some c when Array.length c <> n ->
    invalid_arg "Exec.decode: cost_of length does not match the image"
  | _ -> ());
  let cw pc = match cost_of with None -> 1 | Some c -> c.(pc) in
  (* REFINE FI splices, as the detach map reads them, on plain images
     only: a detach target has none and carries their cost as slot
     weights *)
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
  (* the table holds single decodes until a superinstruction replaces its
     head's, which [heads] keeps; the scan below writes only the slot it is
     at, so the slots from there on still hold the singles a fused group
     composes *)
  let heads = ref [] in
  let super = Array.make (Array.length idioms) 0 in
  let fuse idiom pc f =
    heads := (pc, fused.(pc)) :: !heads;
    fused.(pc) <- f;
    super.(idiom) <- super.(idiom) + 1
  in
  let okr r = r >= 0 && r < R.num_regs in
  let oko = function M.Reg r -> okr r | M.Imm _ -> true in
  for pc = 0 to n - 1 do
    let fused3 =
      pc + 2 < n
      && (not (in_splice pc))
      &&
      match (code.(pc), code.(pc + 1), code.(pc + 2)) with
      | M.Mcmp (a, b), M.Mjcc (cc, tgt), M.Mjmp jt when jt <= pc + 2 && okr a && oko b -> (
        match int_cc cc with
        | Some (mask, want) ->
          fuse 2 pc
            (fuse_loop3 ~cw0:(cw pc) ~cw1:(cw (pc + 1)) ~cw2:(cw (pc + 2)) fused pc a b ~mask
               ~want ~tgt ~jt);
          true
        | None -> false)
      | M.Mload _, M.Mbin _, M.Mstore _ ->
        fuse 1 pc (compose2 (pc + 1) fused.(pc) (compose2 (pc + 2) fused.(pc + 1) fused.(pc + 2)));
        true
      | M.Mbin (op, d, a, b), M.Mcmp (a2, b2), M.Mjcc (cc, tgt)
        when (match op with Div | Rem -> false | _ -> true)
             && okr d && okr a && oko b && okr a2 && oko b2 && d <> R.flags && a <> R.flags
             && a2 <> R.flags
             && (match b with M.Reg r -> r <> R.flags | M.Imm _ -> true)
             && (match b2 with M.Reg r -> r <> R.flags | M.Imm _ -> true) -> (
        match int_cc cc with
        | Some (mask, want) ->
          (* a backward target is a loop latch; forward is a fused
             compare-branch with a leading op *)
          fuse
            (if tgt <= pc + 2 then 2 else 0)
            pc
            (fuse_latch3 ~cw0:(cw pc) ~cw1:(cw (pc + 1)) ~cw2:(cw (pc + 2)) fused pc op d a b a2
               b2 ~mask ~want ~tgt);
          true
        | None -> false)
      | _ -> false
    in
    if (not fused3) && pc + 1 < n && not (in_splice pc) then
      match (code.(pc), code.(pc + 1)) with
      | M.Mcmp (a, b), M.Mjcc (cc, tgt) when okr a && oko b && int_cc cc <> None ->
        let mask, want = match int_cc cc with Some mw -> mw | None -> assert false in
        fuse 0 pc (fuse_pair2 ~cw0:(cw pc) ~cw1:(cw (pc + 1)) fused pc a b ~mask ~want ~tgt)
      | (M.Mcmp _ | M.Mfcmp _), M.Mjcc _ -> fuse 0 pc (compose2 (pc + 1) fused.(pc) fused.(pc + 1))
      | _ -> ()
  done;
  (* REFINE FI splices (a splice head is an [Mpush]) and LLFI call groups
     (headed by [Mmov (r1, #id)]); neither head starts another idiom, so
     each still holds its single decode.  Only on plain (unweighted)
     images: detach targets carry the instrumentation cost as slot
     weights. *)
  List.iter
    (fun (spl : Refine_backend.Fimap.splice) -> fuse 3 spl.sp_start (fuse_splice image spl))
    splices;
  (match cost_of with
  | Some _ -> ()
  | None ->
    for pc = 0 to n - 4 do
      match (code.(pc), code.(pc + 1), code.(pc + 2), code.(pc + 3)) with
      | M.Mmov (r1, M.Imm id), M.Mmov (arg, x), M.Mcallext name, M.Mmov (d, M.Reg ret)
        when r1 = R.gpr 1 && okr d && oko x && (not (in_splice pc))
             && List.mem (name, arg, ret) Refine_backend.Fimap.llfi_calls ->
        fuse 4 pc (fuse_llfi image fused pc ~id ~arg x ~ret ~d)
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
      t.d_active <- (if t.overlay_pc >= 0 then overlay_table t dp else dp.d_fused)
    end
  | None ->
    t.dprog <- None;
    t.d_active <- [||]

let decoded t = match t.dprog with Some _ -> true | None -> false

(* --- run loops (DESIGN.md §19) -------------------------------------------

   Both loops drive the same machine state [t] through [run]'s budget/quota
   envelope: execute instructions while the status is Running and the
   step/cost budgets hold, calling [check] at every 1024-step poll slot.
   [run] picks the decoded dispatch loop whenever a decoded program is
   installed (every engine the campaign layer hands out); the [step] loop
   runs engines without one and is the reference semantics the
   differential tests compare against. *)

(* the loops' while-condition *)
let[@inline always] live (t : t) ~max_steps ~max_cost =
  (match t.status with Running -> true | _ -> false) && t.steps < max_steps && t.cost < max_cost

let step_loop (t : t) ~max_steps ~max_cost ~check =
  while live t ~max_steps ~max_cost do
    step t;
    (* poll-slot cadence: plain int mask, no boxed arithmetic per step *)
    if t.steps land 1023 = 0 then check ()
  done

(* Threaded dispatch over the decoded closure table.  Per unhooked
   iteration: one bounds check, one hook check, one indirect call.
   [d_active] is re-read every iteration because [set_overlay] can switch
   the engine to its overlay table mid-run (the FI control library
   installs Instr_image overlays at the trigger).

   While a hook is attached the loop dispatches the engine's fusion-free
   table ([fusion_free], which an armed overlay writes its slot into) and
   does what [step] does around it: charge the
   hook's cost first, then call the hook after the instruction at a pc the
   hook declares, unless the instruction trapped.  A declared visit that
   finds the skip window open (decided before the instruction runs, so an
   instruction that publishes a window cannot skip its own visit) retires
   without the call and is banked in [fi_pending].  The closures' own
   poll-slot checks are disarmed meanwhile ([d_check] = [no_check]), and
   the loop runs the check after the hook, as [step_loop] does, so a hook
   that changes state at a poll slot is seen by that slot.

   One try frame wraps the whole loop instead of one per instruction; the
   handler replicates [step_loop]'s post-trap poll-slot check (which can
   overwrite a trap with [Output_quota] at a boundary). *)
let decoded_loop (t : t) ~max_steps ~max_cost ~check =
  t.d_max_steps <- max_steps;
  t.d_max_cost <- max_cost;
  let len = Array.length t.image.L.code in
  let bad_pc pc =
    t.status <- Trapped (Bad_pc pc);
    if t.steps land 1023 = 0 then check ()
  in
  (try
     while live t ~max_steps ~max_cost do
       match t.post_hook with
       | None ->
         t.d_check <- check;
         while
           live t ~max_steps ~max_cost && match t.post_hook with None -> true | Some _ -> false
         do
           let pc = t.pc in
           if pc < 0 || pc >= len then bad_pc pc else (Array.unsafe_get t.d_active pc) t
         done
       | Some _ ->
         t.d_check <- no_check;
         let table = match t.dprog with Some dp -> fusion_free t dp | None -> [||] in
         while
           live t ~max_steps ~max_cost && match t.post_hook with Some _ -> true | None -> false
         do
           let pc = t.pc in
           if pc < 0 || pc >= len then bad_pc pc
           else begin
             (match t.post_hook with
             | None -> ()
             | Some h ->
               t.cost <- t.cost + h.hook_cost;
               if not h.hook_pcs.(pc) then (Array.unsafe_get table pc) t
               else if t.fi_skip > 0 then begin
                 (Array.unsafe_get table pc) t;
                 t.fi_skip <- t.fi_skip - 1;
                 t.fi_pending <- t.fi_pending + 1
               end
               else begin
                 (* the instruction as fetched, as [step] hands it over; an
                    undecodable overlay slot traps before its hook runs *)
                 let i =
                   if pc <> t.overlay_pc then Array.unsafe_get t.image.L.code pc
                   else match t.overlay_instr with Some i -> i | None -> M.Mhalt
                 in
                 (Array.unsafe_get table pc) t;
                 h.on_instr t pc i
               end);
             if t.steps land 1023 = 0 then check ()
           end
         done
     done
   with Halt_trap tr ->
     t.status <- Trapped tr;
     if t.steps land 1023 = 0 then check ());
  t.d_check <- no_check;
  t.d_max_steps <- max_int;
  t.d_max_cost <- max_int

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
  match t.dprog with None -> () | Some dp -> t.d_active <- overlay_table t dp

let enable_profiling t =
  match t.prof with
  | Some p -> p
  | None ->
    let p = { class_steps = Array.make M.num_iclasses 0; ext_calls = 0; ext_cost = 0 } in
    t.prof <- Some p;
    p

(* --- livelock detection -------------------------------------------------

   A fault that lands in a loop counter or a branch decision can leave the
   machine cycling through the same architectural states forever, burning
   the whole modeled-cost budget before the timeout classifies it.  The
   detector fingerprints the register-visible state (pc, register file,
   heap cursor, output length) every [window] steps and keeps a bounded
   ring of recent snapshots: an exact repeat proves the machine is in a
   cycle whose period is invisible to the step/cost counters, and traps
   [Livelock] immediately.  Memory-only progress with an identical
   register file is not observable by the fingerprint — the cost budget
   remains the backstop for that (rare) shape. *)

type fingerprint = { fp_hash : int; fp_pc : int; fp_heap : int; fp_out : int; fp_regs : int64 array }

let fp_ring_size = 256

let fingerprint (t : t) =
  let h = ref 0x811c9dc5 in
  let mix v =
    h := (!h lxor v) * 0x01000193 land max_int
  in
  mix t.pc;
  mix t.heap;
  for r = 0 to R.num_regs - 1 do
    mix (Int64.to_int (A1.unsafe_get t.regs r) land max_int)
  done;
  {
    fp_hash = !h;
    fp_pc = t.pc;
    fp_heap = t.heap;
    fp_out = Buffer.length t.env.out;
    fp_regs = Array.init R.num_regs (fun r -> A1.unsafe_get t.regs r);
  }

let fp_equal a b =
  a.fp_hash = b.fp_hash && a.fp_pc = b.fp_pc && a.fp_heap = b.fp_heap && a.fp_out = b.fp_out
  && a.fp_regs = b.fp_regs

(* Budgets arrive as int64 (the paper's cost model is 64-bit) but the hot
   loop compares native ints; anything at or above [max_int] means
   "unlimited". *)
let int_budget v = if Int64.compare v (Int64.of_int max_int) >= 0 then max_int else Int64.to_int v

(* [max_cost]: modeled-time budget (the 10x-profiling timeout of the
   paper's classification); [max_steps]: hard safety bound.

   Sandbox quotas (DESIGN.md §13) bound what an injected run can consume
   beyond its modeled budget:
   - [output_quota]: max output bytes; the returned output is truncated to
     the quota and flagged so classification can never match a truncated
     prefix against the golden run;
   - [heap_quota]: max heap bytes above the image's heap base;
   - [wall_clock]: real-time deadline in seconds, measured with [clock]
     (default [Sys.time]; campaign callers pass a gettimeofday-backed
     clock) from the start of this [run] call;
   - [livelock]: fingerprint the architectural state every that many steps
     (rounded up to a multiple of the 1024-step check interval) and trap
     on an exact repeat.
   All quota trips surface as [Trapped] with their own constructor, so
   outcome classification maps them to Crash deterministically.

   [detach] (DESIGN.md §20): a post-injection handoff plan.  When the FI
   control library raises [t.detach_req] (the single injection has
   retired), the next poll slot switches the engine onto the plan's
   decode in place; everything but the code stays where it is, so the
   target must share the engine's extern table and heap base.  The
   engine first drains with [step] to the next original-instruction
   boundary, and live [Mcalli] return addresses are validated against the
   shadow call stack and rewritten, with the pc, into golden coordinates
   through the plan's correspondence map.  Any validation failure
   declines the handoff and the run simply continues attached — detach is
   an optimization, never a semantics change. *)
let run ?(max_steps = Int64.max_int) ?(max_cost = Int64.max_int) ?output_quota ?heap_quota
    ?wall_clock ?(clock = Sys.time) ?livelock ?poll ?detach (t : t) : result =
  (match detach with
  | Some p ->
    let g = p.plan_prog.d_image in
    if g.L.heap_base <> t.image.L.heap_base || g.L.ext_names <> t.image.L.ext_names then
      invalid_arg "Exec.run: detach target must share the engine's extern table and heap base"
  | None -> ());
  (match heap_quota with Some q -> t.heap_quota <- q | None -> ());
  let max_steps = int_budget max_steps and max_cost = int_budget max_cost in
  let oq = match output_quota with Some q -> max 0 q | None -> max_int in
  let deadline, wall_s =
    match wall_clock with Some s -> (clock () +. s, s) | None -> (infinity, 0.0)
  in
  let ll_window =
    match livelock with Some n when n > 0 -> ((n + 1023) / 1024) * 1024 | _ -> 0
  in
  (* the 256-slot fingerprint ring exists only while the livelock detector
     is armed — a plain sample must not pay for it *)
  let ll_state = if ll_window > 0 then Some (Array.make fp_ring_size None, ref 0) else None in
  let plan = ref detach in
  let detached = ref false in
  let drained = ref 0 in
  let check_quotas () =
    (match poll with Some p -> p () | None -> ());
    if oq <> max_int && Buffer.length t.env.out > oq then t.status <- Trapped (Output_quota oq);
    if deadline < infinity && t.status = Running && clock () > deadline then
      t.status <- Trapped (Wall_clock wall_s);
    (match ll_state with
    | Some (ring, ring_next) when t.status = Running && t.steps mod ll_window = 0 ->
      let fp = fingerprint t in
      let repeat = Array.exists (function Some p -> fp_equal p fp | None -> false) ring in
      if repeat then t.status <- Trapped Livelock
      else begin
        ring.(!ring_next) <- Some fp;
        ring_next := (!ring_next + 1) mod fp_ring_size
      end
    | _ -> ());
    match !plan with
    | Some _ when t.detach_req && t.status = Running -> raise Detach_signal
    | _ -> ()
  in
  (* One-shot handoff attempt.  Every failure path leaves the engine on
     its own code with [plan] already cleared, so the run continues
     attached with identical semantics. *)
  let attempt_handoff (p : detach_plan) =
    (* the decoded loop's budget/check installs are not unwound when the
       signal propagates out of it — restore them here *)
    t.d_check <- no_check;
    t.d_max_steps <- max_int;
    t.d_max_cost <- max_int;
    t.detach_req <- false;
    let m = p.plan_map in
    let rank = Refine_backend.Fimap.rank m and next = Refine_backend.Fimap.next m in
    (* drain with [step] to the next original-instruction boundary (the
       splice the injection fired in has no golden coordinates); the cap
       bounds a parse-defeating image, and budget or quota edges during
       the drain decline the handoff *)
    let ok = ref true in
    let n = Array.length t.image.L.code in
    let cap = ref 4096 in
    while !ok && t.status = Running && t.pc >= 0 && t.pc < n && rank t.pc < 0 do
      if !cap <= 0 || t.steps >= max_steps || t.cost >= max_cost then ok := false
      else begin
        step t;
        incr drained;
        decr cap;
        if t.steps land 1023 = 0 then check_quotas ()
      end
    done;
    if t.status <> Running || rank t.pc < 0 then ok := false;
    (* checked after the drain, which retires the rest of the splice and
       with it the flip itself; an Instr_image overlay sits at an
       instrumented pc, meaningless in golden coordinates *)
    if t.sp_struck || t.overlay_pc >= 0 then ok := false;
    (* validate the live shadow call stack: each live frame's stack slot
       must still hold the recorded return address (a fault that smashed
       one makes the translation meaningless), and every return address
       must translate into golden coordinates *)
    let rsp = Int64.to_int t.regs.{R.rsp} in
    if rsp < Mem.mem_size - Mem.stack_limit || rsp > Mem.mem_size - 8 then ok := false;
    for j = 0 to t.cs_len - 1 do
      let slot = t.cs_slots.(j) in
      if !ok && slot >= rsp then begin
        let vi = Int64.to_int t.cs_vals.(j) in
        if
          slot > Mem.mem_size - 8
          || get_le t.mem slot <> t.cs_vals.(j)
          || next vi < 0
        then ok := false
      end
    done;
    if !ok then begin
      (* rewrite live return addresses, then the pc, into golden
         coordinates, and switch onto the target's code *)
      for j = 0 to t.cs_len - 1 do
        let slot = t.cs_slots.(j) in
        if slot >= rsp then store64 t slot (Int64.of_int (next (Int64.to_int t.cs_vals.(j))))
      done;
      t.pc <- rank t.pc;
      t.image <- p.plan_prog.d_image;
      install_decoded t (Some p.plan_prog);
      detached := true
    end
  in
  let rec drive () =
    match
      match t.dprog with
      | Some _ -> decoded_loop t ~max_steps ~max_cost ~check:check_quotas
      | None -> step_loop t ~max_steps ~max_cost ~check:check_quotas
    with
    | () -> ()
    | exception Detach_signal ->
      (match !plan with
      | Some p ->
        plan := None;
        attempt_handoff p
      | None -> ());
      drive ()
  in
  drive ();
  let status = if t.status = Running then Timed_out else t.status in
  let output = Buffer.contents t.env.out in
  let truncated = String.length output > oq in
  let output = if truncated then String.sub output 0 oq else output in
  (* overflow noticed only at the end (quota crossed between checks, or on
     the run's last instruction) is still a quota trap, not a clean exit *)
  let status =
    if truncated then match status with Trapped _ -> status | _ -> Trapped (Output_quota oq)
    else status
  in
  t.status <- status;
  (* A timed-out run stops with a cost overshooting the budget by at most
     the last slot's weight — per instruction attached, per modeled
     instrumentation bundle on a detach target.  Reporting the burned
     budget itself erases that granularity difference, keeping a detached
     sample's cost bit-identical to the attached run's. *)
  let cost = if status = Timed_out && t.cost > max_cost then max_cost else t.cost in
  {
    status;
    output;
    steps = Int64.of_int t.steps;
    cost = Int64.of_int cost;
    truncated;
    detached = !detached;
    drain_steps = !drained;
  }
