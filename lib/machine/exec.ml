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
   per runtime-library call, plus [hook_cost] per instruction while a
   dynamic-instrumentation hook (PINFI) is attached.

   Fast path (DESIGN.md §14): the per-instruction execute path is
   allocation-free when profiling is off — step/cost counters are plain
   [int] fields (63 bits is ample for any modeled budget), FLAGS writes
   index a preallocated table of the 8 possible flag words, condition
   codes are evaluated with int bit tests, and extern calls dispatch
   through a per-engine handler array resolved once from the image's
   [ext_slot_of_pc] table instead of hashing the extern name per call.

   Touched-page memory (DESIGN.md §14): a [snapshot] holds only the
   initialized globals region; every engine owns one [Mem.mem_size] arena
   plus a private map with one flag per 4 KiB page, set by every write to
   the arena.  [reset] zeroes the flagged pages and reloads the snapshot,
   optionally a different one, so a fault-injection campaign reuses one
   arena per worker domain across samples and cells, and the detach
   handoff copies only flagged pages. *)

module M = Refine_mir.Minstr
module R = Refine_mir.Reg
module L = Refine_backend.Layout
module Mem = Refine_ir.Memlayout

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
type snapshot = { s_image : L.image; s_globals : Bytes.t }

(* Engine-private memory bookkeeping, opaque outside this module. *)
type priv = {
  dirty : Bytes.t;
      (* one flag per page of [mem]: a clear flag means the page is all
         zero.  Set by every write to [mem]; cleared by [reset], which
         zeroes exactly the flagged pages. *)
  mutable snap : snapshot option; (* what [reset] restores; None for [create] *)
}

type t = {
  mutable image : L.image; (* rebound when [reset] moves to another snapshot *)
  regs : int64 array; (* R.num_regs entries; raw bits for GPR/FPR/FLAGS *)
  mem : Bytes.t; (* the arena; only this module writes it, flagging each touched page *)
  mutable pc : int;
  mutable steps : int; (* unboxed hot counters: int, not int64 (§14) *)
  mutable cost : int;
  mutable status : status;
  mutable heap : int;
  env : Refine_ir.Externs.env;
  ext_extra : (string, int * (t -> unit)) Hashtbl.t;
      (* FI runtime library: name -> (modeled cost, handler) *)
  mutable post_hook : (t -> int -> M.t -> unit) option; (* PINFI-style DBI *)
  mutable hook_cost : int;
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
         normally, [dprog.d_single] while an Instr_image overlay is armed
         (a superinstruction head must never replay a stale slot) *)
  mutable d_overlay : (t -> unit) option;
      (* decoded form of [overlay_instr], rebuilt by [set_overlay] and
         cleared by [reset] in the same pass as [overlay_pc]/[fi_mask] *)
  mutable d_check : unit -> unit;
      (* the current run's 1024-step poll-slot check, called by decoded
         closures after every retired constituent *)
  mutable d_max_steps : int; (* current run's budgets, re-tested between *)
  mutable d_max_cost : int; (*  fused constituents exactly like the legacy
                                while-condition *)
  mutable detach_req : bool;
      (* set by the FI control library when the single injection has
         retired; [run] hands off to the detach plan's golden engine at
         the next poll slot (DESIGN.md §20) *)
  mutable sp_struck : bool;
      (* an FI flip ([Mxorbit]) struck rsp or rbp: the run may go on to
         pop stack slots outside the live frames a map-mode handoff
         validates, so such a handoff declines *)
  mutable handler_cost : int array;
      (* declared modeled cost per extern slot, parallel to [handlers]
         (rebuilt together) — lets the fi-splice fast path charge a
         skipped selector call exactly *)
  mutable fi_sel_skip : int;
      (* FI-selector fast-path window (DESIGN.md §20): how many upcoming
         [fi_sel_instr] calls are provably non-firing.  Published by the
         REFINE control library after every real selector call; consumed
         one per splice by the fused fi-splice closure, which then
         retires the whole splice without entering the library.  0 (the
         default) = every call goes to the handler. *)
  mutable fi_sel_pending : int;
      (* selector calls the fast path retired since the library last
         ran; the library folds them into its own dynamic counter on the
         next real call, and [Runtime.absorb] folds the remainder after
         the run — so counts and fault records never see a stale total *)
  mutable cs_slots : int array;
      (* shadow call stack: per live [Mcalli] frame, the stack slot that
         holds the pushed return address... *)
  mutable cs_vals : int64 array; (* ...and the value pushed into it *)
  mutable cs_len : int;
  priv : priv;
}

(* A decoded program: per-pc closure tables plus static decode facts.
   Closures capture no engine, so one dprogram is shared read-only by
   every engine of the same image, across domains. *)
and dprogram = {
  d_image : L.image; (* the image this decode was built from *)
  d_fused : (t -> unit) array; (* dispatch table with superinstruction heads *)
  d_single : (t -> unit) array; (* fusion-free per-pc decodes *)
  d_super : int array; (* fused sites per idiom, indexed like [idioms] *)
}

let no_check () = ()

type result = {
  status : status;
  output : string;
  steps : int64;
  cost : int64;
  truncated : bool; (* output was cut at the quota; never a golden match *)
  detached : bool; (* the run handed off to its detach plan's golden engine *)
  drain_steps : int; (* attached steps executed to reach a mapped handoff pc *)
}

(* --- post-injection detach (DESIGN.md §20) ----------------------------- *)

type handoff_map = {
  h_rank : int array; (* instrumented pc -> golden pc; -1 inside splices *)
  h_next : int array;
      (* instrumented pc -> first golden rank at-or-after (return-address
         translation); length n+1, -1 past the last original instruction *)
}

type detach_plan = {
  plan_target : unit -> t;
      (* acquire the golden/patched engine (reset, decode installed);
         called at most once, only if the handoff goes ahead *)
  plan_map : handoff_map option;
      (* [Some] = golden-map mode (state transfer + pc/return-address
         translation); [None] = same-coordinates branch-patched fallback *)
}

exception Detach_signal
(* raised by the poll-slot check when [detach_req] is set and a plan is
   armed; [run] catches it, attempts the handoff, and continues on the
   winning engine *)

(* sentinel return address that terminates the program when popped *)
let sentinel = -1L

(* --- flags ----------------------------------------------------------- *)

(* The 8 possible FLAGS words (ZF|LT|UNORD), preallocated so a flag write
   is an array index instead of a chain of boxed Int64 ops. *)
let flag_words = Array.init 8 Int64.of_int

let set_flags t ~zf ~lt ~unord =
  let i =
    (if zf then 1 else 0) lor (if lt then 2 else 0) lor if unord then 4 else 0
  in
  t.regs.(R.flags) <- flag_words.(i)

let eval_cc t (cc : M.cc) =
  let fl = Int64.to_int t.regs.(R.flags) in
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
   a huge value into a base register) and would let the access through to
   the Bytes bounds check, surfacing as a harness exception instead of the
   machine trap it models. *)
let check_addr addr =
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

let load64 t addr =
  check_addr addr;
  Bytes.get_int64_le t.mem addr

let store64 t addr v =
  check_addr addr;
  Bytes.set_int64_le t.mem addr v;
  touch8 t addr

let push t v =
  let sp = Int64.to_int t.regs.(R.rsp) - 8 in
  if sp < Mem.mem_size - Mem.stack_limit then raise (Halt_trap Stack_overflow);
  t.regs.(R.rsp) <- Int64.of_int sp;
  store64 t sp v

let pop t =
  let sp = Int64.to_int t.regs.(R.rsp) in
  let v = load64 t sp in
  t.regs.(R.rsp) <- Int64.of_int (sp + 8);
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
             args.(i) <- t.regs.(arg_regs.(i))
           done;
           let r =
             try Refine_ir.Externs.call t.env name args
             with Refine_ir.Externs.Extern_trap m -> raise (Halt_trap (Extern_fault m))
           in
           match t.env.exited with
           | Some code -> t.status <- Exited code
           | None -> (
             match ret with
             | Some Refine_ir.Ir.I64 -> t.regs.(R.ret_gpr) <- r
             | Some Refine_ir.Ir.F64 -> t.regs.(R.ret_fpr) <- r
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

(* Slow path for an [Mcallext] at a pc layout did not resolve
   (ext_slot_of_pc = -1, e.g. a code array mutated after layout): the
   by-name lookup. *)
let do_callext (t : t) name =
  match Hashtbl.find_opt t.ext_extra name with
  | Some (cost, fn) ->
    t.cost <- t.cost + cost;
    count_ext t cost;
    fn t
  | None -> (
    match builtin_handler name with
    | Some h -> h t
    | None -> unknown_extern name t)

(* --- engine construction ------------------------------------------------ *)

(* The initialized globals region of [image], [globals_base, heap_base):
   each global's initializer at its layout address, zeros elsewhere. *)
let snapshot (image : L.image) : snapshot =
  let g = Bytes.make (image.L.heap_base - Mem.globals_base) '\000' in
  List.iter
    (fun (gl : Refine_ir.Ir.global) ->
      match gl.gbytes with
      | Some s ->
        Bytes.blit_string s 0 g (image.L.global_addr gl.gname - Mem.globals_base) (String.length s)
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
      Bytes.unsafe_fill t.mem (p lsl page_bits) page_size '\000';
      Bytes.unsafe_set d p '\000'
    end
  done;
  let n = Bytes.length s.s_globals in
  Bytes.blit s.s_globals 0 t.mem Mem.globals_base n;
  for p = Mem.globals_base lsr page_bits to (Mem.globals_base + n - 1) lsr page_bits do
    Bytes.unsafe_set d p '\001'
  done;
  store64 t (Mem.mem_size - 8) sentinel

let make ~(ext_extra : (string * int * (t -> unit)) list) (s : snapshot) ~resettable : t =
  let image = s.s_image in
  let self = ref None in
  let mem = Bytes.make Mem.mem_size '\000' in
  let env =
    {
      Refine_ir.Externs.out = Buffer.create 1024;
      read_byte =
        (fun a ->
          if a < Mem.null_guard || a >= Mem.mem_size then
            raise (Refine_ir.Externs.Extern_trap (Printf.sprintf "print_str read at 0x%x" a))
          else Bytes.get mem a);
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
      regs = Array.make R.num_regs 0L;
      mem;
      pc = image.L.entry;
      steps = 0;
      cost = 0;
      status = Running;
      heap = image.L.heap_base;
      env;
      ext_extra = Hashtbl.create 8;
      post_hook = None;
      hook_cost = 0;
      prof = None;
      heap_quota = max_int;
      handlers = [||];
      builtins = [||];
      fi_mask = 0L;
      overlay_pc = -1;
      overlay_instr = None;
      dprog = None;
      d_active = [||];
      d_overlay = None;
      d_check = no_check;
      d_max_steps = max_int;
      d_max_cost = max_int;
      detach_req = false;
      sp_struck = false;
      handler_cost = [||];
      fi_sel_skip = 0;
      fi_sel_pending = 0;
      cs_slots = Array.make 64 0;
      cs_vals = Array.make 64 0L;
      cs_len = 0;
      priv = { dirty = Bytes.make num_pages '\000'; snap = (if resettable then Some s else None) };
    }
  in
  self := Some t;
  load t s;
  List.iter (fun (name, cost, fn) -> Hashtbl.replace t.ext_extra name (cost, fn)) ext_extra;
  t.builtins <- Array.map builtin_handler image.L.ext_names;
  t.handlers <- bind_handlers t;
  t.regs.(R.rsp) <- Int64.of_int (Mem.mem_size - 8);
  t

let create ?(ext_extra = []) (image : L.image) : t =
  make ~ext_extra (snapshot image) ~resettable:false

let create_from_snapshot ?(ext_extra = []) (s : snapshot) : t = make ~ext_extra s ~resettable:true

(* Restore the pristine post-loader state: zero the touched pages and
   reload the snapshot — the bound one, or [snapshot], which moves the
   engine onto another binary so a campaign worker keeps one arena for
   its lifetime instead of one per cell.  Every mutable piece of the
   machine is re-initialized, so a reset engine is bit-identical to a
   fresh [create_from_snapshot] (the differential property tests assert
   exactly this). *)
let reset ?(ext_extra = []) ?snapshot (t : t) : unit =
  let s =
    match (snapshot, t.priv.snap) with
    | Some s, _ | None, Some s -> s
    | None, None -> invalid_arg "Exec.reset: engine was not created from a snapshot"
  in
  if s.s_image != t.image then begin
    (* a property of the image, not of a sample: rebind the memoized
       builtins and drop a decode built for the old image *)
    t.image <- s.s_image;
    t.builtins <- Array.map builtin_handler s.s_image.L.ext_names;
    t.dprog <- None
  end;
  t.priv.snap <- Some s;
  load t s;
  Array.fill t.regs 0 (Array.length t.regs) 0L;
  t.regs.(R.rsp) <- Int64.of_int (Mem.mem_size - 8);
  t.pc <- t.image.L.entry;
  t.steps <- 0;
  t.cost <- 0;
  t.status <- Running;
  t.heap <- t.image.L.heap_base;
  Buffer.clear t.env.out;
  t.env.exited <- None;
  t.post_hook <- None;
  t.hook_cost <- 0;
  t.prof <- None;
  t.heap_quota <- max_int;
  t.fi_mask <- 0L;
  t.overlay_pc <- -1;
  t.overlay_instr <- None;
  (* decoded-overlay state is cleared in the same pass as the overlay and
     FI mask: a reused engine must never dispatch a stale corrupted decode
     or keep running on the overlay-degraded single-instruction table *)
  t.d_overlay <- None;
  (match t.dprog with Some dp -> t.d_active <- dp.d_fused | None -> t.d_active <- [||]);
  t.d_check <- no_check;
  t.d_max_steps <- max_int;
  t.d_max_cost <- max_int;
  t.detach_req <- false;
  t.sp_struck <- false;
  t.fi_sel_skip <- 0;
  t.fi_sel_pending <- 0;
  t.cs_len <- 0;
  Hashtbl.reset t.ext_extra;
  List.iter (fun (name, cost, fn) -> Hashtbl.replace t.ext_extra name (cost, fn)) ext_extra;
  t.handlers <- bind_handlers t

(* --- single step -------------------------------------------------------- *)

(* Shadow call stack: record, per [Mcalli], the stack slot the return
   address was pushed into and the value pushed.  Handoff to a golden-map
   detach target validates every live entry against memory and rewrites
   the slot to the translated golden pc; a mismatch (a fault struck a
   stored return address or rsp) declines the handoff instead of
   transferring a wrong frame.  Two int-array writes per call on the hot
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

let opd (t : t) = function M.Reg r -> t.regs.(r) | M.Imm v -> v

(* Execute [i] as the instruction at [pc0] (bounds already established by
   [step]'s guard).  Factored out of [step] so the Instr_image overlay can
   substitute a mutated instruction for the fetched one without an
   allocation on the hot path. *)
let exec_instr (t : t) pc0 (i : M.t) =
  let code = t.image.L.code in
  begin
    t.steps <- t.steps + 1;
    t.cost <- t.cost + 1 + t.hook_cost;
    (match t.prof with
    | None -> ()
    | Some p ->
      let k = Array.unsafe_get t.image.L.class_of_pc pc0 in
      p.class_steps.(k) <- p.class_steps.(k) + 1);
    t.pc <- pc0 + 1;
    (try
       (match i with
       | M.Mmov (d, s) -> t.regs.(d) <- opd t s
       | M.Mload (d, b, off) -> t.regs.(d) <- load64 t (Int64.to_int t.regs.(b) + off)
       | M.Mstore (s, b, off) -> store64 t (Int64.to_int t.regs.(b) + off) t.regs.(s)
       | M.Mloadidx (d, b, ix, off) ->
         t.regs.(d) <-
           load64 t (Int64.to_int t.regs.(b) + (8 * Int64.to_int t.regs.(ix)) + off)
       | M.Mstoreidx (s, b, ix, off) ->
         store64 t (Int64.to_int t.regs.(b) + (8 * Int64.to_int t.regs.(ix)) + off) t.regs.(s)
       | M.Mlea (d, b, ix, off) ->
         let base = t.regs.(b) in
         let idx = match ix with Some r -> Int64.mul 8L t.regs.(r) | None -> 0L in
         t.regs.(d) <- Int64.add (Int64.add base idx) (Int64.of_int off)
       | M.Mbin (op, d, a, b) ->
         let va = t.regs.(a) and vb = opd t b in
         let r =
           try Refine_ir.Interp.eval_ibinop op va vb
           with Refine_ir.Interp.Trap _ -> raise (Halt_trap Div_by_zero)
         in
         t.regs.(d) <- r;
         set_flags t ~zf:(r = 0L) ~lt:(Int64.compare r 0L < 0) ~unord:false
       | M.Mfbin (op, d, a, b) ->
         t.regs.(d) <- b64 (Refine_ir.Interp.eval_fbinop op (f64 t.regs.(a)) (f64 t.regs.(b)))
       | M.Mfun (op, d, a) -> t.regs.(d) <- b64 (Refine_ir.Interp.eval_funop op (f64 t.regs.(a)))
       | M.Mcvt (Sitofp, d, a) -> t.regs.(d) <- b64 (Int64.to_float t.regs.(a))
       | M.Mcvt (Fptosi, d, a) -> t.regs.(d) <- Refine_ir.Interp.fptosi (f64 t.regs.(a))
       | M.Mcmp (a, b) ->
         let va = t.regs.(a) and vb = opd t b in
         let c = Int64.compare va vb in
         set_flags t ~zf:(c = 0) ~lt:(c < 0) ~unord:false
       | M.Mfcmp (a, b) ->
         let va = f64 t.regs.(a) and vb = f64 t.regs.(b) in
         if Float.is_nan va || Float.is_nan vb then set_flags t ~zf:false ~lt:false ~unord:true
         else set_flags t ~zf:(va = vb) ~lt:(va < vb) ~unord:false
       | M.Msetcc (cc, d) -> t.regs.(d) <- (if eval_cc t cc then 1L else 0L)
       | M.Mjcc (cc, target) -> if eval_cc t cc then t.pc <- target
       | M.Mjmp target -> t.pc <- target
       | M.Mpush r -> push t t.regs.(r)
       | M.Mpop r -> t.regs.(r) <- pop t
       | M.Mpushf -> push t t.regs.(R.flags)
       | M.Mpopf -> t.regs.(R.flags) <- pop t
       | M.Mcalli target ->
         let ra = Int64.of_int t.pc in
         push t ra;
         cs_push t (Int64.to_int t.regs.(R.rsp)) ra;
         t.pc <- target
       | M.Mcall name -> raise (Halt_trap (Extern_fault ("unresolved call " ^ name)))
       | M.Mcallext name ->
         (* pre-resolved dispatch: no string hashing on the hot path *)
         let slot = t.image.L.ext_slot_of_pc.(pc0) in
         if slot >= 0 then t.handlers.(slot) t else do_callext t name
       | M.Mret ->
         let ra = pop t in
         cs_pop t;
         if ra = sentinel then t.status <- Exited (Int64.to_int t.regs.(R.ret_gpr))
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
           t.regs.(d) <- Int64.logxor t.regs.(d) t.fi_mask;
           t.fi_mask <- 0L
         end
         else
           t.regs.(d) <-
             Int64.logxor t.regs.(d)
               (Int64.shift_left 1L (Int64.to_int (Int64.logand t.regs.(s) 63L)))
       | M.Mxorbitmem (b, off, s) ->
         let addr = Int64.to_int t.regs.(b) + off in
         let v = load64 t addr in
         let mask =
           if t.fi_mask <> 0L then begin
             let m = t.fi_mask in
             t.fi_mask <- 0L;
             m
           end
           else Int64.shift_left 1L (Int64.to_int (Int64.logand t.regs.(s) 63L))
         in
         store64 t addr (Int64.logxor v mask)
       | M.Mhalt -> t.status <- Exited (Int64.to_int t.regs.(R.ret_gpr)));
       match t.post_hook with Some h -> h t pc0 i | None -> ()
     with Halt_trap tr -> t.status <- Trapped tr)
  end

let step (t : t) =
  let code = t.image.L.code in
  if t.pc < 0 || t.pc >= Array.length code then t.status <- Trapped (Bad_pc t.pc)
  else begin
    let pc0 = t.pc in
    (* overlay check is one int compare on the hot path; only a hit pays
       for the option match *)
    if pc0 = t.overlay_pc then (
      match t.overlay_instr with
      | Some i -> exec_instr t pc0 i
      | None ->
        (* the corrupted slot no longer decodes: the fetch itself traps *)
        t.steps <- t.steps + 1;
        t.cost <- t.cost + 1;
        t.status <- Trapped (Illegal_instr pc0))
    else exec_instr t pc0 (Array.unsafe_get code pc0)
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
     executes can install an overlay or a DBI hook mid-fusion;
   - the dispatch loop falls back to the legacy [step] while a [post_hook]
     is attached (PINFI / tracing observe per-instruction semantics, and
     decoded dispatch resumes the moment the hook detaches itself) and
     routes the overlaid pc through the overlay decode.

   Decoded closures capture no engine: a [dprogram] is immutable and
   shared read-only across engines and domains. *)

type dop = t -> unit

(* unaligned 64-bit little-endian access without the per-access Bytes
   bounds check — [check_addr] has already validated the range *)
external unsafe_get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external unsafe_set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

let[@inline always] dload64 t addr =
  check_addr addr;
  let v = unsafe_get64 t.mem addr in
  if Sys.big_endian then bswap64 v else v

let[@inline always] dstore64 t addr v =
  check_addr addr;
  unsafe_set64 t.mem addr (if Sys.big_endian then bswap64 v else v);
  touch8 t addr

(* retire-check: the legacy run loop's poll-slot test, executed after
   every retired constituent *)
let[@inline always] rc (t : t) = if t.steps land 1023 = 0 then t.d_check ()

(* per-constituent accounting, identical to [exec_instr]'s prologue with
   the opcode class [k] and the slot's cost weight [cw] baked in at decode
   time.  [cw] is 1 for plain code; detach-target images carry the
   attached-equivalent modeled cost of skipped instrumentation on the
   surviving slots (DESIGN.md §20), so a detached run's cost trajectory
   matches the attached run's at every original-instruction boundary. *)
let[@inline always] account (t : t) k cw =
  t.steps <- t.steps + 1;
  t.cost <- t.cost + cw + t.hook_cost;
  match t.prof with
  | None -> ()
  | Some p -> p.class_steps.(k) <- p.class_steps.(k) + 1

(* the legacy while-condition, re-tested between fused constituents *)
let[@inline always] d_live (t : t) =
  (match t.status with Running -> true | _ -> false)
  && t.steps < t.d_max_steps && t.cost < t.d_max_cost

(* comparisons spelled with the int64-specialized operators: the compiler
   compiles them to unboxed native compares instead of C calls *)
let[@inline always] set_flags_r (t : t) (r : int64) =
  let i = (if r = 0L then 1 else 0) lor if r < 0L then 2 else 0 in
  Array.unsafe_set t.regs R.flags (Array.unsafe_get flag_words i)

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

(* Decode one instruction as the slot at [pc0] into a closure.  [image]
   supplies the class and extern-slot tables — always those of the
   original pc, matching [exec_instr], including for Instr_image overlay
   instructions.  Register indices are validated here so the closures use
   unchecked array access; an operand outside the register file
   (impossible for layout output, and [Corrupt.mutate] clamps registers)
   falls back to the legacy [exec_instr]. *)
let decode_one ?cost_of (image : L.image) (pc0 : int) (i : M.t) : dop =
  let k = image.L.class_of_pc.(pc0) in
  let cw = match cost_of with None -> 1 | Some c -> c.(pc0) in
  let pc1 = pc0 + 1 in
  let code_len = Array.length image.L.code in
  let okr r = r >= 0 && r < R.num_regs in
  let oko = function M.Reg r -> okr r | M.Imm _ -> true in
  let via_legacy : dop =
   fun t ->
    exec_instr t pc0 i;
    (* [exec_instr] charged weight 1; top up to the slot's weight — but
       only when the instruction retired: attached, a trapping candidate
       never reaches the instrumentation modeled by the extra weight, so
       a trap must not pay for it either *)
    (if cw > 1 then
       match t.status with Running -> t.cost <- t.cost + (cw - 1) | _ -> ());
    rc t
  in
  (* weighted slots always take the legacy route: the fast-path closures
     charge [cw] before executing, which would over-charge a slot that
     traps mid-instruction.  Weighted slots are rare (one per candidate
     on a detach target, none on plain images), so this costs nothing on
     the hot path. *)
  if cw > 1 then via_legacy
  else
  match i with
  | M.Mmov (d, M.Reg s) when okr d && okr s ->
    fun t ->
      account t k cw;
      t.pc <- pc1;
      Array.unsafe_set t.regs d (Array.unsafe_get t.regs s);
      rc t
  | M.Mmov (d, M.Imm v) when okr d ->
    fun t ->
      account t k cw;
      t.pc <- pc1;
      Array.unsafe_set t.regs d v;
      rc t
  | M.Mload (d, b, off) when okr d && okr b ->
    fun t ->
      account t k cw;
      t.pc <- pc1;
      Array.unsafe_set t.regs d (dload64 t (Int64.to_int (Array.unsafe_get t.regs b) + off));
      rc t
  | M.Mstore (s, b, off) when okr s && okr b ->
    fun t ->
      account t k cw;
      t.pc <- pc1;
      dstore64 t (Int64.to_int (Array.unsafe_get t.regs b) + off) (Array.unsafe_get t.regs s);
      rc t
  | M.Mloadidx (d, b, ix, off) when okr d && okr b && okr ix ->
    fun t ->
      account t k cw;
      t.pc <- pc1;
      Array.unsafe_set t.regs d
        (dload64 t
           (Int64.to_int (Array.unsafe_get t.regs b)
           + (8 * Int64.to_int (Array.unsafe_get t.regs ix))
           + off));
      rc t
  | M.Mstoreidx (s, b, ix, off) when okr s && okr b && okr ix ->
    fun t ->
      account t k cw;
      t.pc <- pc1;
      dstore64 t
        (Int64.to_int (Array.unsafe_get t.regs b)
        + (8 * Int64.to_int (Array.unsafe_get t.regs ix))
        + off)
        (Array.unsafe_get t.regs s);
      rc t
  | M.Mlea (d, b, Some ix, off) when okr d && okr b && okr ix ->
    let offl = Int64.of_int off in
    fun t ->
      account t k cw;
      t.pc <- pc1;
      Array.unsafe_set t.regs d
        (Int64.add
           (Int64.add (Array.unsafe_get t.regs b) (Int64.mul 8L (Array.unsafe_get t.regs ix)))
           offl);
      rc t
  | M.Mlea (d, b, None, off) when okr d && okr b ->
    let offl = Int64.of_int off in
    fun t ->
      account t k cw;
      t.pc <- pc1;
      Array.unsafe_set t.regs d (Int64.add (Array.unsafe_get t.regs b) offl);
      rc t
  | M.Mbin (op, d, a, b) when okr d && okr a && oko b ->
    let fin (t : t) (r : int64) =
      Array.unsafe_set t.regs d r;
      set_flags_r t r;
      rc t
    in
    (match b with
    | M.Imm vb -> (
      match (op : Refine_ir.Ir.ibinop) with
      | Add ->
        fun t ->
          account t k cw;
          t.pc <- pc1;
          fin t (Int64.add (Array.unsafe_get t.regs a) vb)
      | Sub ->
        fun t ->
          account t k cw;
          t.pc <- pc1;
          fin t (Int64.sub (Array.unsafe_get t.regs a) vb)
      | Mul ->
        fun t ->
          account t k cw;
          t.pc <- pc1;
          fin t (Int64.mul (Array.unsafe_get t.regs a) vb)
      | And ->
        fun t ->
          account t k cw;
          t.pc <- pc1;
          fin t (Int64.logand (Array.unsafe_get t.regs a) vb)
      | Or ->
        fun t ->
          account t k cw;
          t.pc <- pc1;
          fin t (Int64.logor (Array.unsafe_get t.regs a) vb)
      | Xor ->
        fun t ->
          account t k cw;
          t.pc <- pc1;
          fin t (Int64.logxor (Array.unsafe_get t.regs a) vb)
      | Shl ->
        let sh = Int64.to_int (Int64.logand vb 63L) in
        fun t ->
          account t k cw;
          t.pc <- pc1;
          fin t (Int64.shift_left (Array.unsafe_get t.regs a) sh)
      | Lshr ->
        let sh = Int64.to_int (Int64.logand vb 63L) in
        fun t ->
          account t k cw;
          t.pc <- pc1;
          fin t (Int64.shift_right_logical (Array.unsafe_get t.regs a) sh)
      | Ashr ->
        let sh = Int64.to_int (Int64.logand vb 63L) in
        fun t ->
          account t k cw;
          t.pc <- pc1;
          fin t (Int64.shift_right (Array.unsafe_get t.regs a) sh)
      | Div ->
        fun t ->
          account t k cw;
          t.pc <- pc1;
          let va = Array.unsafe_get t.regs a in
          if vb = 0L then raise (Halt_trap Div_by_zero)
          else if va = Int64.min_int && vb = -1L then fin t Int64.min_int
          else fin t (Int64.div va vb)
      | Rem ->
        fun t ->
          account t k cw;
          t.pc <- pc1;
          let va = Array.unsafe_get t.regs a in
          if vb = 0L then raise (Halt_trap Div_by_zero)
          else if va = Int64.min_int && vb = -1L then fin t 0L
          else fin t (Int64.rem va vb))
    | M.Reg rb -> (
      match (op : Refine_ir.Ir.ibinop) with
      | Add ->
        fun t ->
          account t k cw;
          t.pc <- pc1;
          fin t (Int64.add (Array.unsafe_get t.regs a) (Array.unsafe_get t.regs rb))
      | Sub ->
        fun t ->
          account t k cw;
          t.pc <- pc1;
          fin t (Int64.sub (Array.unsafe_get t.regs a) (Array.unsafe_get t.regs rb))
      | Mul ->
        fun t ->
          account t k cw;
          t.pc <- pc1;
          fin t (Int64.mul (Array.unsafe_get t.regs a) (Array.unsafe_get t.regs rb))
      | And ->
        fun t ->
          account t k cw;
          t.pc <- pc1;
          fin t (Int64.logand (Array.unsafe_get t.regs a) (Array.unsafe_get t.regs rb))
      | Or ->
        fun t ->
          account t k cw;
          t.pc <- pc1;
          fin t (Int64.logor (Array.unsafe_get t.regs a) (Array.unsafe_get t.regs rb))
      | Xor ->
        fun t ->
          account t k cw;
          t.pc <- pc1;
          fin t (Int64.logxor (Array.unsafe_get t.regs a) (Array.unsafe_get t.regs rb))
      | Shl ->
        fun t ->
          account t k cw;
          t.pc <- pc1;
          fin t
            (Int64.shift_left (Array.unsafe_get t.regs a)
               (Int64.to_int (Int64.logand (Array.unsafe_get t.regs rb) 63L)))
      | Lshr ->
        fun t ->
          account t k cw;
          t.pc <- pc1;
          fin t
            (Int64.shift_right_logical (Array.unsafe_get t.regs a)
               (Int64.to_int (Int64.logand (Array.unsafe_get t.regs rb) 63L)))
      | Ashr ->
        fun t ->
          account t k cw;
          t.pc <- pc1;
          fin t
            (Int64.shift_right (Array.unsafe_get t.regs a)
               (Int64.to_int (Int64.logand (Array.unsafe_get t.regs rb) 63L)))
      | Div ->
        fun t ->
          account t k cw;
          t.pc <- pc1;
          let va = Array.unsafe_get t.regs a and vb = Array.unsafe_get t.regs rb in
          if vb = 0L then raise (Halt_trap Div_by_zero)
          else if va = Int64.min_int && vb = -1L then fin t Int64.min_int
          else fin t (Int64.div va vb)
      | Rem ->
        fun t ->
          account t k cw;
          t.pc <- pc1;
          let va = Array.unsafe_get t.regs a and vb = Array.unsafe_get t.regs rb in
          if vb = 0L then raise (Halt_trap Div_by_zero)
          else if va = Int64.min_int && vb = -1L then fin t 0L
          else fin t (Int64.rem va vb)))
  | M.Mfbin (op, d, a, b) when okr d && okr a && okr b ->
    let fin (t : t) r =
      Array.unsafe_set t.regs d (b64 r);
      rc t
    in
    (match (op : Refine_ir.Ir.fbinop) with
    | Fadd ->
      fun t ->
        account t k cw;
        t.pc <- pc1;
        fin t (f64 (Array.unsafe_get t.regs a) +. f64 (Array.unsafe_get t.regs b))
    | Fsub ->
      fun t ->
        account t k cw;
        t.pc <- pc1;
        fin t (f64 (Array.unsafe_get t.regs a) -. f64 (Array.unsafe_get t.regs b))
    | Fmul ->
      fun t ->
        account t k cw;
        t.pc <- pc1;
        fin t (f64 (Array.unsafe_get t.regs a) *. f64 (Array.unsafe_get t.regs b))
    | Fdiv ->
      fun t ->
        account t k cw;
        t.pc <- pc1;
        fin t (f64 (Array.unsafe_get t.regs a) /. f64 (Array.unsafe_get t.regs b)))
  | M.Mfun (op, d, a) when okr d && okr a -> (
    match (op : Refine_ir.Ir.funop) with
    | Fneg ->
      fun t ->
        account t k cw;
        t.pc <- pc1;
        Array.unsafe_set t.regs d (b64 (-.f64 (Array.unsafe_get t.regs a)));
        rc t
    | Fsqrt ->
      fun t ->
        account t k cw;
        t.pc <- pc1;
        Array.unsafe_set t.regs d (b64 (sqrt (f64 (Array.unsafe_get t.regs a))));
        rc t
    | Fabs ->
      fun t ->
        account t k cw;
        t.pc <- pc1;
        Array.unsafe_set t.regs d (b64 (Float.abs (f64 (Array.unsafe_get t.regs a))));
        rc t)
  | M.Mcvt (Sitofp, d, a) when okr d && okr a ->
    fun t ->
      account t k cw;
      t.pc <- pc1;
      Array.unsafe_set t.regs d (b64 (Int64.to_float (Array.unsafe_get t.regs a)));
      rc t
  | M.Mcvt (Fptosi, d, a) when okr d && okr a ->
    fun t ->
      account t k cw;
      t.pc <- pc1;
      Array.unsafe_set t.regs d (Refine_ir.Interp.fptosi (f64 (Array.unsafe_get t.regs a)));
      rc t
  | M.Mcmp (a, M.Imm vb) when okr a ->
    fun t ->
      account t k cw;
      t.pc <- pc1;
      let fl = flags_of (Array.unsafe_get t.regs a) vb in
      Array.unsafe_set t.regs R.flags (Array.unsafe_get flag_words fl);
      rc t
  | M.Mcmp (a, M.Reg rb) when okr a && okr rb ->
    fun t ->
      account t k cw;
      t.pc <- pc1;
      let fl = flags_of (Array.unsafe_get t.regs a) (Array.unsafe_get t.regs rb) in
      Array.unsafe_set t.regs R.flags (Array.unsafe_get flag_words fl);
      rc t
  | M.Mfcmp (a, b) when okr a && okr b ->
    fun t ->
      account t k cw;
      t.pc <- pc1;
      let va = f64 (Array.unsafe_get t.regs a) and vb = f64 (Array.unsafe_get t.regs b) in
      let fl =
        if Float.is_nan va || Float.is_nan vb then 4
        else (if va = vb then 1 else 0) lor if va < vb then 2 else 0
      in
      Array.unsafe_set t.regs R.flags (Array.unsafe_get flag_words fl);
      rc t
  | M.Msetcc (cc, d) when okr d ->
    let test = cc_fn cc in
    fun t ->
      account t k cw;
      t.pc <- pc1;
      Array.unsafe_set t.regs d
        (if test (Int64.to_int (Array.unsafe_get t.regs R.flags)) then 1L else 0L);
      rc t
  | M.Mjcc (cc, target) -> (
    match int_cc cc with
    | Some (mask, want) ->
      fun t ->
        account t k cw;
        t.pc <- pc1;
        let fl = Int64.to_int (Array.unsafe_get t.regs R.flags) in
        if (fl land mask <> 0) = want then t.pc <- target;
        rc t
    | None ->
      let test = cc_fn cc in
      fun t ->
        account t k cw;
        t.pc <- pc1;
        if test (Int64.to_int (Array.unsafe_get t.regs R.flags)) then t.pc <- target;
        rc t)
  | M.Mjmp target ->
    fun t ->
      account t k cw;
      t.pc <- target;
      rc t
  | M.Mpush r when okr r ->
    fun t ->
      account t k cw;
      t.pc <- pc1;
      push t (Array.unsafe_get t.regs r);
      rc t
  | M.Mpop r when okr r ->
    fun t ->
      account t k cw;
      t.pc <- pc1;
      Array.unsafe_set t.regs r (pop t);
      rc t
  | M.Mpushf ->
    fun t ->
      account t k cw;
      t.pc <- pc1;
      push t t.regs.(R.flags);
      rc t
  | M.Mpopf ->
    fun t ->
      account t k cw;
      t.pc <- pc1;
      t.regs.(R.flags) <- pop t;
      rc t
  | M.Mcalli target ->
    (* the return address is a decode-time constant: no box per call *)
    let ra = Int64.of_int pc1 in
    fun t ->
      account t k cw;
      t.pc <- pc1;
      push t ra;
      cs_push t (Int64.to_int (Array.unsafe_get t.regs R.rsp)) ra;
      t.pc <- target;
      rc t
  | M.Mcall name ->
    let tr = Halt_trap (Extern_fault ("unresolved call " ^ name)) in
    fun t ->
      account t k cw;
      t.pc <- pc1;
      raise tr
  | M.Mcallext name ->
    (* extern slot resolved at decode time (the §14 fast path, one step
       earlier); slot -1 = post-layout mutated code, by-name fallback *)
    let slot = image.L.ext_slot_of_pc.(pc0) in
    if slot >= 0 then
      fun t ->
        account t k cw;
        t.pc <- pc1;
        t.handlers.(slot) t;
        rc t
    else
      fun t ->
        account t k cw;
        t.pc <- pc1;
        do_callext t name;
        rc t
  | M.Mret ->
    fun t ->
      account t k cw;
      t.pc <- pc1;
      let ra = pop t in
      cs_pop t;
      if ra = sentinel then t.status <- Exited (Int64.to_int t.regs.(R.ret_gpr))
      else begin
        let target = Int64.to_int ra in
        if target < 0 || target >= code_len then raise (Halt_trap (Bad_pc target))
        else t.pc <- target
      end;
      rc t
  | M.Mxorbit (d, s) when okr d && okr s ->
    let sp = d = R.rsp || d = R.rbp in
    fun t ->
      account t k cw;
      t.pc <- pc1;
      if sp then t.sp_struck <- true;
      (if t.fi_mask <> 0L then begin
         Array.unsafe_set t.regs d (Int64.logxor (Array.unsafe_get t.regs d) t.fi_mask);
         t.fi_mask <- 0L
       end
       else
         Array.unsafe_set t.regs d
           (Int64.logxor (Array.unsafe_get t.regs d)
              (Int64.shift_left 1L
                 (Int64.to_int (Int64.logand (Array.unsafe_get t.regs s) 63L)))));
      rc t
  | M.Mxorbitmem (b, off, s) when okr b && okr s ->
    fun t ->
      account t k cw;
      t.pc <- pc1;
      let addr = Int64.to_int (Array.unsafe_get t.regs b) + off in
      let v = dload64 t addr in
      let mask =
        if t.fi_mask <> 0L then begin
          let m = t.fi_mask in
          t.fi_mask <- 0L;
          m
        end
        else Int64.shift_left 1L (Int64.to_int (Int64.logand (Array.unsafe_get t.regs s) 63L))
      in
      dstore64 t addr (Int64.logxor v mask);
      rc t
  | M.Mhalt ->
    fun t ->
      account t k cw;
      t.pc <- pc1;
      t.status <- Exited (Int64.to_int t.regs.(R.ret_gpr));
      rc t
  | _ -> via_legacy

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
   or budget edge inside the group) falls back to the constituent-exact
   slow path, which retires one at a time with the legacy poll-slot test
   after each. *)

(* Hand-fused integer compare-branch: one closure, flags kept in a local,
   the cc as a decode-time FLAGS bit test. *)
let fuse_pair2 ?(cw0 = 1) ?(cw1 = 1) (image : L.image) pc0 a (b : M.mopd) ~mask ~want ~tgt :
    dop =
  let k0 = image.L.class_of_pc.(pc0) and k1 = image.L.class_of_pc.(pc0 + 1) in
  let pc1 = pc0 + 1 and pc2 = pc0 + 2 in
  let finish (t : t) fl =
    let s = t.steps in
    let c2 = cw0 + cw1 + (2 * t.hook_cost) in
    if s land 1023 <= 1021 && t.d_max_steps - s >= 2 && t.d_max_cost - t.cost >= c2 then begin
      (* batched: no poll slot or budget edge inside the pair *)
      t.steps <- s + 2;
      t.cost <- t.cost + c2;
      (match t.prof with
      | None -> ()
      | Some p ->
        p.class_steps.(k0) <- p.class_steps.(k0) + 1;
        p.class_steps.(k1) <- p.class_steps.(k1) + 1);
      Array.unsafe_set t.regs R.flags (Array.unsafe_get flag_words fl);
      t.pc <- (if (fl land mask <> 0) = want then tgt else pc2)
    end
    else begin
      (* constituent-exact slow path across the boundary/edge *)
      account t k0 cw0;
      t.pc <- pc1;
      Array.unsafe_set t.regs R.flags (Array.unsafe_get flag_words fl);
      rc t;
      if d_live t then begin
        account t k1 cw1;
        t.pc <- pc2;
        if (fl land mask <> 0) = want then t.pc <- tgt;
        rc t
      end
    end
  in
  match b with
  | M.Imm vb -> fun t -> finish t (flags_of (Array.unsafe_get t.regs a) vb)
  | M.Reg rb -> fun t -> finish t (flags_of (Array.unsafe_get t.regs a) (Array.unsafe_get t.regs rb))

(* Hand-fused loop back edge: compare + conditional exit + backward jump,
   the bottom-of-loop shape of every counted MinC loop.  The jump
   constituent retires only on the fall-through path, exactly as the
   legacy interpreter would reach it.

   [spin] marks a tight self-loop ([jt = pc0] and the compared registers
   not FLAGS): the triple writes nothing but FLAGS and pc, so once the
   branch falls through every further iteration is identical until the
   next poll slot or budget edge — those iterations retire in bulk and the
   boundary iteration goes through the constituent-exact path, firing the
   poll check at exactly the legacy step count with exactly the legacy
   architectural state. *)
let fuse_loop3 ?(cw0 = 1) ?(cw1 = 1) ?(cw2 = 1) (image : L.image) pc0 a (b : M.mopd) ~mask
    ~want ~tgt ~jt ~spin : dop =
  let k0 = image.L.class_of_pc.(pc0)
  and k1 = image.L.class_of_pc.(pc0 + 1)
  and k2 = image.L.class_of_pc.(pc0 + 2) in
  let pc1 = pc0 + 1 and pc2 = pc0 + 2 in
  let finish (t : t) fl =
    let s = t.steps in
    let hc = t.hook_cost in
    let c3 = cw0 + cw1 + cw2 + (3 * hc) in
    if s land 1023 <= 1020 && t.d_max_steps - s >= 3 && t.d_max_cost - t.cost >= c3 then begin
      (* batched: no poll slot or budget edge inside the triple *)
      Array.unsafe_set t.regs R.flags (Array.unsafe_get flag_words fl);
      let prof2 () =
        match t.prof with
        | None -> ()
        | Some p ->
          p.class_steps.(k0) <- p.class_steps.(k0) + 1;
          p.class_steps.(k1) <- p.class_steps.(k1) + 1
      in
      if (fl land mask <> 0) = want then begin
        (* exit taken: only cmp+jcc retire *)
        t.steps <- s + 2;
        t.cost <- t.cost + cw0 + cw1 + (2 * hc);
        prof2 ();
        t.pc <- tgt
      end
      else begin
        t.steps <- s + 3;
        t.cost <- t.cost + c3;
        prof2 ();
        (match t.prof with
        | None -> ()
        | Some p -> p.class_steps.(k2) <- p.class_steps.(k2) + 1);
        t.pc <- jt;
        if spin then begin
          (* idempotent spin: retire whole further iterations in bulk up
             to the next poll slot / budget edge *)
          let n =
            min
              ((1023 - (t.steps land 1023)) / 3)
              (min ((t.d_max_steps - t.steps) / 3) ((t.d_max_cost - t.cost) / c3))
          in
          if n > 0 then begin
            t.steps <- t.steps + (3 * n);
            t.cost <- t.cost + (n * c3);
            match t.prof with
            | None -> ()
            | Some p ->
              p.class_steps.(k0) <- p.class_steps.(k0) + n;
              p.class_steps.(k1) <- p.class_steps.(k1) + n;
              p.class_steps.(k2) <- p.class_steps.(k2) + n
          end
        end
      end
    end
    else begin
      (* constituent-exact slow path across the boundary/edge *)
      account t k0 cw0;
      t.pc <- pc1;
      Array.unsafe_set t.regs R.flags (Array.unsafe_get flag_words fl);
      rc t;
      if d_live t then begin
        account t k1 cw1;
        t.pc <- pc2;
        if (fl land mask <> 0) = want then begin
          t.pc <- tgt;
          rc t
        end
        else begin
          rc t;
          if d_live t then begin
            account t k2 cw2;
            t.pc <- jt;
            rc t
          end
        end
      end
    end
  in
  match b with
  | M.Imm vb -> fun t -> finish t (flags_of (Array.unsafe_get t.regs a) vb)
  | M.Reg rb -> fun t -> finish t (flags_of (Array.unsafe_get t.regs a) (Array.unsafe_get t.regs rb))

(* Hand-fused counted-loop latch: a non-trapping integer op updating the
   latch register, the compare on it, and the conditional back edge, in
   one group.  The branch is the last constituent, so all three always
   retire together and the batched path needs only the boundary/budget
   guard; the op's intermediate FLAGS write is unobservable inside the
   batch (the compare overwrites it), so only the compare's flags are
   stored.  Decode guarantees none of the operands is FLAGS itself.

   [burn = Some (delta, m)] marks the canonical counted self-latch:
   [tgt = pc0], the op steps the latch register by [delta] (+-1), and the
   compare is [latch <> m] (CNe).  Every further iteration then has the
   closed form latch_j = latch + j*delta with the branch taken while
   latch_j <> m, so whole iterations retire in bulk up to the iteration
   before the exit value, the next poll slot, or a budget edge — with the
   latch register and FLAGS materialized to their exact architectural
   values at the stopping point. *)
let fuse_latch3 ?cost_of ?(cw0 = 1) ?(cw1 = 1) ?(cw2 = 1) (image : L.image) pc0
    (op : Refine_ir.Ir.ibinop) d a (b : M.mopd) a2 (b2 : M.mopd) ~mask ~want ~tgt ~burn : dop =
  let k0 = image.L.class_of_pc.(pc0)
  and k1 = image.L.class_of_pc.(pc0 + 1)
  and k2 = image.L.class_of_pc.(pc0 + 2) in
  let pc3 = pc0 + 3 in
  let s0 = decode_one ?cost_of image pc0 image.L.code.(pc0)
  and s1 = decode_one ?cost_of image (pc0 + 1) image.L.code.(pc0 + 1)
  and s2 = decode_one ?cost_of image (pc0 + 2) image.L.code.(pc0 + 2) in
  fun t ->
    let s = t.steps in
    let c3 = cw0 + cw1 + cw2 + (3 * t.hook_cost) in
    if s land 1023 <= 1020 && t.d_max_steps - s >= 3 && t.d_max_cost - t.cost >= c3 then begin
      let va = Array.unsafe_get t.regs a in
      let vb = match b with M.Imm v -> v | M.Reg r -> Array.unsafe_get t.regs r in
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
      Array.unsafe_set t.regs d r;
      let va2 = Array.unsafe_get t.regs a2 in
      let vb2 = match b2 with M.Imm v -> v | M.Reg rr -> Array.unsafe_get t.regs rr in
      let fl = flags_of va2 vb2 in
      Array.unsafe_set t.regs R.flags (Array.unsafe_get flag_words fl);
      t.steps <- s + 3;
      t.cost <- t.cost + c3;
      (match t.prof with
      | None -> ()
      | Some p ->
        p.class_steps.(k0) <- p.class_steps.(k0) + 1;
        p.class_steps.(k1) <- p.class_steps.(k1) + 1;
        p.class_steps.(k2) <- p.class_steps.(k2) + 1);
      if (fl land mask <> 0) = want then begin
        t.pc <- tgt;
        match burn with
        | None -> ()
        | Some (delta, m) ->
          (* counted self-latch: bulk-retire up to the iteration before
             the exit value / next poll slot / budget edge *)
          let cap =
            min
              ((1023 - (t.steps land 1023)) / 3)
              (min ((t.d_max_steps - t.steps) / 3) ((t.d_max_cost - t.cost) / c3))
          in
          if cap > 0 then begin
            (* the branch was taken, so r <> m and the (wrapping) exit
               distance is >= 1 *)
            let j_exit = if delta < 0L then Int64.sub r m else Int64.sub m r in
            let k64 = Int64.sub j_exit 1L in
            let k =
              if Int64.unsigned_compare k64 (Int64.of_int cap) >= 0 then cap
              else Int64.to_int k64
            in
            if k > 0 then begin
              let r' = Int64.add r (Int64.mul delta (Int64.of_int k)) in
              Array.unsafe_set t.regs d r';
              Array.unsafe_set t.regs R.flags (Array.unsafe_get flag_words (flags_of r' m));
              t.steps <- t.steps + (3 * k);
              t.cost <- t.cost + (k * c3);
              match t.prof with
              | None -> ()
              | Some p ->
                p.class_steps.(k0) <- p.class_steps.(k0) + k;
                p.class_steps.(k1) <- p.class_steps.(k1) + k;
                p.class_steps.(k2) <- p.class_steps.(k2) + k
            end
          end
      end
      else t.pc <- pc3
    end
    else begin
      (* constituent-exact slow path across the boundary/edge *)
      s0 t;
      if t.pc = pc0 + 1 && d_live t then begin
        s1 t;
        if t.pc = pc0 + 2 && d_live t then s2 t
      end
    end

(* Hand-fused REFINE FI splice (DESIGN.md §20): the instrumentation the
   pass wraps around every candidate —

     Mpush r0; [Mpushf]; Mcallext "fi_sel_instr";
     Mcmp (ret_gpr, 0); Mjcc (CEq, post); ...; post: [Mpopf]; Mpop r0

   — dispatched as one closure.  The overwhelmingly common non-firing
   path (the selector returns 0) batches the whole splice: the saves
   cannot trap (stack headroom is part of the guard), the selector call
   itself retires constituent-exact so the FI control library observes
   the precise attached machine state, and the restore loads the saved
   words back from memory — not from remembered values, because a firing
   Mem_cell fault inside the selector may strike the saved bytes and the
   legacy pops would read the flipped value.  Any other outcome (selector
   returns nonzero, an Instr_image overlay was installed, a budget edge,
   a status change) leaves the machine at the exact post-call boundary
   [a+1] and returns to the dispatch loop, which continues constituent-
   exact — the fire path's cmp/jcc at [a+1] is the ordinary fused
   compare-branch.  Guard failure runs the head's single decode; the
   interior pcs keep their single decodes, so nothing is lost. *)
let fuse_splice (image : L.image) pc0 ~pf ~r0 ~post : dop =
  let a = pc0 + if pf then 2 else 1 in
  let slot = image.L.ext_slot_of_pc.(a) in
  let npush = if pf then 2 else 1 in
  let len = npush + 3 + npush in
  let sp_end = post + npush - 1 in
  let cls = image.L.class_of_pc in
  let k_push = cls.(pc0)
  and k_pushf = cls.(pc0 + 1) (* = k_push's neighbour; read only when pf *)
  and k_call = cls.(a)
  and k_cmp = cls.(a + 1)
  and k_jcc = cls.(a + 2)
  and k_popf = cls.(post)
  and k_pop = cls.(sp_end) in
  let s_head = decode_one image pc0 image.L.code.(pc0) in
  let floor = Mem.mem_size - Mem.stack_limit in
  let ret_clobbered = r0 <> R.ret_gpr in
  fun t ->
    let s = t.steps in
    let hc = t.hook_cost in
    let sp = Int64.to_int (Array.unsafe_get t.regs R.rsp) in
    if
      t.fi_sel_skip > 0
      && s land 1023 <= 1023 - len
      && t.d_max_steps - s >= len
      && t.d_max_cost - t.cost >= (len * (1 + hc)) + Array.unsafe_get t.handler_cost slot
      && sp - (8 * npush) >= floor
      && sp - (8 * npush) >= Mem.null_guard
      && sp <= Mem.mem_size
    then begin
      (* fast path: the runtime has proven this selector call cannot fire
         (fi_sel_skip > 0), so the whole splice retires in-engine with no
         handler invocation.  Architecturally observable effects of the
         skipped sequence: the two PreFI stack stores, ret_gpr <- 0 (when
         the saved register is not ret_gpr itself — otherwise the pop
         restores it and the net effect is nil), flags = cmp 0,0 for the
         flag-less variant (the pf variant restores the saved FLAGS, net
         unchanged), rsp net unchanged, and the retired step/cost/profile
         counters.  The deferred dynamic count is banked in
         fi_sel_pending and folded back by the runtime (Runtime.absorb or
         the next real selector call). *)
      let hcost = Array.unsafe_get t.handler_cost slot in
      dstore64 t (sp - 8) (Array.unsafe_get t.regs r0);
      if pf then dstore64 t (sp - 16) (Array.unsafe_get t.regs R.flags);
      if ret_clobbered then Array.unsafe_set t.regs R.ret_gpr 0L;
      if not pf then Array.unsafe_set t.regs R.flags (Array.unsafe_get flag_words 1);
      t.steps <- s + len;
      t.cost <- t.cost + (len * (1 + hc)) + hcost;
      (match t.prof with
      | None -> ()
      | Some p ->
        p.class_steps.(k_push) <- p.class_steps.(k_push) + 1;
        if pf then p.class_steps.(k_pushf) <- p.class_steps.(k_pushf) + 1;
        p.class_steps.(k_call) <- p.class_steps.(k_call) + 1;
        p.class_steps.(k_cmp) <- p.class_steps.(k_cmp) + 1;
        p.class_steps.(k_jcc) <- p.class_steps.(k_jcc) + 1;
        if pf then p.class_steps.(k_popf) <- p.class_steps.(k_popf) + 1;
        p.class_steps.(k_pop) <- p.class_steps.(k_pop) + 1;
        p.ext_calls <- p.ext_calls + 1;
        p.ext_cost <- p.ext_cost + hcost);
      t.fi_sel_skip <- t.fi_sel_skip - 1;
      t.fi_sel_pending <- t.fi_sel_pending + 1;
      t.pc <- sp_end + 1
    end
    else if
      s land 1023 <= 1023 - len
      && t.d_max_steps - s >= len
      && t.d_max_cost - t.cost >= (len * (1 + hc)) + 64
      && sp - (8 * npush) >= floor
      && sp - (8 * npush) >= Mem.null_guard
      && sp <= Mem.mem_size
    then begin
      (* batched PreFI saves: no trap, poll slot or budget edge inside *)
      dstore64 t (sp - 8) (Array.unsafe_get t.regs r0);
      if pf then dstore64 t (sp - 16) (Array.unsafe_get t.regs R.flags);
      Array.unsafe_set t.regs R.rsp (Int64.of_int (sp - (8 * npush)));
      t.steps <- s + npush;
      t.cost <- t.cost + (npush * (1 + hc));
      (match t.prof with
      | None -> ()
      | Some p ->
        p.class_steps.(k_push) <- p.class_steps.(k_push) + 1;
        if pf then p.class_steps.(k_pushf) <- p.class_steps.(k_pushf) + 1);
      (* the selector call, constituent-exact *)
      account t k_call 1;
      t.pc <- a + 1;
      t.handlers.(slot) t;
      if
        d_live t && t.pc = a + 1 && t.overlay_pc < 0
        && Array.unsafe_get t.regs R.ret_gpr = 0L
        && t.d_max_cost - t.cost >= (npush + 2) * (1 + hc)
      then begin
        (* batched non-firing tail: cmp 0,0 (equal); jcc taken; restores *)
        (if pf then Array.unsafe_set t.regs R.flags (dload64 t (sp - 16))
         else Array.unsafe_set t.regs R.flags (Array.unsafe_get flag_words 1));
        Array.unsafe_set t.regs r0 (dload64 t (sp - 8));
        Array.unsafe_set t.regs R.rsp (Int64.of_int sp);
        t.steps <- t.steps + npush + 2;
        t.cost <- t.cost + ((npush + 2) * (1 + hc));
        (match t.prof with
        | None -> ()
        | Some p ->
          p.class_steps.(k_cmp) <- p.class_steps.(k_cmp) + 1;
          p.class_steps.(k_jcc) <- p.class_steps.(k_jcc) + 1;
          if pf then p.class_steps.(k_popf) <- p.class_steps.(k_popf) + 1;
          p.class_steps.(k_pop) <- p.class_steps.(k_pop) + 1);
        t.pc <- sp_end + 1
      end
      (* else: exact state at the post-call boundary; the loop takes over *)
    end
    else s_head t

let idioms = [| "cmp-branch"; "load-op-store"; "loop-back"; "fi-splice" |]

(* Decode a whole image: per-pc single decodes, then a fused table where
   idiom heads are replaced by superinstructions.  Interior pcs of a fused
   region keep their single decodes, so jumps landing mid-idiom dispatch
   correctly. *)
let decode ?cost_of (image : L.image) : dprogram =
  let code = image.L.code in
  let n = Array.length code in
  (match cost_of with
  | Some c when Array.length c <> n ->
    invalid_arg "Exec.decode: cost_of length does not match the image"
  | _ -> ());
  let cw pc = match cost_of with None -> 1 | Some c -> c.(pc) in
  let single = Array.init n (fun pc -> decode_one ?cost_of image pc code.(pc)) in
  let fused = Array.copy single in
  let super = Array.make (Array.length idioms) 0 in
  let okr r = r >= 0 && r < R.num_regs in
  let oko = function M.Reg r -> okr r | M.Imm _ -> true in
  let plain = match cost_of with None -> true | Some _ -> false in
  for pc = 0 to n - 1 do
    (* REFINE FI splice head: the exact shape Fimap.parse_splices accepts
       (the [Mjmp (a+4)] discriminates it from user code, which can never
       call "fi_sel_instr" anyway).  Only on plain (unweighted) images:
       detach targets carry the splice cost as slot weights instead. *)
    let splice =
      plain
      &&
      match code.(pc) with
      | M.Mpush r0 when okr r0 -> (
        let pf = pc + 1 < n && code.(pc + 1) = M.Mpushf in
        let a = pc + if pf then 2 else 1 in
        a + 3 < n
        && code.(a) = M.Mcallext "fi_sel_instr"
        && image.L.ext_slot_of_pc.(a) >= 0
        && code.(a + 1) = M.Mcmp (R.ret_gpr, M.Imm 0L)
        && (match code.(a + 3) with M.Mjmp s -> s = a + 4 | _ -> false)
        &&
        match code.(a + 2) with
        | M.Mjcc (M.CEq, post)
          when post > a + 3
               && post + (if pf then 2 else 1) < n
               &&
               if pf then code.(post) = M.Mpopf && code.(post + 1) = M.Mpop r0
               else code.(post) = M.Mpop r0 ->
          fused.(pc) <- fuse_splice image pc ~pf ~r0 ~post;
          super.(3) <- super.(3) + 1;
          true
        | _ -> false)
      | _ -> false
    in
    let fused3 =
      (not splice) && pc + 2 < n
      &&
      match (code.(pc), code.(pc + 1), code.(pc + 2)) with
      | M.Mcmp (a, b), M.Mjcc (cc, tgt), M.Mjmp jt when jt <= pc + 2 && okr a && oko b -> (
        match int_cc cc with
        | Some (mask, want) ->
          (* [spin]: self-loop whose compare doesn't read FLAGS, so the
             burned iterations are provably identical *)
          let spin =
            jt = pc && a <> R.flags
            && match b with M.Reg rb -> rb <> R.flags | M.Imm _ -> true
          in
          fused.(pc) <-
            fuse_loop3 ~cw0:(cw pc) ~cw1:(cw (pc + 1)) ~cw2:(cw (pc + 2)) image pc a b ~mask
              ~want ~tgt ~jt ~spin;
          super.(2) <- super.(2) + 1;
          true
        | None -> false)
      | M.Mload _, M.Mbin _, M.Mstore _ ->
        fused.(pc) <-
          compose2 (pc + 1) single.(pc) (compose2 (pc + 2) single.(pc + 1) single.(pc + 2));
        super.(1) <- super.(1) + 1;
        true
      | M.Mbin (op, d, a, b), M.Mcmp (a2, b2), M.Mjcc (cc, tgt)
        when (match op with Div | Rem -> false | _ -> true)
             && okr d && okr a && oko b && okr a2 && oko b2 && d <> R.flags && a <> R.flags
             && a2 <> R.flags
             && (match b with M.Reg r -> r <> R.flags | M.Imm _ -> true)
             && (match b2 with M.Reg r -> r <> R.flags | M.Imm _ -> true) -> (
        match int_cc cc with
        | Some (mask, want) ->
          (* closed-form bulk retirement for the canonical counted
             self-latch: step the latch by +-1, compare it to a constant,
             loop while not equal *)
          let burn =
            if tgt = pc && a = d && a2 = d && (match cc with M.CNe -> true | _ -> false) then
              match (op, b, b2) with
              | Sub, M.Imm st, M.Imm m when st = 1L || st = -1L -> Some (Int64.neg st, m)
              | Add, M.Imm st, M.Imm m when st = 1L || st = -1L -> Some (st, m)
              | _ -> None
            else None
          in
          fused.(pc) <-
            fuse_latch3 ?cost_of ~cw0:(cw pc) ~cw1:(cw (pc + 1)) ~cw2:(cw (pc + 2)) image pc op
              d a b a2 b2 ~mask ~want ~tgt ~burn;
          (* a backward target is a loop latch; forward is a fused
             compare-branch with a leading op *)
          (if tgt <= pc + 2 then super.(2) <- super.(2) + 1
           else super.(0) <- super.(0) + 1);
          true
        | None -> false)
      | _ -> false
    in
    if (not fused3) && pc + 1 < n then
      match (code.(pc), code.(pc + 1)) with
      | M.Mcmp (a, b), M.Mjcc (cc, tgt) when okr a && oko b && int_cc cc <> None ->
        let mask, want = match int_cc cc with Some mw -> mw | None -> assert false in
        fused.(pc) <- fuse_pair2 ~cw0:(cw pc) ~cw1:(cw (pc + 1)) image pc a b ~mask ~want ~tgt;
        super.(0) <- super.(0) + 1
      | (M.Mcmp _ | M.Mfcmp _), M.Mjcc _ ->
        fused.(pc) <- compose2 (pc + 1) single.(pc) single.(pc + 1);
        super.(0) <- super.(0) + 1
      | _ -> ()
  done;
  { d_image = image; d_fused = fused; d_single = single; d_super = super }

let decoded_image dp = dp.d_image

let superinstr_counts dp = Array.copy dp.d_super

(* Install (or uninstall, with [None]) a decoded program on an engine.
   The dprogram must have been built from the engine's own image — decoded
   closures bake that image's class/extern tables and code bounds. *)
let install_decoded (t : t) = function
  | Some dp ->
    if dp.d_image != t.image then
      invalid_arg "Exec.install_decoded: decoded program was built from a different image";
    t.dprog <- Some dp;
    t.d_active <- (if t.overlay_pc >= 0 then dp.d_single else dp.d_fused)
  | None ->
    t.dprog <- None;
    t.d_active <- [||];
    t.d_overlay <- None

let decoded t = match t.dprog with Some _ -> true | None -> false

(* --- run loops (DESIGN.md §19) -------------------------------------------

   Both loops drive the same machine state [t] through [run]'s budget/quota
   envelope: execute instructions while the status is Running and the
   step/cost budgets hold, calling [check] at every 1024-step poll slot.
   [run] picks the decoded dispatch loop whenever a decoded program is
   installed (every engine the campaign layer hands out); the [step] loop
   runs engines without one and is the reference semantics the
   differential tests compare against. *)

let step_loop (t : t) ~max_steps ~max_cost ~check =
  while
    (match t.status with Running -> true | _ -> false)
    && t.steps < max_steps && t.cost < max_cost
  do
    step t;
    (* poll-slot cadence: plain int mask, no boxed arithmetic per step *)
    if t.steps land 1023 = 0 then check ()
  done

(* Threaded dispatch over the decoded closure table.  Per iteration: one
   bounds check, one overlay compare, one hook check, one indirect call.
   [d_active] is re-read every iteration because [set_overlay] can switch
   the engine to the single-instruction table mid-run (the FI control
   library installs Instr_image overlays at the trigger).  One try frame
   wraps the whole loop instead of one per instruction; the handler
   replicates [step_loop]'s post-trap poll-slot check (which can overwrite
   a trap with [Output_quota] at a boundary). *)
let decoded_loop (t : t) ~max_steps ~max_cost ~check =
  t.d_max_steps <- max_steps;
  t.d_max_cost <- max_cost;
  t.d_check <- check;
  let len = Array.length t.image.L.code in
  (try
     while
       (match t.status with Running -> true | _ -> false)
       && t.steps < max_steps && t.cost < max_cost
     do
       let pc = t.pc in
       if pc < 0 || pc >= len then begin
         t.status <- Trapped (Bad_pc pc);
         if t.steps land 1023 = 0 then check ()
       end
       else if pc = t.overlay_pc then begin
         match (t.overlay_instr, t.d_overlay, t.post_hook) with
         | Some _, Some f, None -> f t (* decoded overlay self-checks *)
         | ov, _, _ ->
           (match ov with
           | Some i -> exec_instr t pc i
           | None ->
             (* the corrupted slot no longer decodes: the fetch traps *)
             t.steps <- t.steps + 1;
             t.cost <- t.cost + 1;
             t.status <- Trapped (Illegal_instr pc));
           if t.steps land 1023 = 0 then check ()
       end
       else begin
         match t.post_hook with
         | None -> (Array.unsafe_get t.d_active pc) t
         | Some _ ->
           (* per-instruction DBI semantics: route through [step] while a
              hook is attached *)
           step t;
           if t.steps land 1023 = 0 then check ()
       end
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
  let b = Char.code (Bytes.get t.mem addr) in
  Bytes.set t.mem addr (Char.chr (b lxor (1 lsl bit)));
  Bytes.unsafe_set t.priv.dirty (addr lsr page_bits) '\001'

(* The detach handoff's memory transfer: make [g]'s arena equal [src]'s.
   A page neither engine flagged is zero in both, so only pages flagged
   in either are copied, and each copy carries the source's flag. *)
let copy_touched ~(src : t) (g : t) =
  let sd = src.priv.dirty and gd = g.priv.dirty in
  for p = 0 to num_pages - 1 do
    let f = Bytes.unsafe_get sd p in
    if f <> '\000' || Bytes.unsafe_get gd p <> '\000' then begin
      Bytes.blit src.mem (p lsl page_bits) g.mem (p lsl page_bits) page_size;
      Bytes.unsafe_set gd p f
    end
  done

(* Install the Instr_image corruption overlay: the engine-local view of one
   mutated code slot ([None] = the mutated encoding is illegal).  The
   shared [image.code] is never written; [reset] clears the overlay. *)
let set_overlay (t : t) ~pc instr =
  if pc < 0 || pc >= Array.length t.image.L.code then
    invalid_arg (Printf.sprintf "Exec.set_overlay: pc %d outside the code image" pc);
  t.overlay_pc <- pc;
  t.overlay_instr <- instr;
  (* decoded-cache bypass for the overlaid pc: drop to the fusion-free
     table (a superinstruction spanning [pc] would execute the pristine
     encoding) and pre-decode the corrupted slot itself *)
  match t.dprog with
  | None -> ()
  | Some dp ->
    t.d_active <- dp.d_single;
    t.d_overlay <- (match instr with Some i -> Some (decode_one t.image pc i) | None -> None)

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
  Array.iter (fun r -> mix (Int64.to_int r land max_int)) t.regs;
  {
    fp_hash = !h;
    fp_pc = t.pc;
    fp_heap = t.heap;
    fp_out = Buffer.length t.env.out;
    fp_regs = Array.copy t.regs;
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
   retired), the next poll slot hands execution off to the plan's golden
   engine: the architectural state (registers, the memory pages either
   engine touched, heap cursor, accumulated output and step/cost
   counters) transfers onto the reset engine the plan acquires on the
   uninstrumented snapshot, and the same absolute budgets keep driving
   it.  With a correspondence map the source first
   drains with [step] to the next original-instruction boundary
   and live [Mcalli] return addresses are validated against the shadow
   call stack and rewritten into golden coordinates; without a map
   (overlay-fallback targets) the coordinates are shared and the handoff
   is a plain state copy.  Any validation failure declines the handoff
   and the run simply continues attached — detach is an optimization,
   never a semantics change. *)
let run ?(max_steps = Int64.max_int) ?(max_cost = Int64.max_int) ?output_quota ?heap_quota
    ?wall_clock ?(clock = Sys.time) ?livelock ?poll ?detach (t : t) : result =
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
  (* [cur] is the engine the run is currently driving: [t] until a
     successful handoff, the plan's golden engine after *)
  let cur = ref t in
  let plan = ref detach in
  let detached = ref false in
  let drained = ref 0 in
  let check_quotas () =
    let t = !cur in
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
  (* One-shot handoff attempt.  Every failure path leaves [cur] on the
     source engine with [plan] already cleared, so the run continues
     attached with identical semantics. *)
  let attempt_handoff (p : detach_plan) =
    let src = !cur in
    (* the decoded loop's budget/check installs are not unwound when the
       signal propagates out of it — restore them here *)
    src.d_check <- no_check;
    src.d_max_steps <- max_int;
    src.d_max_cost <- max_int;
    src.detach_req <- false;
    let ok = ref true in
    (match p.plan_map with
    | None -> ()
    | Some m ->
      (* drain with [step] to the next original-instruction
         boundary (the splice the injection fired in has no golden
         coordinates); the cap bounds a parse-defeating image, and budget
         or quota edges during the drain decline the handoff *)
      let n = Array.length m.h_rank in
      let cap = ref 4096 in
      while
        !ok && src.status = Running && src.pc >= 0 && src.pc < n && m.h_rank.(src.pc) < 0
      do
        if !cap <= 0 || src.steps >= max_steps || src.cost >= max_cost then ok := false
        else begin
          step src;
          incr drained;
          decr cap;
          if src.steps land 1023 = 0 then check_quotas ()
        end
      done;
      if src.status <> Running || src.pc < 0 || src.pc >= n || m.h_rank.(src.pc) < 0 then
        ok := false;
      (* checked after the drain, which retires the rest of the splice and
         with it the flip itself *)
      if src.sp_struck then ok := false;
      (* validate the live shadow call stack: each live frame's stack slot
         must still hold the recorded return address (a fault that smashed
         a return address makes the translation meaningless), and every
         return address must translate into golden coordinates *)
      if !ok then begin
        let rsp = Int64.to_int src.regs.(R.rsp) in
        if rsp < Mem.mem_size - Mem.stack_limit || rsp > Mem.mem_size - 8 then ok := false
        else
          for j = 0 to src.cs_len - 1 do
            if !ok then begin
              let slot = src.cs_slots.(j) in
              if slot >= rsp then begin
                if slot > Mem.mem_size - 8 then ok := false
                else begin
                  let v = src.cs_vals.(j) in
                  if Bytes.get_int64_le src.mem slot <> v then ok := false
                  else
                    let vi = Int64.to_int v in
                    if vi < 0 || vi >= Array.length m.h_next || m.h_next.(vi) < 0 then
                      ok := false
                end
              end
            end
          done
      end);
    if !ok then begin
      let g = p.plan_target () in
      if g == src || g.status <> Running then () (* unusable target: stay attached *)
      else begin
        copy_touched ~src g;
        Array.blit src.regs 0 g.regs 0 (Array.length src.regs);
        g.heap <- src.heap;
        g.steps <- src.steps;
        g.cost <- src.cost;
        g.heap_quota <- src.heap_quota;
        g.fi_mask <- src.fi_mask;
        g.env.exited <- src.env.exited;
        Buffer.clear g.env.out;
        Buffer.add_buffer g.env.out src.env.out;
        (* shared profile record: the owner keeps flushing the counters it
           already holds, and post-handoff retirement lands in the same
           cells *)
        g.prof <- src.prof;
        (match p.plan_map with
        | Some m ->
          g.pc <- m.h_rank.(src.pc);
          (* rewrite live return addresses into golden coordinates *)
          let rsp = Int64.to_int src.regs.(R.rsp) in
          for j = 0 to src.cs_len - 1 do
            let slot = src.cs_slots.(j) in
            if slot >= rsp then
              store64 g slot (Int64.of_int m.h_next.(Int64.to_int src.cs_vals.(j)))
          done
        | None ->
          (* shared coordinates: pc carries over; a live Instr_image
             overlay moves with it *)
          g.pc <- src.pc;
          if src.overlay_pc >= 0 then set_overlay g ~pc:src.overlay_pc src.overlay_instr);
        cur := g;
        detached := true
      end
    end
  in
  let rec drive () =
    let t = !cur in
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
  let t = !cur in
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
     budget itself erases that granularity difference, keeping fixed-seed
     campaign cost sums bit-identical with detach on or off. *)
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
