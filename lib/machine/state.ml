(* The SX64 engine's state (DESIGN.md §14): the machine record and its
   private part, snapshots, construction, the extern-handler binding that
   construction and [reset] share, [reset] itself, and the reset contract
   that names every field of the state once.  [Exec] is the facade over
   this unit, [Semantics] (what an instruction does) and [Runner] (the run
   loops).

   Off-heap machine state: the register file is an int64 Bigarray, so a
   computed register value is stored raw instead of boxed.  The arena is a
   private mapping of /dev/zero: zero by construction, committed by the
   kernel page by page as the machine writes, and unmapped when its engine
   is collected.

   Touched-page memory: a [snapshot] holds only the initialized globals
   region; every engine owns one [Mem.mem_size] arena plus a private map
   with one flag per 4 KiB page, set by every write to the arena.  [reset]
   zeroes the flagged pages and reloads the snapshot, optionally a
   different one, so a fault-injection campaign reuses one arena per
   worker domain across samples and cells; the detach handoff switches the
   running engine's code in place and moves no memory. *)

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
  mem : arena; (* the arena; only the engine writes it, flagging each touched page *)
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
  mutable detach_req : bool;
      (* set by the FI control library when the single injection has
         retired; [run] switches onto the detach plan's target at
         the next poll slot (DESIGN.md §20) *)
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
  priv : priv;
}

(* The engine's own bookkeeping, opaque outside the engine.  The decoded
   loop reads [d_active] once per dispatch through one load of [t.priv]
   it keeps in a local; the fi-splice and llfi-call superinstructions read
   the budgets and [handler_cost] once per visit, calls the shadow stack. *)
and priv = {
  mutable d_active : (t -> unit) array;
      (* the dispatch table the decoded loop reads: [dprog.d_fused]
         normally; while an Instr_image overlay is armed, the engine's
         fusion-free table ([ff_table]) whose overlaid slot runs the
         mutated instruction (a superinstruction head must never replay a
         stale slot) *)
  mutable d_check : unit -> unit;
      (* the current run's 1024-step poll-slot check, called by decoded
         closures after every retired instruction *)
  mutable d_max_steps : int; (* the current decoded run's budgets, re-tested *)
  mutable d_max_cost : int; (*  by the superinstructions' guards *)
  mutable handlers : (t -> unit) array;
      (* pre-resolved extern dispatch, indexed by image.ext_slot_of_pc *)
  mutable handler_cost : int array;
      (* declared modeled cost per extern slot, parallel to [handlers]
         (rebuilt together) — lets the fi-splice fast path charge a
         skipped selector call exactly *)
  mutable builtins : (t -> unit) option array;
      (* memoized libc/libm handlers per ext slot, reused across resets *)
  mutable sp_struck : bool;
      (* an FI flip ([Mxorbit]) struck rsp or rbp: the run may go on to
         pop stack slots outside the live frames a map-mode handoff
         validates, so such a handoff declines *)
  mutable cs_slots : int array;
      (* shadow call stack: per live [Mcalli] frame, the stack slot that
         holds the pushed return address... *)
  mutable cs_vals : int64 array; (* ...and the value pushed into it *)
  mutable cs_len : int;
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
         engine that needs it builds its own ([Semantics.fusion_free]) *)
  d_super : int array; (* fused sites per idiom, indexed like [idioms] *)
}

let no_check () = ()

(* sentinel return address that terminates the program when popped *)
let sentinel = -1L

(* 4 KiB pages: the granularity of the touched-page map *)
let page_bits = 12
let page_size = 1 lsl page_bits
let num_pages = Mem.mem_size / page_size

(* unaligned 64-bit native-endian access without a bounds check; every
   caller has validated the range first *)
external unsafe_get64 : arena -> int -> int64 = "%caml_bigstring_get64u"
external unsafe_set64 : arena -> int -> int64 -> unit = "%caml_bigstring_set64u"
external bswap64 : int64 -> int64 = "%bswap_int64"

(* --- extern calls ------------------------------------------------------ *)

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
   across resets, so a rebind never re-parses a signature.  Each slot's
   declared modeled cost is recorded alongside its closure: the fi-splice
   fast path retires provably non-firing selector calls without invoking
   the handler and must still charge its cost. *)
let bind_handlers t =
  let names = t.image.L.ext_names and p = t.priv in
  p.handler_cost <-
    Array.init (Array.length names) (fun k ->
        match Hashtbl.find_opt t.ext_extra names.(k) with
        | Some (cost, _) -> cost
        | None -> ext_call_cost);
  p.handlers <-
    Array.init (Array.length names) (fun k ->
        let name = names.(k) in
        match Hashtbl.find_opt t.ext_extra name with
        | Some (cost, fn) ->
          fun (t : t) ->
            t.cost <- t.cost + cost;
            count_ext t cost;
            fn t
        | None -> ( match p.builtins.(k) with Some h -> h | None -> unknown_extern name))

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
  let top = Mem.mem_size - 8 in
  unsafe_set64 t.mem top (if Sys.big_endian then bswap64 sentinel else sentinel);
  Bytes.unsafe_set d (top lsr page_bits) '\001'

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
      fi_mask = 0L;
      overlay_pc = -1;
      overlay_instr = None;
      dprog = None;
      detach_req = false;
      fi_skip = 0;
      fi_pending = 0;
      priv =
        {
          d_active = [||];
          d_check = no_check;
          d_max_steps = max_int;
          d_max_cost = max_int;
          handlers = [||];
          handler_cost = [||];
          builtins = Array.map builtin_handler image.L.ext_names;
          sp_struck = false;
          cs_slots = Array.make 64 0;
          cs_vals = Array.make 64 0L;
          cs_len = 0;
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
  bind_handlers t;
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
   its lifetime instead of one per cell.  Every field the reset contract
   below names as restored gets a fresh engine's value. *)
let reset ?(ext_extra = []) ?snapshot (t : t) : unit =
  let p = t.priv in
  let s = match snapshot with Some s -> s | None -> p.snap in
  if s.s_image != t.image then begin
    (* a property of the image, not of a sample: drop the old image's
       decode; rebind the memoized builtins only for another extern table *)
    if s.s_image.L.ext_names <> t.image.L.ext_names then
      p.builtins <- Array.map builtin_handler s.s_image.L.ext_names;
    t.image <- s.s_image;
    t.dprog <- None
  end;
  p.snap <- s;
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
  (match t.dprog with Some dp -> p.d_active <- dp.d_fused | None -> p.d_active <- [||]);
  p.d_check <- no_check;
  p.d_max_steps <- max_int;
  p.d_max_cost <- max_int;
  t.detach_req <- false;
  p.sp_struck <- false;
  t.fi_skip <- 0;
  t.fi_pending <- 0;
  p.cs_len <- 0;
  Hashtbl.reset t.ext_extra;
  List.iter (fun (name, cost, fn) -> Hashtbl.replace t.ext_extra name (cost, fn)) ext_extra;
  bind_handlers t

let enable_profiling t =
  match t.prof with
  | Some p -> p
  | None ->
    let p = { class_steps = Array.make M.num_iclasses 0; ext_calls = 0; ext_cost = 0 } in
    t.prof <- Some p;
    p

(* --- the reset contract -------------------------------------------------

   Every field of the state, [t]'s and then [priv]'s in declaration order,
   named once as one of two kinds.  A [Restored] field is one [reset]
   gives a fresh [create_from_snapshot]'s value; its test compares two
   engines on it (the kept [dprog] aside, which [d_active] follows).  A
   [Kept] field survives a reset on purpose.  Checkpoints will capture and
   restore along the same list. *)

type field = Restored of (t -> t -> bool) | Kept

let same_ext_extra a b =
  let entries (t : t) =
    List.sort compare (Hashtbl.fold (fun name (cost, _) acc -> (name, cost) :: acc) t.ext_extra [])
  in
  entries a = entries b
  && Hashtbl.fold
       (fun name (_, fn) ok ->
         ok && match Hashtbl.find_opt b.ext_extra name with Some (_, g) -> fn == g | None -> false)
       a.ext_extra true

let t_fields =
  [
    ("image", Restored (fun a b -> a.image == b.image));
    ("regs", Restored (fun a b -> a.regs = b.regs));
    ("mem", Restored (fun a b -> a.mem = b.mem));
    ("pc", Restored (fun a b -> a.pc = b.pc));
    ("steps", Restored (fun a b -> a.steps = b.steps));
    ("cost", Restored (fun a b -> a.cost = b.cost));
    ("status", Restored (fun a b -> a.status = b.status));
    ("heap", Restored (fun a b -> a.heap = b.heap));
    ( "env",
      Restored
        (fun a b ->
          Buffer.contents a.env.out = Buffer.contents b.env.out && a.env.exited = b.env.exited) );
    ("ext_extra", Restored same_ext_extra);
    ("post_hook", Restored (fun a b -> Option.equal ( == ) a.post_hook b.post_hook));
    ("prof", Restored (fun a b -> a.prof = b.prof));
    ("heap_quota", Restored (fun a b -> a.heap_quota = b.heap_quota));
    ("fi_mask", Restored (fun a b -> a.fi_mask = b.fi_mask));
    ("overlay_pc", Restored (fun a b -> a.overlay_pc = b.overlay_pc));
    ("overlay_instr", Restored (fun a b -> a.overlay_instr = b.overlay_instr));
    ("dprog", Kept (* the installed decode: a property of the image, dropped with it *));
    ("detach_req", Restored (fun a b -> a.detach_req = b.detach_req));
    ("fi_skip", Restored (fun a b -> a.fi_skip = b.fi_skip));
    ("fi_pending", Restored (fun a b -> a.fi_pending = b.fi_pending));
    ("priv", Kept (* the private record, whose fields follow *));
  ]

let priv_fields =
  let active (t : t) =
    t.priv.d_active == match t.dprog with Some dp -> dp.d_fused | None -> [||]
  in
  [
    ("d_active", Restored (fun a b -> active a && active b));
    ("d_check", Restored (fun a b -> a.priv.d_check == b.priv.d_check));
    ("d_max_steps", Restored (fun a b -> a.priv.d_max_steps = b.priv.d_max_steps));
    ("d_max_cost", Restored (fun a b -> a.priv.d_max_cost = b.priv.d_max_cost));
    (* closures built afresh by every bind; what they charge is [handler_cost] *)
    ( "handlers",
      Restored (fun a b -> Array.length a.priv.handlers = Array.length b.priv.handlers) );
    ("handler_cost", Restored (fun a b -> a.priv.handler_cost = b.priv.handler_cost));
    ("builtins", Kept (* memoized per extern table, so signatures are parsed once *));
    ("sp_struck", Restored (fun a b -> a.priv.sp_struck = b.priv.sp_struck));
    ("cs_slots", Kept (* shadow-stack storage: only [cs_len] entries are live *));
    ("cs_vals", Kept);
    ("cs_len", Restored (fun a b -> a.priv.cs_len = b.priv.cs_len));
    ("dirty", Restored (fun a b -> Bytes.equal a.priv.dirty b.priv.dirty));
    ("snap", Restored (fun a b -> a.priv.snap == b.priv.snap));
    ("ff_table", Kept (* the fusion-free table, kept until the decode changes *));
    ("ff_src", Kept);
    ("ov_slot", Restored (fun a b -> a.priv.ov_slot = b.priv.ov_slot));
    ("ov_saved", Kept (* read only while [ov_slot] names a slot *));
  ]

(* The restored fields on which [a] and [b] differ, and a line for each
   record with a field the lists above do not name. *)
let unrestored (a : t) (b : t) =
  let unnamed what block names =
    let n = Obj.size (Obj.repr block) and k = List.length names in
    if n = k then [] else [ Printf.sprintf "%s has %d fields, the contract names %d" what n k ]
  in
  unnamed "t" a t_fields
  @ unnamed "priv" a.priv priv_fields
  @ List.filter_map
      (function name, Restored same when not (same a b) -> Some name | _ -> None)
      (t_fields @ priv_fields)
