(** Architectural simulator for SX64 images — the substitute for the
    paper's physical Xeon nodes.

    Executes machine code against an architectural state (register file,
    FLAGS, byte-addressable memory, downward stack) and reports the
    observable outcome: output, exit code, or a trap.  Injected faults land
    in this state and propagate, mask, or crash exactly as the paper's
    fault model intends.

    Cost model (DESIGN.md §6): 1 unit per instruction, per-extern call
    costs, plus the attached {!hook}'s [hook_cost] per instruction while a
    DBI-style hook is attached.  Hook cost is charged before the
    instruction runs, by {!step} and by the decoded loop's hooked path
    alike, so a trapping instruction pays it.

    Fast path (DESIGN.md §14): step/cost counters are plain unboxed [int]
    fields and extern calls dispatch through a per-engine handler array
    resolved once from the image's [ext_slot_of_pc] table, so the
    per-instruction accounting allocates nothing when profiling is off.

    Off-heap machine state (DESIGN.md §14): both the register file and
    the memory arena live outside the OCaml heap.  {!field:regs} is an
    int64 Bigarray, so the decoded engine stores a computed register
    value raw and allocates nothing per instruction.  {!field:mem} is a
    private mapping of [/dev/zero], so a fresh engine costs no resident
    memory until the machine writes a page, and its mapping is released
    when the engine is collected.

    Touched-page memory (DESIGN.md §14): a {!snapshot} holds only an
    image's initialized globals region.  Each engine owns one
    [Memlayout.mem_size] arena and a private map with one flag per 4 KiB
    page, set by every write the machine makes.  {!reset} zeroes the
    flagged pages and reloads a snapshot (the engine's own, or another
    binary's), so one arena serves a worker domain's every sample and
    cell.  The detach handoff moves no memory: it switches the running
    engine onto its target's code in place (DESIGN.md §20). *)

val ext_call_cost : int
(** Default modeled cost of a libc/libm extern call (25 units). *)

type trap =
  | Mem_fault of int
  | Div_by_zero
  | Bad_pc of int
  | Stack_overflow
  | Out_of_memory
  | Extern_fault of string
  | Output_quota of int  (** sandbox: output exceeded the byte quota *)
  | Heap_quota of int  (** sandbox: heap grew past the byte quota *)
  | Wall_clock of float  (** sandbox: real-time deadline (seconds) expired *)
  | Livelock  (** sandbox: architectural state fingerprint repeated *)
  | Illegal_instr of int
      (** the Instr_image fault model corrupted the code slot at this pc
          into an encoding that no longer decodes; fetching it traps *)

val string_of_trap : trap -> string

type status = Running | Exited of int | Trapped of trap | Timed_out

type profile = {
  class_steps : int array;
      (** executed instructions per opcode class, indexed by
          {!Refine_mir.Minstr.iclass_index} *)
  mutable ext_calls : int;  (** extern (runtime-library/libc) calls made *)
  mutable ext_cost : int;  (** modeled cost charged by those calls *)
}
(** Executor profile, attached by {!enable_profiling}.  Plain machine-local
    unboxed cells: the per-instruction overhead is one [option] match when
    off and two int array ops when on; the owner flushes the totals into
    the observability registry after the run (DESIGN.md §12). *)

type dprogram
(** A pre-decoded program (DESIGN.md §19): a dispatch table with one entry
    per code slot — a closure specialized to the slot's instruction, with
    operands, flag-word ops, branch targets and extern slots resolved at
    decode time, except on REFINE's splices, whose slots all share one
    closure that interprets the instruction — where the head of each
    REFINE splice and each LLFI call group holds a superinstruction (see
    {!idioms}), plus each head's own decode, from which an engine that
    must dispatch fusion-free (a hooked run, an Instr_image overlay)
    builds its own fusion-free table.  A closure takes its pc from the
    engine, so slots holding the same instruction at the same cost weight
    share one closure ([Mcalli] aside, which keeps its slot's return
    address).  Immutable and engine-free: one [dprogram] is decoded per
    snapshot (content-addressed by the campaign layer) and shared
    read-only by every engine and domain executing that image.
    A superinstruction retires its group in one batch only inside the FI
    library's skip window and when no poll slot or budget edge falls
    inside it, and otherwise runs its head's single decode, so decoded
    execution is bit-identical to the {!step} loop — the invariant the
    differential qcheck suite asserts. *)

type priv
(** Engine-private state, opaque outside the engine: the live dispatch
    table and the active run's poll-slot check and budgets, the extern
    calls' closures with their costs and the memoized libc/libm bindings,
    the shadow call stack the detach handoff validates, whether a flip
    struck rsp or rbp, the touched-page map, the snapshot {!reset}
    restores and the engine's fusion-free dispatch table. *)

type regfile = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t
type arena = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  mutable image : Refine_backend.Layout.image;
      (** the binary being executed; rebound by {!reset} onto another
          binary's snapshot, and by {!run}'s detach handoff onto its
          target's image *)
  regs : regfile;
      (** [Reg.num_regs] raw 64-bit images, unboxed: GPRs, FPRs (IEEE
          bits), FLAGS *)
  mem : arena;
      (** the [Memlayout.mem_size] arena, a private [/dev/zero] mapping
          whose pages are committed as the machine first writes them;
          8-byte cells are little-endian.  Read-only outside this module:
          {!reset} restores only pages the machine itself flagged, so a
          write that bypasses {!store64} / {!flip_mem_bit} would survive
          into the next sample. *)
  mutable pc : int;
  mutable steps : int;  (** unboxed; 63 bits is ample for any modeled budget *)
  mutable cost : int;
  mutable status : status;
  mutable heap : int;
  env : Refine_ir.Externs.env;
  ext_extra : (string, int * (t -> unit)) Hashtbl.t;
      (** FI runtime library: name -> (modeled cost, handler) *)
  mutable post_hook : hook option;
      (** PINFI-style DBI.  While [Some], every instruction is charged the
          hook's cost before it runs, and the hook is called after each
          instruction that did not trap at a pc it declares — by {!step}
          always, and by the decoded loop unless the skip window
          ({!field:fi_skip}) retires the visit.  Setting [None] detaches
          hook, cost and declaration together. *)
  mutable prof : profile option;  (** executor profiling; [None] = zero-cost path *)
  mutable heap_quota : int;
      (** sandbox heap quota in bytes above the image's heap base;
          [max_int] = unlimited.  Set by {!run}'s [heap_quota] argument. *)
  mutable fi_mask : int64;
      (** pending multi-bit FI mask: when nonzero, the next [Mxorbit] /
          [Mxorbitmem] applies this XOR mask instead of its single-bit
          flip, then clears it.  Set by the REFINE control library for the
          Multi_bit fault model (DESIGN.md §18); cleared by {!reset}. *)
  mutable overlay_pc : int;
      (** Instr_image corruption overlay: engine-local view of one mutated
          code slot ([-1] = none).  The shared [image.code] array is never
          written, so snapshots and sibling engines stay pristine. *)
  mutable overlay_instr : Refine_mir.Minstr.t option;
      (** the mutated instruction at [overlay_pc]; [None] = the corrupted
          encoding no longer decodes, so fetching it traps
          [Illegal_instr]. *)
  mutable dprog : dprogram option;
      (** installed decoded program; [None] = the {!step} loop.  Set via
          {!install_decoded}; survives {!reset} (the decode is a property
          of the image, not of a sample). *)
  mutable detach_req : bool;
      (** raised by the FI control library once the single injection has
          retired; {!run} switches onto the detach plan's target at
          the next poll slot (DESIGN.md §20).  Cleared by {!reset}. *)
  mutable fi_skip : int;
      (** The FI skip window (DESIGN.md §20): number of upcoming FI
          library visits that are provably non-firing — REFINE
          [fi_sel_instr] calls, LLFI [llfi_inject_*] calls, or calls of
          the attached hook at a pc it declares.  Published by the FI
          control library after each real visit (and by PINFI's and
          opcode corruption's hooks at attach); consumed one per visit by
          the decoded engine — the fused fi-splice and llfi-call
          superinstructions and the hooked dispatch loop — which retires
          the visit without entering the library.  {!step} never reads
          it.  [0] (default) = every visit enters the library.  Cleared
          by {!reset}. *)
  mutable fi_pending : int;
      (** visits the window retired since the library last ran; folded
          back into the control counter on the next real visit or by
          [Runtime.absorb] after the run.  Cleared by {!reset}. *)
  priv : priv;
}

and hook = {
  on_instr : t -> int -> Refine_mir.Minstr.t -> unit;
      (** called after each executed instruction that did not trap, at a
          pc [hook_pcs] declares, with the pre-execution pc and the
          instruction *)
  hook_cost : int;  (** extra modeled cost per instruction while attached *)
  hook_pcs : bool array;
      (** one flag per code slot of the engine's image: the pcs the hook
          observes.  The decoded loop calls [on_instr] nowhere else, so
          undeclared pcs run at decoded speed (paying only [hook_cost]). *)
}

type result = {
  status : status;
  output : string;
  steps : int64;
  cost : int64;
  truncated : bool;
      (** the output was cut at the output quota — classification must
          never report it as a golden match *)
  detached : bool;
      (** the run switched onto its detach plan's target after the
          injection retired (DESIGN.md §20) *)
  drain_steps : int;
      (** instructions single-stepped to reach an original-instruction
          boundary before the handoff *)
}

type handoff_map = Refine_backend.Fimap.handoff = {
  h_pcs : int array;
      (** ascending instrumented pcs, the first 0: where each piece of the
          correspondence starts; the last piece starts at the image
          length *)
  h_ranks : int array;
      (** per piece: the golden pc of its first pc, its later pcs mapping
          to the golden pcs that follow, or [-1] for a piece without a
          golden counterpart (inside splices) *)
}
(** Correspondence between an instrumented image and its golden twin
    (built by [Fimap] in the backend), sized by the splices: about two
    pieces per splice, not an entry per code slot.  The handoff looks up
    the pc's golden rank ([Refine_backend.Fimap.rank]) and each live
    return address's first golden pc at or after it
    ([Refine_backend.Fimap.next]) by binary search. *)

type detach_plan = {
  plan_prog : dprogram;
      (** the target's decode, built with the attached-equivalent cost
          weights from an image that shares the engine's extern table and
          heap base ({!run} checks both) *)
  plan_map : handoff_map;
      (** pc and return-address translation into the target's
          coordinates (drain, validate, translate) *)
}
(** Post-injection handoff plan (plain data), armed per sample by the
    campaign layer when the tool and fault model are eligible (DESIGN.md
    §20): REFINE's golden twin and its correspondence map. *)

val create : ?ext_extra:(string * int * (t -> unit)) list -> Refine_backend.Layout.image -> t
(** [create_from_snapshot (snapshot image)]: fresh machine state, globals
    initialized, stack holding the sentinel return address, pc at the
    image entry. *)

type snapshot
(** An image's initialized globals region, [[globals_base, heap_base)]
    (104 bytes for EP, 25 KB for DC), computed once per prepared program
    and shared read-only by every engine loaded from it.  The rest of a
    pristine arena is zero apart from the stack-top sentinel return
    address. *)

val snapshot : Refine_backend.Layout.image -> snapshot
(** Compute the initialized globals region once, instead of per sample. *)

val create_from_snapshot :
  ?ext_extra:(string * int * (t -> unit)) list -> snapshot -> t
(** An engine bound to the snapshot, which a plain {!reset} restores.
    Maps the engine's arena and loads the snapshot's globals and the
    sentinel into it: only those pages become resident, not the whole
    [Memlayout.mem_size]. *)

val reset : ?ext_extra:(string * int * (t -> unit)) list -> ?snapshot:snapshot -> t -> unit
(** Restore the pristine post-loader state: zero the pages the machine
    flagged since the last reset, write the snapshot's globals and the
    sentinel back, zero the registers, re-seat sp/pc/heap, clear the
    output buffer, drop hooks/profiling/quotas/overlay, and rebind the
    extern calls against [ext_extra].

    [snapshot] (default: the engine's own) moves the engine onto another
    snapshot, which it stays bound to.  When that snapshot's image differs
    from the engine's (also after a detach handoff), the image is rebound
    and the installed decode is dropped ({!install_decoded} the new
    image's); the memoized libc/libm bindings are rebuilt only for
    another extern table.

    A reset engine is bit-identical to a fresh {!create_from_snapshot} of
    the same snapshot (asserted by the differential property tests), on
    every field {!unrestored} compares. *)

val unrestored : t -> t -> string list
(** The reset contract.  Every field of the engine state, [t]'s and its
    private record's, is named once as one of two kinds: restored by
    {!reset} to a fresh engine's value, or kept on purpose (the installed
    decode, the memoized libc/libm bindings, the fusion-free table, the
    shadow-stack arrays).  [unrestored a b] names the restored fields on
    which [a] and [b] differ, and reports a record that has a field the
    contract does not name.  For an engine [a] reset onto a snapshot and a fresh engine
    [b] of that snapshot with the same decode installed it is [[]]. *)

val store64 : t -> int -> int64 -> unit
(** [store64 t addr v]: the machine's checked 64-bit little-endian store,
    for FI runtime library functions that write simulated memory
    (nothing outside this module may write {!field:mem} directly).  Flags
    the touched pages.
    An address outside [[Memlayout.null_guard, Memlayout.mem_size - 8]]
    ends the running {!run} [Trapped (Mem_fault addr)]; call it only from
    an extern handler during a run. *)

val step : t -> unit
(** Execute one instruction (or set a trap status): the reference
    semantics.  Charges an attached hook's cost first and calls the hook
    after the instruction at a pc it declares unless the instruction
    trapped; it never reads the skip window. *)

val flip_mem_bit : t -> addr:int -> bit:int -> unit
(** XOR one bit of one data-memory byte — the Mem_cell fault model's
    mutation (the touched page is flagged like any other write).
    [Invalid_argument] if [addr] is outside
    [[Memlayout.null_guard, Memlayout.mem_size)] or [bit] outside [0, 7]:
    callers draw the cell from the initialized image, so an out-of-range
    address is a harness defect, not a machine trap. *)

val set_overlay : t -> pc:int -> Refine_mir.Minstr.t option -> unit
(** Install the Instr_image corruption overlay at [pc] ([None] = the
    mutated encoding is illegal; executing that slot traps
    [Illegal_instr]).  The shared image code is never written: a decoded
    engine switches to its own fusion-free table whose slot [pc] runs the
    mutated instruction.  The engine keeps that table until its decode
    changes ({!reset} and a later overlay put the slot's own decode back),
    so an overlay on a warm engine allocates no table.  {!reset} clears
    the overlay.  [Invalid_argument] if [pc] is outside the code image. *)

val enable_profiling : t -> profile
(** Attach (or return the already-attached) executor profile.  The record
    is updated in place as the machine runs. *)

(** {1 Pre-decoded engine (DESIGN.md §19)} *)

val decode : ?cost_of:int array -> Refine_backend.Layout.image -> dprogram
(** Decode every instruction of [image] into a dispatch closure and fuse
    a superinstruction at the head of each REFINE splice and each LLFI
    call group ({!idioms}).  Pure per image: the campaign
    layer decodes each prepared binary once and keeps the result on its
    [Tool.prepared] record, so the engines it hands out never re-decode.

    A decoded closure runs as the slot at the engine's pc: it moves the pc
    on from there and, only while profiling, reads that slot's opcode
    class off the image; a superinstruction reads its constituents'
    classes the same way.  So the decode builds one closure per distinct
    (instruction, cost weight) and every slot holding it shares it; an
    [Mcalli] alone keeps a closure of its own, holding its return address
    as a constant so that a call allocates nothing.

    [cost_of] (DESIGN.md §20): per-pc modeled cost weights, one entry per
    code slot ([Invalid_argument] on a length mismatch; default weight 1
    everywhere).  Detach targets are decoded with the correspondence map's
    weights so a detached run charges the same modeled cost the attached
    run would have.  Each weighted slot gets the fast closure of its
    form, which charges the weight only if the slot retires with the run
    still going (a trap or the run's end charges 1), as the {!step}
    reference does.  A weighted image has no superinstructions.

    On a plain image (no [cost_of]) every splice of
    [Refine_backend.Fimap.splices] is fused into one ["fi-splice"]
    superinstruction, and every slot of the splice, from its [Mpush r0] to
    its [Mpop r0], maps to one interpreter closure that all decodes share
    and heads no superinstruction: inside the skip window the
    fi-splice retires the whole non-firing splice, so its slots run singly
    only on a sample's first and firing selector visits, where the
    fi-splice's guard declines (near a poll slot or budget edge, when it
    runs the interpreter from the head), and on the fire path, at most
    once per sample. *)

val install_decoded : t -> dprogram option -> unit
(** Attach ([Some dp]) or detach ([None]) a decoded program.  [dp] must
    have been built from the engine's own image ([Invalid_argument]
    otherwise — decoded closures bake that image's extern slots and code
    length, and read its class table).  Installing the program already
    installed is a no-op.  With a program installed, {!run} uses threaded
    dispatch over the decoded closure table (the engine's fusion-free
    table, with the hook charged and called around it, while a
    [post_hook] is attached); without one, {!run} drives {!step} in a
    loop — the reference semantics. *)

val decoded : t -> bool
(** Whether a decoded program is installed. *)

val dispatch_table : t -> (t -> unit) array
(** The engine's live dispatch table, one closure per code slot: the
    installed decode's fused table, or, while an Instr_image overlay is
    armed, the engine's own fusion-free table ([[||]] without a decode).
    For inspection only, such as checking which slots share a closure;
    the engine owns the array, and a write to it changes what it runs. *)

val idioms : string array
(** Superinstruction idiom names, in {!superinstr_counts} index order:
    [[|"fi-splice"; "llfi-call"|]].  ["fi-splice"] is a REFINE
    instrumentation splice, as [Refine_backend.Fimap.splices] parses it, and ["llfi-call"] an LLFI
    call group ([Mmov (r1, #id); Mmov (arg, x); Mcallext name; Mmov (d,
    ret)] for a callee of [Refine_backend.Fimap.llfi_calls]); both are
    fused into one closure on plain (unweighted) images only, so inside
    the FI library's skip window an attached instrumented run pays one
    dispatch per instrumented site instead of four to seven (DESIGN.md
    §20). *)

val superinstr_counts : dprogram -> int array
(** Static fusion sites per idiom (indexed like {!idioms}) — the feed for
    the [refine_decoded_superinstr_total] metric. *)

val run :
  ?max_steps:int64 ->
  ?max_cost:int64 ->
  ?output_quota:int ->
  ?heap_quota:int ->
  ?wall_clock:float ->
  ?clock:(unit -> float) ->
  ?livelock:int ->
  ?poll:(unit -> unit) ->
  ?detach:detach_plan ->
  t ->
  result
(** Run to completion, trap, or budget exhaustion ([Timed_out]).
    [max_cost] is the paper's 10x-profiling timeout measure.  [poll] is
    called every 1024 executed instructions; an exception it raises (e.g.
    {!Refine_support.Supervisor.Cancelled} from a cancellation token)
    propagates to the caller, aborting the run — the cooperative kill
    mechanism used by campaign watchdogs.

    Sandbox quotas (DESIGN.md §13), all unlimited by default:
    [output_quota] caps output bytes (the returned output is truncated to
    the quota and [truncated] set, and the run ends [Trapped (Output_quota
    _)]); [heap_quota] caps heap growth above the image's heap base
    ([Trapped (Heap_quota _)]); [wall_clock] is a real-time deadline in
    seconds measured with [clock] (default [Sys.time]) from the start of
    the call ([Trapped (Wall_clock _)]); [livelock] fingerprints the
    architectural state every that many steps (rounded up to a multiple of
    1024) and traps [Livelock] on an exact repeat within the last 256
    fingerprints — the fingerprint ring is only allocated when the
    detector is armed.

    [detach] (DESIGN.md §20): when the FI control library raises
    [detach_req] (the injection has retired), the next poll slot switches
    the engine onto [plan_prog] in place; registers, memory, counters,
    output and profile stay.  The run first drains to an
    original-instruction boundary, then validates and rewrites the pc and
    live return addresses (shadow call stack) into twin coordinates
    through [plan_map], declining if the fault struck rsp or rbp or an
    overlay is armed.  Any validation failure declines the handoff and
    the run continues attached; the handoff is attempted at most once per
    call.  [detached] and [drain_steps] in the result report what
    happened.  [Invalid_argument] if [plan_prog]'s image does not share
    the engine's extern table and heap base. *)
