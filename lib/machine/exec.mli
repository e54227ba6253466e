(** Architectural simulator for SX64 images — the substitute for the
    paper's physical Xeon nodes.

    Executes machine code against an architectural state (register file,
    FLAGS, byte-addressable memory, downward stack) and reports the
    observable outcome: output, exit code, or a trap.  Injected faults land
    in this state and propagate, mask, or crash exactly as the paper's
    fault model intends.

    Cost model (DESIGN.md §6): 1 unit per instruction, per-extern call
    costs, plus {!field:hook_cost} per instruction while a DBI-style hook
    is attached.

    Fast path (DESIGN.md §14): step/cost counters are plain unboxed [int]
    fields, FLAGS writes index a preallocated table, and extern calls
    dispatch through a per-engine handler array resolved once from the
    image's [ext_slot_of_pc] table.  The per-instruction execute path
    allocates nothing when profiling is off.

    Touched-page memory (DESIGN.md §14): a {!snapshot} holds only an
    image's initialized globals region.  Each engine owns one
    [Memlayout.mem_size] arena and a private map with one flag per 4 KiB
    page, set by every write the machine makes.  {!reset} zeroes the
    flagged pages and reloads a snapshot (the engine's own, or another
    binary's), so one arena serves a worker domain's every sample and
    cell; the detach handoff copies only flagged pages. *)

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
(** A pre-decoded program (DESIGN.md §19): one closure per code slot with
    operands, flag-word ops, branch targets and extern slots resolved at
    decode time, plus a parallel table where the hot MinC idioms
    (compare-branch, load-op-store, loop-back-edge) are fused into
    superinstructions.  Immutable and engine-free: one [dprogram] is
    decoded per snapshot (content-addressed by the campaign layer) and
    shared read-only by every engine and domain executing that image.
    Superinstructions retire their constituents' step/cost/profile counts
    individually and re-test the run loop's budget condition between
    constituents, so decoded execution is bit-identical to the {!step}
    loop — the invariant the differential qcheck suite asserts. *)

type priv
(** Engine-private state: the touched-page map and the snapshot {!reset}
    restores.  Opaque outside this module. *)

type t = {
  mutable image : Refine_backend.Layout.image;
      (** the binary being executed; rebound only by {!reset} onto another
          binary's snapshot *)
  regs : int64 array;  (** [Reg.num_regs] raw images: GPRs, FPRs, FLAGS *)
  mem : Bytes.t;
      (** the [Memlayout.mem_size] arena.  Read-only outside this module:
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
  mutable post_hook : (t -> int -> Refine_mir.Minstr.t -> unit) option;
      (** PINFI-style DBI: called after every executed instruction with the
          pre-execution pc and the instruction *)
  mutable hook_cost : int;  (** extra cost per instruction while attached *)
  mutable prof : profile option;  (** executor profiling; [None] = zero-cost path *)
  mutable heap_quota : int;
      (** sandbox heap quota in bytes above the image's heap base;
          [max_int] = unlimited.  Set by {!run}'s [heap_quota] argument. *)
  mutable handlers : (t -> unit) array;
      (** pre-resolved extern dispatch, indexed by the image's
          [ext_slot_of_pc] slots; rebuilt by {!reset}.  Internal. *)
  mutable builtins : (t -> unit) option array;
      (** memoized libc/libm handlers per extern slot, reused across
          {!reset}s so signatures are parsed once per engine.  Internal. *)
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
  mutable d_active : (t -> unit) array;
      (** live dispatch table: the fused table normally, the fusion-free
          single-instruction table while an Instr_image overlay is armed
          (a superinstruction spanning the overlaid pc would execute the
          pristine encoding).  Internal. *)
  mutable d_overlay : (t -> unit) option;
      (** decoded form of the overlay instruction at [overlay_pc], built
          by {!set_overlay} and cleared by {!reset}.  Internal. *)
  mutable d_check : unit -> unit;
      (** the active run's poll-slot check, installed for the duration of
          a decoded {!run} so superinstruction constituents can self-check
          at 1024-step boundaries.  Internal. *)
  mutable d_max_steps : int;  (** active decoded-run step budget.  Internal. *)
  mutable d_max_cost : int;  (** active decoded-run cost budget.  Internal. *)
  mutable detach_req : bool;
      (** raised by the FI control library once the single injection has
          retired; {!run} hands off to the detach plan's golden engine at
          the next poll slot (DESIGN.md §20).  Cleared by {!reset}. *)
  mutable sp_struck : bool;
      (** an FI flip ([Mxorbit]) struck rsp or rbp: the rest of the run may
          pop stack slots outside the live frames the shadow call stack
          validates, so a map-mode handoff declines.  Cleared by {!reset}.
          Internal. *)
  mutable handler_cost : int array;
      (** declared modeled cost per extern slot, parallel to [handlers]
          and rebuilt with them — the fi-splice fast path charges a
          skipped selector call exactly.  Internal. *)
  mutable fi_sel_skip : int;
      (** FI-selector fast-path window (DESIGN.md §20): number of
          upcoming [fi_sel_instr] calls that are provably non-firing.
          Published by the REFINE control library after each real
          selector call; consumed one per splice by the fused fi-splice
          superinstruction, which retires the whole splice without
          entering the library.  [0] (default) = every call dispatches
          to the handler.  Cleared by {!reset}. *)
  mutable fi_sel_pending : int;
      (** selector calls the fast path retired since the library last
          ran; folded back into the control counter on the next real
          call or by [Runtime.absorb] after the run.  Cleared by
          {!reset}. *)
  mutable cs_slots : int array;
      (** shadow call stack: per live [Mcalli] frame, the stack slot
          holding the pushed return address — handoff-time validation and
          translation data.  Internal. *)
  mutable cs_vals : int64 array;  (** the value pushed into each slot.  Internal. *)
  mutable cs_len : int;  (** live shadow-stack depth.  Internal. *)
  priv : priv;
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
      (** the run handed off to its detach plan's golden engine after the
          injection retired (DESIGN.md §20) *)
  drain_steps : int;
      (** instructions single-stepped to reach an original-instruction
          boundary before the handoff (0 unless [detached] with a
          correspondence map) *)
}

type handoff_map = {
  h_rank : int array;
      (** instrumented pc -> golden pc; [-1] for spliced (inserted) pcs *)
  h_next : int array;
      (** length [n+1]: golden pc of the first original instruction at or
          after each instrumented pc — return-address translation *)
}
(** Correspondence between an instrumented image and its golden twin, in
    the executor's terms (built by [Fimap] in the backend). *)

type detach_plan = {
  plan_target : unit -> t;
      (** builds (or fetches from a cache) the golden engine to continue
          on: reset, decoded with the attached-equivalent cost weights,
          application externs bound *)
  plan_map : handoff_map option;
      (** [Some] = golden-snapshot coordinates (drain + translate);
          [None] = overlay-fallback target sharing the instrumented
          image's coordinates (plain state copy) *)
}
(** Post-injection handoff plan, built per sample by the campaign layer
    when the tool and fault model are eligible (DESIGN.md §20). *)

exception Detach_signal
(** Internal: raised by the poll-slot check to unwind the engine loop when
    [detach_req] is up and a plan is armed.  Never escapes {!run}. *)

val create : ?ext_extra:(string * int * (t -> unit)) list -> Refine_backend.Layout.image -> t
(** Fresh machine state: globals initialized, stack holding the sentinel
    return address, pc at the image entry.  Not bound to a snapshot: a
    plain {!reset} raises, a {!reset} with [~snapshot] binds one. *)

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
(** Like {!create}, but bound to the snapshot, so the engine supports
    {!reset}.  Allocates the engine's zeroed arena and loads the
    snapshot's globals and the sentinel into it. *)

val reset : ?ext_extra:(string * int * (t -> unit)) list -> ?snapshot:snapshot -> t -> unit
(** Restore the pristine post-loader state: zero the pages the machine
    flagged since the last reset, write the snapshot's globals and the
    sentinel back, zero the registers, re-seat sp/pc/heap, clear the
    output buffer, drop hooks/profiling/quotas/overlay, and rebind the
    extern handlers against [ext_extra].

    [snapshot] (default: the engine's own) moves the engine onto another
    snapshot, which it stays bound to.  When that snapshot's image differs
    from the engine's, the image and the memoized builtins are rebound and
    the installed decode is dropped ({!install_decoded} the new image's).

    A reset engine is bit-identical to a fresh {!create_from_snapshot} of
    the same snapshot (asserted by the differential property tests).
    Raises [Invalid_argument] on a {!create} engine when [snapshot] is
    omitted. *)

val store64 : t -> int -> int64 -> unit
(** [store64 t addr v]: the machine's checked 64-bit little-endian store,
    for FI runtime handlers that write simulated memory (nothing outside
    this module may write {!field:mem} directly).  Flags the touched pages.
    An address outside [[Memlayout.null_guard, Memlayout.mem_size - 8]]
    ends the running {!run} [Trapped (Mem_fault addr)]; call it only from
    an extern handler during a run. *)

val step : t -> unit
(** Execute one instruction (or set a trap status). *)

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
    [Illegal_instr]).  The shared image code is never written; {!reset}
    clears the overlay.  [Invalid_argument] if [pc] is outside the code
    image. *)

val enable_profiling : t -> profile
(** Attach (or return the already-attached) executor profile.  The record
    is updated in place as the machine runs. *)

(** {1 Pre-decoded engine (DESIGN.md §19)} *)

val decode : ?cost_of:int array -> Refine_backend.Layout.image -> dprogram
(** Decode every instruction of [image] into a dispatch closure and fuse
    superinstructions over the hot idioms.  Pure per image: the campaign
    layer decodes each prepared binary once and keeps the result on its
    [Tool.prepared] record, so the engines it hands out never re-decode.

    [cost_of] (DESIGN.md §20): per-pc modeled cost weights, one entry per
    code slot ([Invalid_argument] on a length mismatch; default weight 1
    everywhere).  Detach targets are decoded with the correspondence map's
    weights so a detached run charges the same modeled cost the attached
    run would have — batched superinstruction retirement and closed-form
    loop burn scale their budget-edge math by the constituent weights and
    stay constituent-exact. *)

val install_decoded : t -> dprogram option -> unit
(** Attach ([Some dp]) or detach ([None]) a decoded program.  [dp] must
    have been built from the engine's own image ([Invalid_argument]
    otherwise — decoded closures bake that image's class and extern-slot
    tables).  With a program installed, {!run} uses threaded dispatch
    over the decoded closure table (falling back to {!step} per
    instruction while a [post_hook] is attached, and routing the
    Instr_image overlay pc through the overlay decode); without one,
    {!run} drives {!step} in a loop — the reference semantics. *)

val decoded : t -> bool
(** Whether a decoded program is installed. *)

val idioms : string array
(** Superinstruction idiom names, in {!superinstr_counts} index order:
    [[|"cmp-branch"; "load-op-store"; "loop-back"; "fi-splice"|]].
    ["fi-splice"] is the REFINE instrumentation splice fused into one
    closure on plain (unweighted) images, so an attached instrumented run
    pays roughly one dispatch per candidate instead of seven
    (DESIGN.md §20). *)

val superinstr_counts : dprogram -> int array
(** Static fusion sites per idiom (indexed like {!idioms}) — the feed for
    the [refine_decoded_superinstr_total] metric. *)

val decoded_image : dprogram -> Refine_backend.Layout.image
(** The image this program was decoded from (physical identity is the
    {!install_decoded} compatibility check). *)

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
    [detach_req] (the injection has retired), the next poll slot hands
    execution off to [plan_target]'s golden engine — with a map the run
    first drains to an original-instruction boundary and validates /
    rewrites live return addresses through the shadow call stack; without
    one the coordinates are shared and the handoff is a state copy.  Memory
    moves page by page: only the pages either engine flagged are copied.  Any
    validation failure declines the handoff and the run continues
    attached; the handoff is attempted at most once per call.  [detached]
    and [drain_steps] in the result report what happened. *)
