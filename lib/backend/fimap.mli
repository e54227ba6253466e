(** The golden twin of a REFINE-instrumented image, read off the image
    itself, and its correspondence map — the backend metadata behind
    post-injection detach (DESIGN.md §20) — plus LLFI's runtime-call
    convention, which the decoder and the LLFI control library share.

    The REFINE pass only inserts splices after candidate instructions, so
    the application's instruction stream is exactly the stream of the
    clean binary (paper §4.2.2).  [extract] parses the splices (each is
    anchored by its [Mcallext "fi_sel_instr"], a name application code can
    never call), drops them and translates branch targets into the twin's
    coordinates; an image whose splices do not parse yields [None], never
    a wrong map.  [build] is the test oracle of that claim: the extraction
    must equal a separately compiled FI-free image. *)

type splice = {
  sp_cand : int;  (** pc of the candidate (original) instruction *)
  sp_start : int;  (** first spliced pc: the PreFI [Mpush r0] *)
  sp_end : int;  (** last spliced pc: the PostFI [Mpop r0] *)
  sp_flags : bool;
      (** the splice saves FLAGS: [Mpushf] after the PreFI push, [Mpopf]
          before the PostFI pop *)
}

val splices : Layout.image -> splice list option
(** Every REFINE splice of the image, in pc order (none for an image
    without [fi_sel_instr] calls); [None] when any of them does not parse.
    The one splice parser: {!extract} drops these splices, and
    [Exec.decode] fuses each into one superinstruction (DESIGN.md §19). *)

type handoff = {
  h_pcs : int array;
      (** ascending instrumented pcs, the first 0: where each piece of the
          correspondence starts.  A piece runs up to the next one's start;
          the last starts at the image length and has no counterpart. *)
  h_ranks : int array;
      (** per piece: the twin pc of its first pc, the piece's later pcs
          mapping to the twin pcs that follow it, or [-1] when the piece
          has no counterpart (a splice's inserted pcs, except the start of
          a call-site candidate's splice, which maps to its collapsed
          [Mjmp]) *)
}
(** The instrumented-pc -> twin-pc correspondence, sized by the splices:
    a REFINE image alternates runs of original code with dropped
    splices, so it has two pieces per splice (plus the code before the
    first splice and the end piece) instead of an entry per code slot.  [Exec] uses it, through {!rank} and {!next}, to
    drain, validate and translate a detach handoff. *)

val rank : handoff -> int -> int
(** The twin pc of an instrumented pc, or [-1] when it has none
    (including every pc outside the image).  A binary search over the
    pieces. *)

val next : handoff -> int -> int
(** The twin pc of the first mapped instrumented pc at or after [pc]
    ([-1] when none follows, from the image length on, and for a
    negative [pc]) — return-address translation for live frames. *)

type t = {
  handoff : handoff;  (** the instrumented -> twin correspondence *)
  cost_w : int array;
      (** per twin pc: attached-equivalent modeled cost weight, fed to
          [Exec.decode]'s [cost_of] — 1 for plain instructions, 1 + the
          non-firing splice cost at candidate pcs, and the splice cost on
          a call-site candidate's collapsed [Mjmp], so the return edge
          pays it where the attached run does *)
  splices : splice list;
}

val extract : lib_call_cost:int -> Layout.image -> (Layout.image * t) option
(** [extract ~lib_call_cost instrumented] is the golden twin — every
    splice dropped, except that a call-site candidate's splice collapses
    into one [Mjmp] at the splice start; branch targets and the per-pc
    tables re-indexed — with its correspondence map.  [lib_call_cost] is
    the modeled cost of one [fi_sel_instr] call (the caller passes
    [Fi_cost.refine_lib_call]).  [None] when the splices do not parse. *)

val map_eligible : Layout.image -> bool
(** The splices parse: {!extract} yields a twin. *)

val build : lib_call_cost:int -> Layout.image -> Layout.image -> t option
(** [build ~lib_call_cost instrumented golden]: the map of {!extract} when
    the extracted twin equals [golden] (code, entry and heap base) — the
    §4.2.2 check against an FI-free compile of the same source.  [None]
    otherwise, including for images with call-site candidates, whose
    twin holds one extra [Mjmp] per such splice. *)

val llfi_calls : (string * Refine_mir.Reg.t * Refine_mir.Reg.t) list
(** LLFI's injectFault callbacks as [(name, arg, ret)]: the instrumented
    value arrives in register [arg] and returns in [ret], so a call that
    does not fire is the identity [ret <- arg].  The one definition of the
    convention: [Runtime.llfi_handlers] builds one handler per entry, and
    [Exec.decode] fuses each call group of these callees (the
    ["llfi-call"] idiom). *)
