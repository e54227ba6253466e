(** The unified cross-layer pipeline manager (DESIGN.md §15).

    A pipeline spec is a textual, round-trippable description of the whole
    compile spine — IR passes, the ["isel"] layer transition, MIR passes
    and the final ["layout"] emission step — with [-O0/-O1/-O2] aliases
    and FI instrumentation (refine-fi / llfi-fi) plugging in as ordinary
    passes at the position that defines each tool's accuracy (paper
    Figure 1). *)

type spec = {
  ir : string list;  (** IR passes, in order *)
  isel : bool;  (** lower to MIR *)
  mir : string list;  (** MIR passes, in order (requires [isel]) *)
  layout : bool;  (** emit the image (requires [isel]) *)
}

val empty : spec

exception Parse_error of string

val parse : string -> spec
(** Parse a comma-separated pipeline description.  Raises {!Parse_error}
    on unknown pass names, a MIR pass before ["isel"] (or an IR pass
    after), a duplicate ["isel"], or ["layout"] anywhere but last.
    [parse] and {!print} round-trip: [parse (print s) = s]. *)

val print : spec -> string

val equal : spec -> spec -> bool

val ensure_layout : spec -> spec
(** Force [isel] and [layout] on (commands that need an executable image). *)

val append_mir : spec -> string -> spec
(** Append a MIR pass before layout; no-op when already present. *)

val append_ir : spec -> string -> spec

(** {1 -O aliases} *)

type level = O0 | O1 | O2

val level_of_string : string -> level
val string_of_level : level -> string

val ir_of_level : level -> string list
(** The IR-stage pass names of an alias ([O0] = none, [O1] = mem2reg +
    clean-up, [O2] additionally SCCP, LICM, inlining and a second round —
    the analogue of the paper's -O3 application builds). *)

val of_level : level -> spec
(** Full compile pipeline: [ir_of_level] + isel + regalloc, frame,
    peephole + layout. *)

(** {1 Running} *)

type outcome = {
  funcs : Refine_mir.Mfunc.t list;
      (** machine functions after the MIR stage; [[]] without isel *)
  image : Refine_backend.Layout.image option;  (** [Some] iff the spec ends in layout *)
  fi_sites : int;  (** static sites reported by FI passes, summed *)
}

val run_ir :
  ?ctx:Pass.ctx -> ?verify_each:bool -> ?phases:Refine_obs.Phase.t -> spec -> Refine_ir.Ir.modul -> int
(** Run only the IR stage of [spec], in place; returns the FI sites
    reported by IR instrumentation passes.  [verify_each] re-checks module
    well-formedness after every pass.  [phases] buckets per-pass wall time
    into "compile" / "instrument" (FI passes); independently, when
    observability is on, every pass records a
    [refine_pass_seconds{pass,layer}] histogram sample and emits a span. *)

val run :
  ?ctx:Pass.ctx ->
  ?verify_each:bool ->
  ?verify_fi:bool ->
  ?phases:Refine_obs.Phase.t ->
  spec ->
  Refine_ir.Ir.modul ->
  outcome
(** Run the full pipeline.  [verify_each] interleaves the IR verifier
    after each IR pass and the MIR verifier after each MIR pass (switching
    to {!Refine_mir.Mverify.check_instrumented} once a REFINE splice is in
    place, with the pre-splice frame sizes as the expectation).
    [verify_fi] (always on in [Refine_core.Tool.prepare]) re-checks
    instrumented code once at the end of the MIR stage even without
    [verify_each], so nothing that corrupts machine code after the FI pass
    can escape into an emitted image.  Verifier violations raise
    {!Refine_ir.Verify.Invalid} / {!Refine_mir.Mverify.Invalid}. *)

(** {1 Driver shims}

    The pre-§15 entry points (Refine_ir.Pipeline.optimize and the old
    backend Compile driver), now routed through the pass manager. *)

val optimize : ?verify:bool -> level -> Refine_ir.Ir.modul -> unit
(** IR stage of [of_level] in place; [verify] re-checks module
    well-formedness afterwards (on in tests, off in campaigns). *)

val to_mir :
  ?ctx:Pass.ctx ->
  ?verify_each:bool ->
  ?phases:Refine_obs.Phase.t ->
  Refine_ir.Ir.modul ->
  Refine_mir.Mfunc.t list
(** isel + regalloc + frame + peephole on an already-optimized module,
    stopping before layout so FI passes can instrument the final machine
    code (paper Figure 1). *)

val emit : Refine_ir.Ir.modul -> Refine_mir.Mfunc.t list -> Refine_backend.Layout.image

val compile :
  ?ctx:Pass.ctx ->
  ?verify_each:bool ->
  ?phases:Refine_obs.Phase.t ->
  Refine_ir.Ir.modul ->
  Refine_backend.Layout.image
(** The plain no-FI backend pipeline ending in layout. *)
