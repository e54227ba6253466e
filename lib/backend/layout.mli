(** Final code emission: concatenates every function's blocks in layout
    order and resolves labels/calls to absolute code indices — the paper's
    "Assembly / Object Emitter" stage.

    Per-pc metadata is kept one byte per code slot ({!class_of_pc},
    {!ext_slot_of_pc}); the owning function of a pc is derived from
    {!func_starts} ({!func_at}) instead of being stored per slot. *)

type image = {
  code : Refine_mir.Minstr.t array;  (** jump targets are absolute indices *)
  entry : int;  (** address of main's first instruction *)
  func_starts : (string * int) array;
      (** every function with its first pc, in layout order (ascending
          pcs); a function's code runs up to the next one's start *)
  globals : Refine_ir.Ir.global list;
  global_addr : string -> int;
  heap_base : int;
  ext_names : string array;
      (** unique extern names called by the image, at most 255 *)
  ext_slot_of_pc : string;
      (** one byte per pc: the index into [ext_names] when the instruction
          is [Mcallext], else ['\255'] — read it with {!ext_slot}.  The
          simulator uses this to resolve extern dispatch once per engine
          instead of hashing the name on every call, and rejects an
          [Mcallext] without a slot with [Invalid_argument]. *)
  class_of_pc : string;
      (** one byte per pc: the instruction's [Minstr.iclass_index],
          precomputed for the executor's profiling branch.  Exact even
          under opcode corruption, which only substitutes same-class
          opcodes. *)
}

exception Layout_error of string

val build : globals:Refine_ir.Ir.global list -> Refine_mir.Mfunc.t list -> image
(** Raises {!Layout_error} on unresolved labels, unknown callees, more
    than 255 distinct externs (a slot is one byte, and ['\255'] marks a
    pc without one) or a missing [main]. *)

val ext_slot : image -> int -> int
(** [ext_slot image pc]: the extern slot of the [Mcallext] at [pc], or
    [-1] when [pc] holds none. *)

val class_table : Refine_mir.Minstr.t array -> string
(** The {!class_of_pc} table of a code array. *)

val func_at : image -> int -> string
(** The function whose code holds [pc]: a binary search over
    {!func_starts}.  [Invalid_argument] for a pc outside the code. *)
