(** Final code emission: concatenates every function's blocks in layout
    order and resolves labels/calls to absolute code indices — the paper's
    "Assembly / Object Emitter" stage. *)

type image = {
  code : Refine_mir.Minstr.t array;  (** jump targets are absolute indices *)
  entry : int;  (** address of main's first instruction *)
  func_of_pc : string array;  (** owning function, per instruction *)
  func_starts : (string * int) list;
  globals : Refine_ir.Ir.global list;
  global_addr : string -> int;
  heap_base : int;
  ext_names : string array;  (** unique extern names called by the image *)
  ext_slot_of_pc : int array;
      (** per pc: index into [ext_names] when the instruction is [Mcallext],
          else -1.  The simulator uses this to resolve extern dispatch once
          per engine instead of hashing the name on every call, and rejects
          an [Mcallext] without a slot with [Invalid_argument]. *)
  class_of_pc : int array;
      (** per pc: the instruction's [Minstr.iclass_index], precomputed for
          the executor's profiling branch.  Exact even under opcode
          corruption, which only substitutes same-class opcodes. *)
}

exception Layout_error of string

val build : globals:Refine_ir.Ir.global list -> Refine_mir.Mfunc.t list -> image
(** Raises {!Layout_error} on unresolved labels, unknown callees or a
    missing [main]. *)
