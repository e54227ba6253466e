(* Final code emission: concatenates every function's blocks in layout
   order, resolves labels to absolute code indices and produces the
   executable image the machine simulator runs.  The paper's "Assembly /
   Object Emitter" stage.

   Per-pc metadata is one byte per code slot, and the owning function of
   a pc is found from the function starts: a REFINE image is about twenty
   times as long as its golden binary, so a word per slot per table would
   dominate what a prepared binary keeps. *)

module M = Refine_mir.Minstr
module F = Refine_mir.Mfunc

type image = {
  code : M.t array;
  entry : int; (* address of main's first instruction *)
  func_starts : (string * int) array; (* ascending first pcs, layout order *)
  globals : Refine_ir.Ir.global list;
  global_addr : string -> int;
  heap_base : int;
  ext_names : string array; (* unique extern names called by the image *)
  ext_slot_of_pc : string;
      (* one byte per pc: index into [ext_names] when code.(pc) is
         Mcallext, else '\255' — lets the simulator resolve extern
         dispatch once per engine instead of hashing the name on every
         call *)
  class_of_pc : string;
      (* one byte per pc: [Minstr.iclass_index (Minstr.classify code.(pc))],
         precomputed so the executor's profiling branch is one table read
         instead of two variant matches per instruction.  Stays exact under
         opcode corruption: [Corrupt.alternatives] only substitutes
         same-shape opcodes, which never change the instruction class *)
}

exception Layout_error of string

let max_ext_slots = 255

let ext_slot image pc =
  match image.ext_slot_of_pc.[pc] with '\255' -> -1 | c -> Char.code c

let class_table code =
  String.init (Array.length code) (fun pc -> Char.chr (M.iclass_index (M.classify code.(pc))))

let func_at image pc =
  if pc < 0 || pc >= Array.length image.code then
    invalid_arg (Printf.sprintf "Layout.func_at: pc %d outside the code" pc);
  (* the last function starting at or before [pc] *)
  let s = image.func_starts in
  let lo = ref 0 and hi = ref (Array.length s - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if snd s.(mid) <= pc then lo := mid else hi := mid - 1
  done;
  fst s.(!lo)

let build ~(globals : Refine_ir.Ir.global list) (funcs : F.t list) : image =
  let global_addr, heap_base = Refine_ir.Memlayout.place_globals globals in
  (* first pass: function start addresses *)
  let starts = Hashtbl.create 16 in
  let total = ref 0 in
  let func_starts =
    List.map
      (fun (mf : F.t) ->
        let s = !total in
        Hashtbl.replace starts mf.F.mname s;
        total := !total + F.instr_count mf;
        (mf.F.mname, s))
      funcs
  in
  let code = Array.make (max 1 !total) M.Mhalt in
  let ext_slot_of_pc = Bytes.make (max 1 !total) '\255' in
  let ext_slots = Hashtbl.create 8 in
  let ext_names_rev = ref [] in
  let ext_slot name =
    match Hashtbl.find_opt ext_slots name with
    | Some k -> k
    | None ->
      let k = Hashtbl.length ext_slots in
      if k >= max_ext_slots then
        raise (Layout_error (Printf.sprintf "more than %d distinct externs" max_ext_slots));
      Hashtbl.replace ext_slots name k;
      ext_names_rev := name :: !ext_names_rev;
      k
  in
  List.iter
    (fun (mf : F.t) ->
      (* label -> absolute address within this function *)
      let label_addr = Hashtbl.create 16 in
      let base = Hashtbl.find starts mf.F.mname in
      let pos = ref base in
      List.iter
        (fun (b : F.mblock) ->
          Hashtbl.replace label_addr b.mlbl !pos;
          pos := !pos + List.length b.code)
        mf.F.blocks;
      let resolve l =
        match Hashtbl.find_opt label_addr l with
        | Some a -> a
        | None -> raise (Layout_error (Printf.sprintf "%s: unresolved label L%d" mf.F.mname l))
      in
      let pos = ref base in
      List.iter
        (fun (b : F.mblock) ->
          List.iter
            (fun i ->
              let resolved =
                match i with
                | M.Mjmp l -> M.Mjmp (resolve l)
                | M.Mjcc (c, l) -> M.Mjcc (c, resolve l)
                | M.Mcall name -> (
                  match Hashtbl.find_opt starts name with
                  | Some a -> M.Mcalli a
                  | None -> raise (Layout_error ("call to unknown function " ^ name)))
                | other -> other
              in
              (match resolved with
              | M.Mcallext name -> Bytes.set ext_slot_of_pc !pos (Char.chr (ext_slot name))
              | _ -> ());
              code.(!pos) <- resolved;
              incr pos)
            b.code)
        mf.F.blocks)
    funcs;
  let entry =
    match Hashtbl.find_opt starts "main" with
    | Some a -> a
    | None -> raise (Layout_error "no main function")
  in
  {
    code;
    entry;
    func_starts = Array.of_list func_starts;
    globals;
    global_addr;
    heap_base;
    ext_names = Array.of_list (List.rev !ext_names_rev);
    ext_slot_of_pc = Bytes.unsafe_to_string ext_slot_of_pc;
    class_of_pc = class_table code;
  }
