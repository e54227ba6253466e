(* Fault-injection target selection, i.e. the compiler flags of the paper's
   Table 2: -fi enables injection, -fi-funcs restricts the instrumented
   functions, -fi-instrs restricts the instruction classes. *)

module M = Refine_mir.Minstr
module I = Refine_ir.Ir

type instr_class = All | Stack | Arith | Mem

let instr_class_of_string = function
  | "all" -> All
  | "stack" -> Stack
  | "arithm" | "arith" -> Arith
  | "mem" -> Mem
  | s -> invalid_arg ("Selection.instr_class_of_string: " ^ s)

let string_of_instr_class = function
  | All -> "all" | Stack -> "stack" | Arith -> "arithm" | Mem -> "mem"

type t = {
  funcs : string list; (* function names; ["*"] selects every function *)
  instrs : instr_class;
}

let default = { funcs = [ "*" ]; instrs = All }

let func_selected t name = List.mem "*" t.funcs || List.mem name t.funcs

(* [Stack]/[Arith]/[Mem] restrict machine instructions by class *)
let class_selected t (i : M.t) =
  match t.instrs with
  | All -> true
  | Stack -> M.classify i = M.Cstack
  | Arith -> M.classify i = M.Carith
  | Mem -> M.classify i = M.Cmem

(* Machine-level candidates (REFINE, PINFI): the instruction must write at
   least one register and pass the class filter. *)
let minstr_selected t (i : M.t) = M.writes_register i && class_selected t i

(* IR-level candidates (LLFI): value-producing instructions.  Note the
   structural gaps versus the machine level, which are the paper's point:
   no stack-management class exists at all, and address arithmetic is
   limited to gep. *)
let ir_instr_selected t (i : I.instr) =
  match I.instr_def i with
  | None -> false
  | Some _ -> (
    match (t.instrs, i) with
    | _, I.Alloca _ -> false (* stack slots are not IR FI targets *)
    | All, _ -> true
    | Arith, (I.Ibinop _ | I.Fbinop _ | I.Icmp _ | I.Fcmp _ | I.Funop _ | I.Cast _ | I.Select _)
      -> true
    | Mem, (I.Load _ | I.Gep _ | I.Gaddr _) -> true
    | Stack, _ -> false (* the IR has no stack-management instructions *)
    | _ -> false)

(* Canonical text form, used as an artifact-cache key component: two
   selections with the same meaning must print identically. *)
let to_string t =
  Printf.sprintf "funcs=%s;instrs=%s" (String.concat "," t.funcs) (string_of_instr_class t.instrs)
