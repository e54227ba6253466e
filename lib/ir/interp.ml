(* Reference interpreter for the IR.

   This is the semantic oracle: the backend + machine simulator must produce
   the same observable behaviour (output, exit code, traps) as this
   interpreter for any well-formed module.  The property tests in
   [test/test_semantics.ml] enforce exactly that, which is what lets us trust
   that fault-free REFINE/LLFI-instrumented binaries behave like the original
   program (the paper's "the FI binary is used unmodified during profiling").

   All values are stored as raw 64-bit images; floating-point operations
   reinterpret bits at use, mirroring the machine's register file. *)

open Ir

exception Trap of string

type outcome = { output : string; exit_code : int; steps : int }

let default_fuel = 200_000_000

(* Shared arithmetic semantics (also used by the machine simulator, so the
   two cannot drift). *)

let mask6 n = Int64.to_int (Int64.logand n 63L)

let eval_ibinop op a b =
  let open Int64 in
  match op with
  | Add -> add a b
  | Sub -> sub a b
  | Mul -> mul a b
  | Div ->
    if b = 0L then raise (Trap "integer division by zero")
    else if a = min_int && b = -1L then min_int
    else div a b
  | Rem ->
    if b = 0L then raise (Trap "integer remainder by zero")
    else if a = min_int && b = -1L then 0L
    else rem a b
  | And -> logand a b
  | Or -> logor a b
  | Xor -> logxor a b
  | Shl -> shift_left a (mask6 b)
  | Lshr -> shift_right_logical a (mask6 b)
  | Ashr -> shift_right a (mask6 b)

let eval_fbinop op a b =
  match op with Fadd -> a +. b | Fsub -> a -. b | Fmul -> a *. b | Fdiv -> a /. b

let eval_icmp op (a : int64) (b : int64) =
  let c = Int64.compare a b in
  let r =
    match op with
    | Ieq -> c = 0 | Ine -> c <> 0 | Ilt -> c < 0 | Ile -> c <= 0 | Igt -> c > 0 | Ige -> c >= 0
  in
  if r then 1L else 0L

(* C-style float comparisons: [!=] is true on NaN, the ordered relations are
   false on NaN. *)
let eval_fcmp op (a : float) (b : float) =
  let r =
    match op with
    | Feq -> a = b | Fne -> a <> b | Flt -> a < b | Fle -> a <= b | Fgt -> a > b | Fge -> a >= b
  in
  if r then 1L else 0L

let eval_funop op a =
  match op with Fneg -> -.a | Fsqrt -> sqrt a | Fabs -> Float.abs a

(* Truncation toward zero with saturation; NaN maps to 0.  Defined (not UB)
   so the interpreter and machine agree on every input. *)
let fptosi f =
  if Float.is_nan f then 0L
  else if f >= 9.2233720368547758e18 then Int64.max_int
  else if f <= -9.2233720368547758e18 then Int64.min_int
  else Int64.of_float f

(* ------------------------------------------------------------------ *)

type state = {
  m : modul;
  mem : Memlayout.arena; (* committed page by page as the program writes *)
  global_addr : string -> int;
  mutable heap : int;
  mutable sp : int; (* stack pointer for allocas *)
  mutable steps : int;
  fuel : int;
  env : Externs.env;
}

let check_addr _st addr =
  if addr < Memlayout.null_guard || addr + 8 > Memlayout.mem_size then
    raise (Trap (Printf.sprintf "memory access out of bounds: 0x%x" addr))

(* bounds-checked native-endian 64-bit accesses; cells are little-endian *)
external get64 : Memlayout.arena -> int -> int64 = "%caml_bigstring_get64"
external set64 : Memlayout.arena -> int -> int64 -> unit = "%caml_bigstring_set64"
external bswap64 : int64 -> int64 = "%bswap_int64"

let load64 st addr =
  check_addr st addr;
  let v = get64 st.mem addr in
  if Sys.big_endian then bswap64 v else v

let store64 st addr v =
  check_addr st addr;
  set64 st.mem addr (if Sys.big_endian then bswap64 v else v)

let tick st =
  st.steps <- st.steps + 1;
  if st.steps > st.fuel then raise (Trap "fuel exhausted")

let f = Int64.float_of_bits
let fb = Int64.bits_of_float

exception Exited

let rec call_function st (fn : func) (args : int64 array) : int64 =
  let frame = Array.make (max 1 fn.vnext) 0L in
  List.iteri (fun i (v, _) -> frame.(v) <- args.(i)) fn.params;
  let saved_sp = st.sp in
  let eval = function Var v -> frame.(v) | ICst i -> i | FCst x -> fb x in
  let rec exec_block (blk : block) (from : label) : int64 =
    (* Parallel phi evaluation: read all incomings before writing any. *)
    let phi_vals =
      List.map
        (fun p ->
          match List.assoc_opt from p.incoming with
          | Some o -> (p.pdst, eval o)
          | None -> raise (Trap (Printf.sprintf "phi in L%d has no edge from L%d" blk.lbl from)))
        blk.phis
    in
    List.iter (fun (d, v) -> frame.(d) <- v) phi_vals;
    if blk.phis <> [] then tick st;
    List.iter (exec_instr) blk.body;
    tick st;
    match blk.term with
    | Ret (Some o) -> eval o
    | Ret None -> 0L
    | Br l -> exec_block (find_block fn l) blk.lbl
    | Cbr (c, a, b) ->
      let target = if eval c <> 0L then a else b in
      exec_block (find_block fn target) blk.lbl
    | Unreachable -> raise (Trap "reached unreachable")
  and exec_instr i =
    tick st;
    match i with
    | Ibinop (d, op, a, b) -> frame.(d) <- eval_ibinop op (eval a) (eval b)
    | Fbinop (d, op, a, b) -> frame.(d) <- fb (eval_fbinop op (f (eval a)) (f (eval b)))
    | Icmp (d, op, a, b) -> frame.(d) <- eval_icmp op (eval a) (eval b)
    | Fcmp (d, op, a, b) -> frame.(d) <- eval_fcmp op (f (eval a)) (f (eval b))
    | Funop (d, op, a) -> frame.(d) <- fb (eval_funop op (f (eval a)))
    | Cast (d, Sitofp, a) -> frame.(d) <- fb (Int64.to_float (eval a))
    | Cast (d, Fptosi, a) -> frame.(d) <- fptosi (f (eval a))
    | Select (d, _, c, a, b) -> frame.(d) <- (if eval c <> 0L then eval a else eval b)
    | Load (d, _, a) -> frame.(d) <- load64 st (Int64.to_int (eval a))
    | Store (_, v, a) -> store64 st (Int64.to_int (eval a)) (eval v)
    | Alloca (d, n) ->
      st.sp <- st.sp - Memlayout.align8 n;
      if st.sp < Memlayout.mem_size - Memlayout.stack_limit then raise (Trap "stack overflow");
      frame.(d) <- Int64.of_int st.sp
    | Gep (d, b, ix) ->
      frame.(d) <- Int64.add (eval b) (Int64.mul 8L (eval ix))
    | Gaddr (d, g) -> frame.(d) <- Int64.of_int (st.global_addr g)
    | Call (d, _, name, args) ->
      let argv = Array.of_list (List.map eval args) in
      let result =
        if Externs.is_extern name then begin
          let r = try Externs.call st.env name argv with Externs.Extern_trap m -> raise (Trap m) in
          if st.env.exited <> None then raise Exited;
          r
        end
        else
          match List.find_opt (fun g -> g.fname = name) st.m.funcs with
          | Some callee -> call_function st callee argv
          | None -> raise (Trap ("call to unknown function " ^ name))
      in
      (match d with Some dv -> frame.(dv) <- result | None -> ())
  in
  let result = exec_block (entry_block fn) (-1) in
  st.sp <- saved_sp;
  result

let run ?(fuel = default_fuel) (m : modul) : outcome =
  let mem = Memlayout.new_arena () in
  let global_addr, heap_base = Memlayout.place_globals m.globals in
  List.iter
    (fun g ->
      match g.gbytes with
      | Some s ->
        let base = global_addr g.gname in
        String.iteri (fun k c -> Bigarray.Array1.set mem (base + k) c) s
      | None -> ())
    m.globals;
  let heap = ref heap_base in
  let env =
    {
      Externs.out = Buffer.create 1024;
      read_byte =
        (fun a ->
          if a < Memlayout.null_guard || a >= Memlayout.mem_size then
            raise (Trap (Printf.sprintf "read_byte out of bounds: 0x%x" a))
          else Bigarray.Array1.get mem a);
      alloc =
        (fun n ->
          let addr = !heap in
          heap := !heap + Memlayout.align8 n;
          if !heap > Memlayout.mem_size - Memlayout.stack_limit then raise (Trap "out of memory");
          addr);
      exited = None;
    }
  in
  let st =
    { m; mem; global_addr; heap = heap_base; sp = Memlayout.mem_size; steps = 0; fuel; env }
  in
  st.heap <- heap_base;
  let main = try find_func m "main" with Not_found -> raise (Trap "no main function") in
  let code =
    try Int64.to_int (call_function st main [||])
    with Exited -> ( match env.exited with Some c -> c | None -> 0)
  in
  { output = Buffer.contents env.out; exit_code = code; steps = st.steps }
