(* Memory map shared by the IR reference interpreter and the machine
   simulator, so that a program computes identical addresses in both — a
   prerequisite for the semantic-preservation property tests.

     [0, null_guard)            unmapped: dereferences trap (null pointers)
     [globals_base, heap_base)  module globals, 8-aligned
     [heap_base, stack floor)   bump-allocated heap (the [alloc] extern)
     (stack floor, mem_size)    stack, grows downward from [mem_size]
*)

let mem_size = 8 * 1024 * 1024
let null_guard = 4096
let globals_base = null_guard
let stack_limit = 1024 * 1024 (* maximum stack depth before overflow trap *)

let align8 n = (n + 7) land lnot 7

(* The [mem_size] arena of either execution: a private mapping of
   /dev/zero, so every page reads zero and the kernel commits a page only
   when it is first written.  The mapping is released when the arena is
   collected. *)
type arena = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

let new_arena () : arena =
  let fd = Unix.openfile "/dev/zero" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Bigarray.array1_of_genarray
        (Unix.map_file fd Bigarray.char Bigarray.c_layout false [| mem_size |]))

(* Assign addresses to globals in declaration order.  Returns the lookup
   function and the first free (heap base) address. *)
let place_globals globals =
  let tbl = Hashtbl.create 16 in
  let next = ref globals_base in
  List.iter
    (fun (g : Ir.global) ->
      Hashtbl.replace tbl g.gname !next;
      next := !next + align8 (max 8 g.gsize))
    globals;
  let lookup name =
    match Hashtbl.find_opt tbl name with
    | Some a -> a
    | None -> invalid_arg ("Memlayout: unknown global " ^ name)
  in
  (lookup, !next)
