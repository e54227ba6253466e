(* Execution tracing: a fixed-size ring buffer of the most recently
   executed instructions, attached through the engine's post-instruction
   hook.  Used by `refinec run --trace` to print the tail of a crashed
   run — invaluable when diagnosing why a particular bit flip trapped. *)

module M = Refine_mir.Minstr

type entry = { pc : int; instr : M.t; func : string }

type t = {
  ring : entry option array;
  mutable next : int;
  mutable total : int64;
}

let create ?(capacity = 32) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity <= 0";
  { ring = Array.make capacity None; next = 0; total = 0L }

(* Installs the tracer; composes with an existing hook (e.g. PINFI) by
   chaining to it at the pcs it declares and keeping its modeled cost —
   tracing adds none.  The tracer declares every pc and must see every
   one, so it keeps the engine's skip window shut: it clears the window at
   attach and after every visit, including one a chained hook or an FI
   library call just opened. *)
let attach (t : t) (eng : Exec.t) =
  let prev = eng.Exec.post_hook in
  let on_instr (eng : Exec.t) pc instr =
    t.ring.(t.next) <-
      Some { pc; instr; func = Refine_backend.Layout.func_at eng.Exec.image pc };
    t.next <- (t.next + 1) mod Array.length t.ring;
    t.total <- Int64.add t.total 1L;
    (match prev with
    | Some h when h.Exec.hook_pcs.(pc) -> h.Exec.on_instr eng pc instr
    | _ -> ());
    eng.Exec.fi_skip <- 0
  in
  let hook_cost = match prev with Some h -> h.Exec.hook_cost | None -> 0 in
  let hook_pcs = Array.make (Array.length eng.Exec.image.Refine_backend.Layout.code) true in
  eng.Exec.post_hook <- Some { Exec.on_instr; hook_cost; hook_pcs };
  eng.Exec.fi_skip <- 0

(* Most recent entries, oldest first. *)
let entries (t : t) : entry list =
  let n = Array.length t.ring in
  let out = ref [] in
  for k = 0 to n - 1 do
    match t.ring.((t.next + k) mod n) with
    | Some e -> out := e :: !out
    | None -> ()
  done;
  List.rev !out

let render (t : t) : string =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "last %d of %Ld executed instructions:\n" (List.length (entries t)) t.total);
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "  %6d  [%-12s]  %s\n" e.pc e.func (Refine_mir.Mprinter.to_string e.instr)))
    (entries t);
  Buffer.contents buf
