(* The golden twin of a REFINE-instrumented image, read off the image
   itself — the target and correspondence map that let the executor detach
   a sample once the single injection has retired (DESIGN.md §20).

   The REFINE pass (paper §4.2) splices a fixed control-flow pattern after
   every candidate instruction and touches nothing else, so the original
   instruction stream is recoverable from the instrumented image alone
   (§4.2.2): every splice is anchored by its [Mcallext "fi_sel_instr"] — a
   name the application can never call (layout resolves application calls
   to [Mcalli], and MinC sources cannot name the FI runtime library) — and
   the PreFI/PostFI shape around the anchor is rigid.  [extract] parses the
   splices, drops them, translates branch targets through the
   instrumented-pc -> golden-pc rank table and re-indexes the per-pc
   tables.  The dense rank table lives only while [extract] runs: what
   the map keeps is one piece per run of mapped or dropped pcs
   ([handoff]), about two per splice.

   The [cost_w] table carries the attached cost model onto the twin: each
   candidate's golden pc is weighted with the full modeled cost of its
   non-firing splice (interior instructions plus the [fi_sel_instr]
   library call).  A call-site candidate is the exception — attached, its
   splice runs when the callee RETURNS — so its splice collapses into one
   [Mjmp] at the splice start (the call's return address) carrying that
   cost, paid on the return edge exactly where the attached run pays it: a
   run that ends inside the callee never pays it.  The jump is a slot of
   its own rather than extra weight on the next instruction, because a
   weighted slot that traps charges only 1.  Either way a detached run
   charges bit-identical modeled cost at every original-instruction
   boundary — the invariant that keeps every detached sample identical to
   its attached run. *)

module M = Refine_mir.Minstr
module R = Refine_mir.Reg

type splice = {
  sp_cand : int;  (* pc of the candidate instruction (original) *)
  sp_start : int;  (* first spliced pc: the PreFI [Mpush r0] *)
  sp_end : int;  (* last spliced pc: the PostFI [Mpop r0] *)
  sp_flags : bool;  (* the splice saves FLAGS: [Mpushf] / [Mpopf] around the call *)
}

(* The correspondence as pieces: piece k covers the instrumented pcs
   from [h_pcs.(k)] up to the next piece's start, which map to
   consecutive twin pcs from [h_ranks.(k)], or have none when it is -1.
   A REFINE image alternates a mapped run of original code with one
   splice's dropped pcs, so the pieces number about two per splice
   rather than one per code slot; the last piece starts at the image
   length and has no counterpart. *)
type handoff = { h_pcs : int array; h_ranks : int array }

(* the piece holding [pc] >= 0: the last k with h_pcs.(k) <= pc *)
let piece h pc =
  let lo = ref 0 and hi = ref (Array.length h.h_pcs - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if h.h_pcs.(mid) <= pc then lo := mid else hi := mid - 1
  done;
  !lo

let rank h pc =
  if pc < 0 then -1
  else
    let k = piece h pc in
    let r = h.h_ranks.(k) in
    if r < 0 then -1 else r + (pc - h.h_pcs.(k))

let next h pc =
  let r = rank h pc in
  if r >= 0 || pc < 0 then r
  else
    (* the first twin pc of a later mapped piece *)
    let rec first k =
      if k >= Array.length h.h_ranks then -1
      else if h.h_ranks.(k) >= 0 then h.h_ranks.(k)
      else first (k + 1)
    in
    first (piece h pc + 1)

(* The pieces of a dense rank table: a new piece wherever a pc's rank
   does not continue its predecessor's, then the end piece. *)
let pieces_of (rank_of_pc : int array) =
  let n = Array.length rank_of_pc in
  let out = ref [ (n, -1) ] in
  for pc = n - 1 downto 0 do
    let r = rank_of_pc.(pc) in
    let continues =
      pc > 0
      &&
      let p = rank_of_pc.(pc - 1) in
      if r < 0 then p < 0 else p >= 0 && r = p + 1
    in
    if not continues then out := (pc, r) :: !out
  done;
  {
    h_pcs = Array.of_list (List.map fst !out);
    h_ranks = Array.of_list (List.map snd !out);
  }

type t = { handoff : handoff; cost_w : int array; splices : splice list }

(* Parse every splice of [code], anchored at [Mcallext "fi_sel_instr"].
   Raises [Not_found] on any shape violation — the image then runs
   attached. *)
let parse_splices (code : M.t array) : splice list =
  let n = Array.length code in
  let r0 = R.gpr 0 in
  let out = ref [] in
  let last_end = ref (-1) in
  for a = 0 to n - 1 do
    match code.(a) with
    | M.Mcallext "fi_sel_instr" ->
      let save_flags = a >= 1 && code.(a - 1) = M.Mpushf in
      let sp_start = if save_flags then a - 2 else a - 1 in
      if sp_start < 1 then raise Not_found;
      if code.(sp_start) <> M.Mpush r0 then raise Not_found;
      (* candidate must be an original instruction, outside any prior splice *)
      if sp_start - 1 <= !last_end then raise Not_found;
      if a + 3 >= n then raise Not_found;
      if code.(a + 1) <> M.Mcmp (R.ret_gpr, M.Imm 0L) then raise Not_found;
      let post =
        match code.(a + 2) with M.Mjcc (M.CEq, p) -> p | _ -> raise Not_found
      in
      (match code.(a + 3) with
      | M.Mjmp setup when setup = a + 4 -> ()
      | _ -> raise Not_found);
      if post <= a + 3 then raise Not_found;
      let sp_end =
        if save_flags then begin
          if post + 1 >= n then raise Not_found;
          if code.(post) <> M.Mpopf || code.(post + 1) <> M.Mpop r0 then raise Not_found;
          post + 1
        end
        else begin
          if post >= n then raise Not_found;
          if code.(post) <> M.Mpop r0 then raise Not_found;
          post
        end
      in
      (* the splice is always followed by more code in the same function
         (a candidate is never a terminator, so at least the block's own
         terminator comes after the PostFI restores) *)
      if sp_end + 1 >= n then raise Not_found;
      out := { sp_cand = sp_start - 1; sp_start; sp_end; sp_flags = save_flags } :: !out;
      last_end := sp_end
    | _ -> ()
  done;
  List.rev !out

let splices (image : Layout.image) : splice list option =
  match parse_splices image.Layout.code with exception Not_found -> None | l -> Some l

(* Translate one instrumented-image instruction into golden coordinates:
   branch/call targets go through [rank]; everything else is unchanged.
   A target inside a splice has no golden rank — impossible for genuine
   original code (splice labels are fresh and only intra-splice), so the
   extraction fails. *)
let translate (rank : int array) (i : M.t) : M.t option =
  let tr l = if l >= 0 && l < Array.length rank && rank.(l) >= 0 then Some rank.(l) else None in
  match i with
  | M.Mjmp l -> ( match tr l with Some l' -> Some (M.Mjmp l') | None -> None)
  | M.Mjcc (cc, l) -> ( match tr l with Some l' -> Some (M.Mjcc (cc, l')) | None -> None)
  | M.Mcalli l -> ( match tr l with Some l' -> Some (M.Mcalli l') | None -> None)
  | i -> Some i

let is_call = function M.Mcalli _ | M.Mcall _ -> true | _ -> false

let extract ~lib_call_cost (instr : Layout.image) : (Layout.image * t) option =
  let icode = instr.Layout.code in
  let n = Array.length icode in
  match splices instr with
  | None -> None
  | Some spl ->
    (* golden slots: every original pc, plus the splice start of each
       call-site candidate (its collapsed jump); -1 for the rest *)
    let rank_of_pc = Array.make n 0 in
    List.iter
      (fun s ->
        Array.fill rank_of_pc s.sp_start (s.sp_end - s.sp_start + 1) (-1);
        if is_call icode.(s.sp_cand) then rank_of_pc.(s.sp_start) <- 0)
      spl;
    let g = ref 0 in
    Array.iteri
      (fun pc r ->
        if r >= 0 then begin
          rank_of_pc.(pc) <- !g;
          incr g
        end)
      rank_of_pc;
    let pcs = Array.make !g 0 in
    Array.iteri (fun pc r -> if r >= 0 then pcs.(r) <- pc) rank_of_pc;
    let original = Array.map (fun pc -> icode.(pc)) pcs in
    let cost_w = Array.make !g 1 in
    List.iter
      (fun s ->
        (* non-firing path: push r0 [, pushf], callext, cmp, jcc, [popf,]
           pop r0 — 7 (or 5) interior instructions plus the library call *)
        let cost = (if s.sp_flags then 7 else 5) + lib_call_cost in
        match rank_of_pc.(s.sp_start) with
        | -1 -> cost_w.(rank_of_pc.(s.sp_cand)) <- 1 + cost
        | j ->
          (* the candidate retires separately at weight 1, so the jump
             carries exactly the skipped splice's cost *)
          original.(j) <- M.Mjmp (s.sp_end + 1);
          cost_w.(j) <- cost)
      spl;
    let translated = Array.map (translate rank_of_pc) original in
    if Array.exists Option.is_none translated || rank_of_pc.(instr.Layout.entry) < 0 then None
    else
      let code = Array.map Option.get translated in
      let twin =
        {
          instr with
          Layout.code;
          entry = rank_of_pc.(instr.Layout.entry);
          func_starts = Array.map (fun (f, pc) -> (f, rank_of_pc.(pc))) instr.Layout.func_starts;
          ext_slot_of_pc = String.init !g (fun r -> instr.Layout.ext_slot_of_pc.[pcs.(r)]);
          class_of_pc = Layout.class_table code;
        }
      in
      Some (twin, { handoff = pieces_of rank_of_pc; cost_w; splices = spl })

let map_eligible (instr : Layout.image) : bool =
  Option.is_some (extract ~lib_call_cost:0 instr)

let build ~lib_call_cost (instr : Layout.image) (golden : Layout.image) : t option =
  match extract ~lib_call_cost instr with
  | Some (twin, m)
    when twin.Layout.code = golden.Layout.code
         && twin.Layout.entry = golden.Layout.entry
         && twin.Layout.heap_base = golden.Layout.heap_base ->
    Some m
  | _ -> None

(* LLFI's injectFault callbacks: the register carrying the instrumented
   value in and the register it comes back in.  A call that does not fire
   is the identity [ret <- arg] — what the control library computes for
   it and what the decoded engine's llfi-call superinstruction retires
   inside the skip window. *)
let llfi_calls =
  [
    ("llfi_inject_i64", R.gpr 2, R.ret_gpr);
    ("llfi_inject_f64", R.fpr 1, R.ret_fpr);
    ("llfi_inject_i1", R.gpr 2, R.ret_gpr);
  ]
