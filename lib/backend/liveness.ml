(* Virtual-register liveness and live intervals over the linearized
   machine function, feeding linear-scan allocation.

   Positions number every instruction in block-layout order.  Intervals are
   conservative [first event, last event] ranges extended to block
   boundaries where the register is live-in/out; lifetime holes are not
   modelled, which costs some register pressure but keeps the allocator
   simple and predictable. *)

module M = Refine_mir.Minstr
module F = Refine_mir.Mfunc
module R = Refine_mir.Reg

type interval = {
  vreg : R.t;
  cls : R.rclass;
  start_pos : int;
  end_pos : int;
}

type t = {
  intervals : interval list; (* sorted by start *)
  block_bounds : (M.label * int * int) list; (* label, first pos, one-past-last *)
  positions : M.t array; (* linearized code *)
  (* positions of call instructions, extended over their ABI marshal/result
     movs, ascending: an interval overlapping any of these must survive a
     call *)
  call_positions : int list;
}

let vins i = List.filter R.is_virtual (M.inputs i)
let vouts i = List.filter R.is_virtual (M.outputs i)

let block_succs (b : F.mblock) =
  List.concat_map (fun i -> match i with M.Mjcc (_, l) | M.Mjmp l -> [ l ] | _ -> []) b.code

(* Dense bit sets over the function's virtual registers, one bit per
   [vreg_base + i], 32 to an int: the dataflow below unions and tests
   whole words instead of hashing one register at a time. *)
let bits_per_word = 32

let[@inline] bit_mem (s : int array) i = s.(i lsr 5) land (1 lsl (i land 31)) <> 0
let[@inline] bit_add (s : int array) i = s.(i lsr 5) <- s.(i lsr 5) lor (1 lsl (i land 31))

(* every member of [s], ascending *)
let bit_iter f (s : int array) =
  Array.iteri
    (fun w word ->
      if word <> 0 then
        for b = 0 to bits_per_word - 1 do
          if word land (1 lsl b) <> 0 then f ((w * bits_per_word) + b)
        done)
    s

let build (mf : F.t) : t =
  (* positions *)
  let code = Array.of_list (List.concat_map (fun (b : F.mblock) -> b.code) mf.F.blocks) in
  let bounds = ref [] in
  let pos = ref 0 in
  List.iter
    (fun (b : F.mblock) ->
      let first = !pos in
      pos := !pos + List.length b.code;
      bounds := (b.mlbl, first, !pos) :: !bounds)
    mf.F.blocks;
  let bounds = List.rev !bounds in
  let blocks = Array.of_list mf.F.blocks in
  let nb = Array.length blocks in
  let index = Hashtbl.create nb in
  Array.iteri (fun k (b : F.mblock) -> Hashtbl.replace index b.mlbl k) blocks;
  (* successor block indices; a label outside the function is no block *)
  let succs =
    Array.map (fun b -> List.filter_map (Hashtbl.find_opt index) (block_succs b)) blocks
  in
  let words = ((mf.F.next_vreg - R.vreg_base) / bits_per_word) + 1 in
  let fresh () = Array.make words 0 in
  (* block-level USE (upward-exposed) / DEF *)
  let use = Array.init nb (fun _ -> fresh ()) and def = Array.init nb (fun _ -> fresh ()) in
  Array.iteri
    (fun k (b : F.mblock) ->
      List.iter
        (fun i ->
          List.iter
            (fun r ->
              let v = r - R.vreg_base in
              if not (bit_mem def.(k) v) then bit_add use.(k) v)
            (vins i);
          List.iter (fun r -> bit_add def.(k) (r - R.vreg_base)) (vouts i))
        b.code)
    blocks;
  let live_in = Array.init nb (fun _ -> fresh ())
  and live_out = Array.init nb (fun _ -> fresh ()) in
  let changed = ref true in
  while !changed do
    changed := false;
    (* reverse order accelerates convergence *)
    for k = nb - 1 downto 0 do
      let lin = live_in.(k) and lout = live_out.(k) and u = use.(k) and d = def.(k) in
      List.iter
        (fun s ->
          let sin = live_in.(s) in
          for w = 0 to words - 1 do
            let o = lout.(w) lor sin.(w) in
            if o <> lout.(w) then begin
              lout.(w) <- o;
              changed := true
            end
          done)
        succs.(k);
      for w = 0 to words - 1 do
        let i = lin.(w) lor u.(w) lor (lout.(w) land lnot d.(w)) in
        if i <> lin.(w) then begin
          lin.(w) <- i;
          changed := true
        end
      done
    done
  done;
  (* intervals *)
  let nv = words * bits_per_word in
  let starts = Array.make nv max_int and ends = Array.make nv (-1) in
  let note v p =
    if p < starts.(v) then starts.(v) <- p;
    if p > ends.(v) then ends.(v) <- p
  in
  List.iteri
    (fun k (_, first, last) ->
      bit_iter (fun v -> note v first) live_in.(k);
      bit_iter (fun v -> note v (last - 1)) live_out.(k);
      List.iteri
        (fun j i ->
          let p = first + j in
          List.iter (fun r -> note (r - R.vreg_base) p) (vins i);
          List.iter (fun r -> note (r - R.vreg_base) p) (vouts i))
        blocks.(k).F.code)
    bounds;
  (* ascending vreg within each start: the (start, vreg) order *)
  let intervals = ref [] in
  for v = nv - 1 downto 0 do
    if starts.(v) < max_int then begin
      let r = R.vreg_base + v in
      intervals :=
        { vreg = r; cls = F.reg_class mf r; start_pos = starts.(v); end_pos = ends.(v) }
        :: !intervals
    end
  done;
  let intervals = List.stable_sort (fun a b -> compare a.start_pos b.start_pos) !intervals in
  (* call positions extended over their marshal/result movs *)
  let n = Array.length code in
  let is_marshal_mov i =
    match code.(i) with
    | M.Mmov (d, _) when R.is_physical d && d <> R.rsp && d <> R.rbp -> true
    | _ -> false
  in
  let is_result_mov i =
    match code.(i) with
    | M.Mmov (_, M.Reg s) when R.is_physical s && s <> R.rsp && s <> R.rbp -> true
    | _ -> false
  in
  let call_positions = ref [] in
  Array.iteri
    (fun p i ->
      match i with
      | M.Mcall _ | M.Mcalli _ | M.Mcallext _ ->
        call_positions := p :: !call_positions;
        let k = ref (p - 1) in
        while !k >= 0 && is_marshal_mov !k do
          call_positions := !k :: !call_positions;
          decr k
        done;
        if p + 1 < n && is_result_mov (p + 1) then call_positions := (p + 1) :: !call_positions
      | _ -> ())
    code;
  {
    intervals;
    block_bounds = bounds;
    positions = code;
    call_positions = List.sort_uniq compare !call_positions;
  }
