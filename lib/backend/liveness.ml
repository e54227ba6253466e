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
  (* block-level USE/DEF *)
  let use_def =
    List.map
      (fun (b : F.mblock) ->
        let use = Hashtbl.create 16 and def = Hashtbl.create 16 in
        List.iter
          (fun i ->
            List.iter (fun r -> if not (Hashtbl.mem def r) then Hashtbl.replace use r ()) (vins i);
            List.iter (fun r -> Hashtbl.replace def r ()) (vouts i))
          b.code;
        (b.mlbl, use, def))
      mf.F.blocks
  in
  let live_in : (M.label, (R.t, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 16 in
  let live_out : (M.label, (R.t, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (b : F.mblock) ->
      Hashtbl.replace live_in b.mlbl (Hashtbl.create 16);
      Hashtbl.replace live_out b.mlbl (Hashtbl.create 16))
    mf.F.blocks;
  let changed = ref true in
  while !changed do
    changed := false;
    (* reverse order accelerates convergence *)
    List.iter
      (fun (b : F.mblock) ->
        let lin = Hashtbl.find live_in b.mlbl in
        let lout = Hashtbl.find live_out b.mlbl in
        List.iter
          (fun s ->
            match Hashtbl.find_opt live_in s with
            | Some sin ->
              Hashtbl.iter
                (fun r () ->
                  if not (Hashtbl.mem lout r) then begin
                    Hashtbl.replace lout r ();
                    changed := true
                  end)
                sin
            | None -> ())
          (block_succs b);
        let _, use, def = List.find (fun (l, _, _) -> l = b.mlbl) use_def in
        Hashtbl.iter
          (fun r () ->
            if not (Hashtbl.mem lin r) then begin
              Hashtbl.replace lin r ();
              changed := true
            end)
          use;
        Hashtbl.iter
          (fun r () ->
            if (not (Hashtbl.mem def r)) && not (Hashtbl.mem lin r) then begin
              Hashtbl.replace lin r ();
              changed := true
            end)
          lout)
      (List.rev mf.F.blocks)
  done;
  (* intervals *)
  let starts : (R.t, int) Hashtbl.t = Hashtbl.create 64 in
  let ends : (R.t, int) Hashtbl.t = Hashtbl.create 64 in
  let note r p =
    (match Hashtbl.find_opt starts r with
    | Some s -> if p < s then Hashtbl.replace starts r p
    | None -> Hashtbl.replace starts r p);
    match Hashtbl.find_opt ends r with
    | Some e -> if p > e then Hashtbl.replace ends r p
    | None -> Hashtbl.replace ends r p
  in
  List.iter2
    (fun (b : F.mblock) (lbl, first, last) ->
      assert (b.mlbl = lbl);
      Hashtbl.iter (fun r () -> note r first) (Hashtbl.find live_in b.mlbl);
      Hashtbl.iter (fun r () -> note r (last - 1)) (Hashtbl.find live_out b.mlbl);
      List.iteri
        (fun k i ->
          let p = first + k in
          List.iter (fun r -> note r p) (vins i);
          List.iter (fun r -> note r p) (vouts i))
        b.code)
    mf.F.blocks bounds;
  let intervals =
    Hashtbl.fold
      (fun r s acc ->
        let e = Hashtbl.find ends r in
        { vreg = r; cls = F.reg_class mf r; start_pos = s; end_pos = e } :: acc)
      starts []
    |> List.sort (fun a b -> compare (a.start_pos, a.vreg) (b.start_pos, b.vreg))
  in
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
