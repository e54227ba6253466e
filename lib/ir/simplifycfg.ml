(* CFG cleanup: removes unreachable blocks (pruning stale phi edges),
   threads trivial forwarding blocks, and merges straight-line block pairs.
   Run after constant folding turns conditional branches into jumps. *)

open Ir

let prune_phis fn =
  let cfg = Cfg.build fn in
  List.iter
    (fun b ->
      let preds = List.sort_uniq compare (Cfg.predecessors cfg b.lbl) in
      List.iter
        (fun p -> p.incoming <- List.filter (fun (l, _) -> List.mem l preds) p.incoming)
        b.phis)
    fn.blocks

let remove_unreachable fn =
  let cfg = Cfg.build fn in
  fn.blocks <- List.filter (fun b -> Cfg.reachable cfg b.lbl) fn.blocks;
  prune_phis fn

(* A block that contains only an unconditional branch (no phis, no body) can
   be bypassed: predecessors jump straight to its target.  Phi edges in the
   target are re-labelled, unless the target already has an edge from the
   predecessor with a different value (that join needs the forwarding
   block). *)
let thread_jumps fn =
  let changed = ref false in
  let entry = (entry_block fn).lbl in
  List.iter
    (fun b ->
      match b with
      | { lbl; phis = []; body = []; term = Br target } when lbl <> entry && target <> lbl ->
        let tblk = find_block fn target in
        let rewire_ok pred_lbl =
          (* target phis must not already have a conflicting edge from pred *)
          List.for_all
            (fun (ph : phi) ->
              match (List.assoc_opt pred_lbl ph.incoming, List.assoc_opt lbl ph.incoming) with
              | Some v1, Some v2 -> v1 = v2
              | None, _ -> true
              | Some _, None -> true)
            tblk.phis
        in
        let preds = List.filter (fun p -> List.mem lbl (term_succs p.term)) fn.blocks in
        if preds <> [] && List.for_all (fun p -> rewire_ok p.lbl) preds then begin
          List.iter
            (fun p ->
              let retarget l = if l = lbl then target else l in
              p.term <-
                (match p.term with
                | Br l -> Br (retarget l)
                | Cbr (c, a, bb) -> Cbr (c, retarget a, retarget bb)
                | t -> t);
              (* extend target phis with the new edge *)
              List.iter
                (fun (ph : phi) ->
                  match List.assoc_opt lbl ph.incoming with
                  | Some v ->
                    if not (List.mem_assoc p.lbl ph.incoming) then
                      ph.incoming <- (p.lbl, v) :: ph.incoming
                  | None -> ())
                tblk.phis;
              changed := true)
            preds;
          (* drop the forwarded edge *)
          List.iter
            (fun (ph : phi) -> ph.incoming <- List.remove_assoc lbl ph.incoming)
            tblk.phis
        end
      | _ -> ())
    fn.blocks;
  !changed

(* Merge [a -> b] when a's only successor is b and b's only predecessor is
   a: b's body is appended to a. *)
let merge_pairs fn =
  let changed = ref false in
  let cfg = Cfg.build fn in
  let merged : (label, unit) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun a ->
      if (not (Hashtbl.mem merged a.lbl)) && Cfg.reachable cfg a.lbl then
        match a.term with
        | Br target when target <> a.lbl && not (Hashtbl.mem merged target) -> (
          match Cfg.predecessors cfg target with
          | [ single ] when single = a.lbl ->
            let b = find_block fn target in
            if b.phis = [] then begin
              a.body <- a.body @ b.body;
              a.term <- b.term;
              (* successors of b now flow from a: relabel their phi edges *)
              List.iter
                (fun s ->
                  let sblk = find_block fn s in
                  List.iter
                    (fun (ph : phi) ->
                      ph.incoming <-
                        List.map (fun (l, o) -> ((if l = target then a.lbl else l), o)) ph.incoming)
                    sblk.phis)
                (term_succs b.term);
              Hashtbl.add merged target ();
              changed := true
            end
          | _ -> ())
        | _ -> ())
    fn.blocks;
  if !changed then fn.blocks <- List.filter (fun b -> not (Hashtbl.mem merged b.lbl)) fn.blocks;
  !changed

let run (fn : func) =
  remove_unreachable fn;
  let continue_ = ref true in
  while !continue_ do
    let t = thread_jumps fn in
    if t then remove_unreachable fn;
    let m = merge_pairs fn in
    if m then remove_unreachable fn;
    continue_ := t || m
  done
