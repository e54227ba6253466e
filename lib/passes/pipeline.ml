(* The unified cross-layer pipeline manager (DESIGN.md §15).

   A pipeline spec is a textual, round-trippable description of the whole
   compile spine — IR passes, the "isel" layer transition, MIR passes, and
   the final "layout" emission step:

       mem2reg,constfold,...,isel,regalloc,frame,peephole,refine-fi,layout

   The -O0/-O1/-O2 aliases expand to canonical specs ([of_level]); FI
   instrumentation (refine-fi / llfi-fi) plugs in as ordinary passes at
   the position that defines each tool's accuracy (paper Figure 1).

   The runner interleaves verification behind [verify_each] (the IR
   verifier after every IR pass, the MIR verifier after every MIR pass,
   [Mverify.check_instrumented] once a REFINE splice is in place), always
   re-checks instrumented code at the end of the MIR stage under
   [verify_fi] (timed like a pass, as the step "verify-fi" in the compile
   bucket), and records per-pass wall time and run counts through the
   observability layer ([refine_pass_seconds{pass,layer}] histograms plus
   a span per pass, nested under whatever campaign span is open). *)

module I = Refine_ir.Ir
module F = Refine_mir.Mfunc
module Obs = Refine_obs

type spec = {
  ir : string list;  (* IR passes, in order *)
  isel : bool;  (* lower to MIR *)
  mir : string list;  (* MIR passes, in order (requires isel) *)
  layout : bool;  (* emit the image (requires isel) *)
}

let empty = { ir = []; isel = false; mir = []; layout = false }

exception Parse_error of string

let perr fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

let known_names () = String.concat ", " (List.map (fun (p : Pass.t) -> p.Pass.name) (Pass.all ()))

let parse s =
  let toks =
    String.split_on_char ',' s |> List.map String.trim |> List.filter (fun t -> t <> "")
  in
  let check_layer want name =
    match Pass.find name with
    | None -> perr "unknown pass %S (known: %s)" name (known_names ())
    | Some p ->
      if p.Pass.layer <> want then
        perr "%s is a %s pass on the wrong side of isel" name (Pass.layer_name p.Pass.layer)
  in
  let rec ir_side acc = function
    | [] -> { empty with ir = List.rev acc }
    | "isel" :: rest -> mir_side (List.rev acc) [] rest
    | "layout" :: _ -> perr "layout requires isel before it"
    | name :: rest ->
      check_layer Pass.IR name;
      ir_side (name :: acc) rest
  and mir_side ir acc = function
    | [] -> { ir; isel = true; mir = List.rev acc; layout = false }
    | [ "layout" ] -> { ir; isel = true; mir = List.rev acc; layout = true }
    | "layout" :: _ -> perr "layout must be the last pipeline step"
    | "isel" :: _ -> perr "duplicate isel"
    | name :: rest ->
      check_layer Pass.MIR name;
      mir_side ir (name :: acc) rest
  in
  ir_side [] toks

let print spec =
  String.concat ","
    (spec.ir
    @ (if spec.isel then ("isel" :: spec.mir) @ (if spec.layout then [ "layout" ] else [])
       else []))

let equal (a : spec) (b : spec) = a = b

let ensure_layout spec = { spec with isel = true; layout = true }

(* insert before layout; no-op when the pass is already present *)
let append_mir spec name =
  if List.mem name spec.mir then spec else { spec with isel = true; mir = spec.mir @ [ name ] }

let append_ir spec name = if List.mem name spec.ir then spec else { spec with ir = spec.ir @ [ name ] }

(* ---- -O aliases -------------------------------------------------------- *)

type level = O0 | O1 | O2

let level_of_string = function
  | "O0" | "0" -> O0
  | "O1" | "1" -> O1
  | "O2" | "2" -> O2
  | s -> invalid_arg ("Pipeline.level_of_string: " ^ s)

let string_of_level = function O0 -> "O0" | O1 -> "O1" | O2 -> "O2"

(* one clean-up round: constant folding, CFG simplification, CSE, local
   memory optimization, DCE, and a final fold+simplify *)
let clean_names = [ "constfold"; "simplifycfg"; "cse"; "memopt"; "dce"; "constfold"; "simplifycfg" ]

let backend_names = [ "regalloc"; "frame"; "peephole" ]

let ir_of_level = function
  | O0 -> []
  | O1 -> "mem2reg" :: clean_names
  | O2 ->
    ("mem2reg" :: clean_names)
    @ [ "sccp"; "simplifycfg"; "licm" ]
    @ clean_names
    @ [ "cse"; "dce"; "simplifycfg"; "inline" ]

let of_level level = { ir = ir_of_level level; isel = true; mir = backend_names; layout = true }

(* ---- per-pass observability ------------------------------------------- *)

let pass_buckets = [| 1e-5; 1e-4; 1e-3; 1e-2; 0.1; 1.0; 10.0 |]

let pass_hist : (string, Obs.Metrics.histogram) Hashtbl.t = Hashtbl.create 32

let hist_for name layer =
  let key = name ^ "\000" ^ Pass.layer_name layer in
  match Hashtbl.find_opt pass_hist key with
  | Some h -> h
  | None ->
    let h =
      Obs.Metrics.histogram ~help:"per-pass wall time (sum = seconds, count = runs)"
        ~labels:[ ("pass", name); ("layer", Pass.layer_name layer) ]
        ~buckets:pass_buckets "refine_pass_seconds"
    in
    Hashtbl.add pass_hist key h;
    h

(* Time one pipeline step: bucket the wall time into the phase collector
   ("instrument" for FI passes, "compile" otherwise), and — when
   observability is on — observe the per-pass histogram and emit a span. *)
let timed ?phases ~name ~layer ~fi f =
  let t0 = Obs.Control.now () in
  let finish () =
    let dt = Obs.Control.now () -. t0 in
    (match phases with
    | Some p -> Obs.Phase.add p (if fi then "instrument" else "compile") dt
    | None -> ());
    if Obs.Control.enabled () then begin
      Obs.Metrics.observe (hist_for name layer) dt;
      Obs.Span.emit
        ~attrs:[ ("pass", name); ("layer", Pass.layer_name layer) ]
        ~name:"pass" ~dur_s:dt ()
    end
  in
  match f () with
  | v -> finish (); v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    finish ();
    Printexc.raise_with_backtrace e bt

(* ---- runner ------------------------------------------------------------ *)

type outcome = {
  funcs : F.t list;  (* machine functions after the MIR stage; [] without isel *)
  image : Refine_backend.Layout.image option;  (* Some iff the spec ends in layout *)
  fi_sites : int;  (* static sites reported by FI passes, summed *)
}

let lookup name =
  match Pass.find name with
  | Some p -> p
  | None -> perr "unknown pass %S (known: %s)" name (known_names ())

let run_ir ?(ctx = Pass.default_ctx) ?(verify_each = false) ?phases spec (m : I.modul) =
  List.fold_left
    (fun acc name ->
      let p = lookup name in
      let run =
        match p.Pass.impl with
        | Pass.Ir_impl f -> f
        | Pass.Mir_impl _ -> perr "%s is a MIR pass in the IR stage" name
      in
      let sites = timed ?phases ~name ~layer:Pass.IR ~fi:p.Pass.fi (fun () -> run ctx m) in
      if verify_each then Refine_ir.Verify.check_module m;
      acc + sites)
    0 spec.ir

let run ?(ctx = Pass.default_ctx) ?(verify_each = false) ?(verify_fi = false) ?phases spec
    (m : I.modul) : outcome =
  let ir_sites = run_ir ~ctx ~verify_each ?phases spec m in
  if not spec.isel then begin
    if spec.mir <> [] || spec.layout then perr "MIR passes or layout without isel";
    { funcs = []; image = None; fi_sites = ir_sites }
  end
  else begin
    let funcs =
      timed ?phases ~name:"isel" ~layer:Pass.MIR ~fi:false (fun () ->
          let global_addr, _heap = Refine_ir.Memlayout.place_globals m.I.globals in
          List.map (Refine_backend.Isel.select_func ~global_addr m) m.I.funcs)
    in
    let allow_virtual = ref true in
    (* frames captured right before the REFINE splice: check_instrumented
       asserts the instrumentation leaves them untouched *)
    let fi_frames : (F.t * int) list option ref = ref None in
    let verify_now () =
      match !fi_frames with
      | Some frames ->
        List.iter
          (fun (mf, fb) ->
            ignore (Refine_mir.Mverify.check_instrumented ~expect_frame_bytes:fb mf))
          frames
      | None -> Refine_mir.Mverify.check_funcs ~allow_virtual:!allow_virtual funcs
    in
    if verify_each then verify_now ();
    let fi_ran = ref (ir_sites > 0 || List.exists (fun n -> (lookup n).Pass.fi) spec.ir) in
    let mir_sites =
      List.fold_left
        (fun acc name ->
          let p = lookup name in
          let run =
            match p.Pass.impl with
            | Pass.Mir_impl f -> f
            | Pass.Ir_impl _ -> perr "%s is an IR pass in the MIR stage" name
          in
          if p.Pass.fi then begin
            fi_ran := true;
            if p.Pass.layer = Pass.MIR then
              fi_frames := Some (List.map (fun mf -> (mf, mf.F.frame_bytes)) funcs)
          end;
          let sites = timed ?phases ~name ~layer:Pass.MIR ~fi:p.Pass.fi (fun () -> run ctx m funcs) in
          if p.Pass.removes_vregs then allow_virtual := false;
          if verify_each then verify_now ();
          acc + sites)
        0 spec.mir
    in
    (* the instrumented-code check the campaign's accuracy claim rests on:
       always re-run at the end of the MIR stage when an FI pass ran, even
       without [verify_each] (chaos between the FI pass and here must not
       escape into an emitted image) *)
    if verify_fi && !fi_ran then
      timed ?phases ~name:"verify-fi" ~layer:Pass.MIR ~fi:false verify_now;
    let image =
      if spec.layout then
        Some
          (timed ?phases ~name:"layout" ~layer:Pass.MIR ~fi:false (fun () ->
               Refine_backend.Layout.build ~globals:m.I.globals funcs))
      else None
    in
    { funcs; image; fi_sites = ir_sites + mir_sites }
  end

(* ---- compatibility driver shims ---------------------------------------

   The pre-§15 entry points (Refine_ir.Pipeline.optimize, Compile.to_mir /
   emit / compile), now routed through the pass manager so every caller
   shares one ordering, one verifier and one set of timings. *)

let optimize ?(verify = false) level (m : I.modul) =
  ignore (run_ir { empty with ir = ir_of_level level } m);
  if verify then Refine_ir.Verify.check_module m

let to_mir ?ctx ?verify_each ?phases (m : I.modul) : F.t list =
  (run ?ctx ?verify_each ?phases
     { ir = []; isel = true; mir = backend_names; layout = false }
     m)
    .funcs

let emit (m : I.modul) (funcs : F.t list) : Refine_backend.Layout.image =
  Refine_backend.Layout.build ~globals:m.I.globals funcs

let compile ?ctx ?verify_each ?phases (m : I.modul) : Refine_backend.Layout.image =
  match
    (run ?ctx ?verify_each ?phases { ir = []; isel = true; mir = backend_names; layout = true } m)
      .image
  with
  | Some image -> image
  | None -> assert false
