(* Backend tests: instruction selection structure, register allocation
   invariants, frame lowering, peephole and layout. *)

module I = Refine_ir.Ir
module M = Refine_mir.Minstr
module R = Refine_mir.Reg
module MF = Refine_mir.Mfunc
module BK = Refine_passes.Pipeline
module F = Refine_minic.Frontend

let compile_mir ?(opt = Refine_passes.Pipeline.O2) src =
  let m = F.compile src in
  Refine_passes.Pipeline.optimize opt m;
  let funcs = BK.to_mir m in
  (m, funcs)

let all_instrs (funcs : MF.t list) =
  List.concat_map (fun mf -> List.concat_map (fun (b : MF.mblock) -> b.MF.code) mf.MF.blocks) funcs

let simple_src =
  {|
float combine(float a, float b, float c) { return a * b + c / a; }
int main() {
  float x = combine(2.0, 3.0, 8.0);
  print_float(x);
  int i; int s = 0;
  for (i = 0; i < 10; i = i + 1) { s = s + i * i; }
  print_int(s);
  return 0;
}
|}

let test_no_virtual_registers_after_ra () =
  let _, funcs = compile_mir simple_src in
  List.iter
    (fun i ->
      List.iter
        (fun r ->
          Alcotest.(check bool) ("physical: " ^ Refine_mir.Mprinter.to_string i) true
            (R.is_physical r))
        (M.inputs i @ M.outputs i))
    (all_instrs funcs)

let test_prologue_epilogue_present () =
  let _, funcs = compile_mir simple_src in
  List.iter
    (fun (mf : MF.t) ->
      let entry_code = (List.hd mf.MF.blocks).MF.code in
      (* prologue: ... push rbp; mov rbp, rsp ... *)
      let rec has_pair = function
        | M.Mpush r :: M.Mmov (d, M.Reg s) :: _ when r = R.rbp && d = R.rbp && s = R.rsp -> true
        | _ :: rest -> has_pair rest
        | [] -> false
      in
      Alcotest.(check bool) (mf.MF.mname ^ " has prologue") true (has_pair entry_code);
      (* every ret is preceded by the epilogue's pop rbp *)
      List.iter
        (fun (b : MF.mblock) ->
          let rec check = function
            | M.Mpop r :: rest when r = R.rbp ->
              (* after pop rbp only callee-saved pops may precede ret *)
              let rec only_pops = function
                | M.Mpop _ :: rest -> only_pops rest
                | [ M.Mret ] -> true
                | _ -> false
              in
              Alcotest.(check bool) "epilogue shape" true (only_pops rest);
              check rest
            | _ :: rest -> check rest
            | [] -> ()
          in
          check b.MF.code)
        mf.MF.blocks)
    funcs

let test_cmp_jcc_fusion () =
  (* a single-use compare consumed by the branch must not produce setcc *)
  let _, funcs =
    compile_mir "int main() { int i = 0; while (i < 5) { i = i + 1; } print_int(i); return 0; }"
  in
  let setccs = List.filter (function M.Msetcc _ -> true | _ -> false) (all_instrs funcs) in
  Alcotest.(check int) "no setcc" 0 (List.length setccs);
  let jccs = List.filter (function M.Mjcc _ -> true | _ -> false) (all_instrs funcs) in
  Alcotest.(check bool) "has conditional jumps" true (jccs <> [])

let test_gep_folding () =
  (* a single-use gep with a dynamic index feeding a load/store becomes an
     indexed access, no Mlea *)
  let _, funcs =
    compile_mir
      "global int a[8]; int main() { int i; int s = 0; for (i = 0; i < 8; i = i + 1) { a[i] = i * 2; } for (i = 0; i < 8; i = i + 1) { s = s + a[i]; } print_int(s); return 0; }"
  in
  let leas = List.filter (function M.Mlea _ -> true | _ -> false) (all_instrs funcs) in
  let idx =
    List.filter (function M.Mloadidx _ | M.Mstoreidx _ -> true | _ -> false) (all_instrs funcs)
  in
  Alcotest.(check bool) "uses indexed addressing" true (idx <> []);
  Alcotest.(check int) "no lea needed" 0 (List.length leas)

let test_calls_marshal_args () =
  (* O1: no inlining, the call is preserved *)
  let _, funcs = compile_mir ~opt:Refine_passes.Pipeline.O1 simple_src in
  (* combine takes 3 float args: the call must be preceded by moves into
     f1, f2, f3 *)
  let found = ref false in
  List.iter
    (fun (mf : MF.t) ->
      List.iter
        (fun (b : MF.mblock) ->
          let rec scan = function
            | M.Mmov (d1, _) :: M.Mmov (d2, _) :: M.Mmov (d3, _) :: M.Mcall "combine" :: _
              when d1 = R.fpr 1 && d2 = R.fpr 2 && d3 = R.fpr 3 -> found := true
            | _ :: rest -> scan rest
            | [] -> ()
          in
          scan b.MF.code)
        mf.MF.blocks)
    funcs;
  Alcotest.(check bool) "ABI marshaling movs" true !found

let test_spilling_under_pressure () =
  (* more than 11 simultaneously live integer values forces spills *)
  let vars = List.init 20 (fun i -> Printf.sprintf "v%02d" i) in
  let decls =
    String.concat "" (List.mapi (fun i v -> Printf.sprintf "int %s = %d * n;\n" v (i + 1)) vars)
  in
  let uses = String.concat " + " vars in
  let src =
    Printf.sprintf "global int n = 3;\nint main() {\n%sprint_int(%s);\nreturn 0;\n}" decls uses
  in
  let m, funcs = compile_mir src in
  let spills =
    List.exists
      (function
        | M.Mstore (_, b, off) when b = R.rbp && off < 0 -> true
        | _ -> false)
      (all_instrs funcs)
  in
  Alcotest.(check bool) "spill stores exist" true spills;
  (* and the program still computes the right value *)
  let image = BK.emit m funcs in
  let eng = Refine_machine.Exec.create image in
  let r = Refine_machine.Exec.run eng in
  (* sum of i*3 for i in 1..20 = 630 *)
  Alcotest.(check string) "value with spills" "630\n" r.Refine_machine.Exec.output

let test_callee_saved_across_calls () =
  (* a value live across a call must survive the callee clobbering
     caller-saved registers *)
  let src =
    {|
int id(int x) { return x; }
int main() {
  int a = 41;
  int b = id(1);
  print_int(a + b);
  return 0;
}
|}
  in
  let m, funcs = compile_mir src in
  let image = BK.emit m funcs in
  let eng = Refine_machine.Exec.create image in
  let r = Refine_machine.Exec.run eng in
  Alcotest.(check string) "42" "42\n" r.Refine_machine.Exec.output

let test_peephole_removes_self_moves () =
  let _, funcs = compile_mir simple_src in
  List.iter
    (fun i ->
      match i with
      | M.Mmov (d, M.Reg s) ->
        Alcotest.(check bool) "no self move" false (d = s)
      | _ -> ())
    (all_instrs funcs)

let test_layout_resolves () =
  let m, funcs = compile_mir simple_src in
  let image = BK.emit m funcs in
  let module L = Refine_backend.Layout in
  Array.iter
    (fun i ->
      match i with
      | M.Mcall name -> Alcotest.fail ("unresolved call " ^ name)
      | M.Mjmp t | M.Mjcc (_, t) ->
        Alcotest.(check bool) "target in range" true (t >= 0 && t < Array.length image.L.code)
      | M.Mcalli t ->
        Alcotest.(check bool) "call target in range" true (t >= 0 && t < Array.length image.L.code)
      | _ -> ())
    image.L.code;
  Alcotest.(check bool) "entry is main" true
    (L.func_at image image.L.entry = "main")

let test_layout_missing_main () =
  let m = F.compile "int main() { return 0; }" in
  let funcs = BK.to_mir m in
  let renamed = List.map (fun (mf : MF.t) -> { mf with MF.mname = "notmain" }) funcs in
  Alcotest.(check bool) "layout requires main" true
    (try
       ignore (Refine_backend.Layout.build ~globals:[] renamed);
       false
     with Refine_backend.Layout.Layout_error _ -> true)

let test_split_critical_edges () =
  let b, _ = Refine_ir.Builder.create ~name:"main" ~params:[] ~ret:(Some I.I64) in
  let module B = Refine_ir.Builder in
  (* cbr from entry to a join that has two predecessors: critical edge *)
  let l1 = B.block b and join = B.block b in
  B.terminate b (I.Cbr (I.ICst 1L, l1, join));
  B.switch_to b l1;
  B.terminate b (I.Br join);
  B.switch_to b join;
  B.terminate b (I.Ret (Some (I.ICst 0L)));
  let fn = B.func b in
  Refine_backend.Splitcrit.run fn;
  let cfg = Refine_ir.Cfg.build fn in
  (* no block with multiple successors may have a successor with multiple
     predecessors *)
  List.iter
    (fun (blk : I.block) ->
      let succs = I.term_succs blk.I.term in
      if List.length succs > 1 then
        List.iter
          (fun s ->
            Alcotest.(check bool) "edge not critical" true
              (List.length (Refine_ir.Cfg.predecessors cfg s) <= 1))
          succs)
    fn.I.blocks

let test_mverify_accepts_backend_output () =
  let _, funcs = compile_mir simple_src in
  Refine_mir.Mverify.check_funcs funcs;
  (* and the REFINE-instrumented version too *)
  let m2, funcs2 = compile_mir simple_src in
  ignore m2;
  List.iter (fun mf -> ignore (Refine_passes.Refine_pass.run mf)) funcs2;
  Refine_mir.Mverify.check_funcs funcs2

let test_mverify_rejects_bad () =
  let mf = Refine_mir.Mfunc.create "main" in
  let b = Refine_mir.Mfunc.add_block mf 0 in
  (* jump to a missing label *)
  b.Refine_mir.Mfunc.code <- [ M.Mjmp 42 ];
  Alcotest.(check bool) "missing label rejected" true
    (try Refine_mir.Mverify.check_func mf; false with Refine_mir.Mverify.Invalid _ -> true);
  (* leftover virtual register *)
  let mf2 = Refine_mir.Mfunc.create "main" in
  let b2 = Refine_mir.Mfunc.add_block mf2 0 in
  b2.Refine_mir.Mfunc.code <- [ M.Mmov (R.vreg_base + 3, M.Imm 0L); M.Mret ];
  Alcotest.(check bool) "virtual register rejected" true
    (try Refine_mir.Mverify.check_func mf2; false with Refine_mir.Mverify.Invalid _ -> true);
  (* falling off the end *)
  let mf3 = Refine_mir.Mfunc.create "main" in
  let b3 = Refine_mir.Mfunc.add_block mf3 0 in
  b3.Refine_mir.Mfunc.code <- [ M.Mmov (R.gpr 0, M.Imm 0L) ];
  Alcotest.(check bool) "fallthrough off function rejected" true
    (try Refine_mir.Mverify.check_func mf3; false with Refine_mir.Mverify.Invalid _ -> true)

let tests =
  [
    Alcotest.test_case "no vregs after RA" `Quick test_no_virtual_registers_after_ra;
    Alcotest.test_case "prologue/epilogue" `Quick test_prologue_epilogue_present;
    Alcotest.test_case "cmp/jcc fusion" `Quick test_cmp_jcc_fusion;
    Alcotest.test_case "gep folding" `Quick test_gep_folding;
    Alcotest.test_case "call marshaling" `Quick test_calls_marshal_args;
    Alcotest.test_case "spilling under pressure" `Quick test_spilling_under_pressure;
    Alcotest.test_case "callee-saved across calls" `Quick test_callee_saved_across_calls;
    Alcotest.test_case "peephole self-moves" `Quick test_peephole_removes_self_moves;
    Alcotest.test_case "layout resolves labels" `Quick test_layout_resolves;
    Alcotest.test_case "layout requires main" `Quick test_layout_missing_main;
    Alcotest.test_case "critical edge splitting" `Quick test_split_critical_edges;
    Alcotest.test_case "mverify accepts backend output" `Quick test_mverify_accepts_backend_output;
    Alcotest.test_case "mverify rejects bad code" `Quick test_mverify_rejects_bad;
  ]
