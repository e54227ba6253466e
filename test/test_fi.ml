(* Fault-injection framework tests: selection flags, the REFINE backend
   pass, the LLFI IR pass, PINFI, outcome classification and tool-level
   invariants (profiling transparency, population agreement, determinism). *)

module T = Refine_core.Tool
module F = Refine_core.Fault
module Sel = Refine_passes.Selection
module M = Refine_mir.Minstr
module R = Refine_mir.Reg
module I = Refine_ir.Ir
module P = Refine_support.Prng
module E = Refine_machine.Exec

let src =
  {|
global float acc;
float work(float[] a, int m) {
  float s = 0.0;
  int i;
  for (i = 0; i < m; i = i + 1) { s = s + a[i] * a[i] + 0.5; }
  return s;
}
int main() {
  int i;
  float[] h = alloc_float(32);
  for (i = 0; i < 32; i = i + 1) { h[i] = tofloat(i % 7) * 0.25; }
  acc = work(h, 32);
  print_float(acc);
  print_int(toint(acc));
  return 0;
}
|}

(* ---- selection ---- *)

let test_selection_classes () =
  let mk c = Sel.{ funcs = [ "*" ]; instrs = c } in
  let add = M.Mbin (I.Add, R.gpr 1, R.gpr 1, M.Imm 1L) in
  let push = M.Mpush (R.gpr 1) in
  let load = M.Mload (R.gpr 1, R.gpr 2, 0) in
  let store = M.Mstore (R.gpr 1, R.gpr 2, 0) in
  Alcotest.(check bool) "all/add" true (Sel.minstr_selected (mk Sel.All) add);
  Alcotest.(check bool) "all/store (no outputs)" false (Sel.minstr_selected (mk Sel.All) store);
  Alcotest.(check bool) "stack/push" true (Sel.minstr_selected (mk Sel.Stack) push);
  Alcotest.(check bool) "stack/add" false (Sel.minstr_selected (mk Sel.Stack) add);
  Alcotest.(check bool) "arith/add" true (Sel.minstr_selected (mk Sel.Arith) add);
  Alcotest.(check bool) "mem/load" true (Sel.minstr_selected (mk Sel.Mem) load);
  Alcotest.(check bool) "mem/add" false (Sel.minstr_selected (mk Sel.Mem) add)

let test_selection_funcs () =
  let s = Sel.{ funcs = [ "work" ]; instrs = Sel.All } in
  Alcotest.(check bool) "selected" true (Sel.func_selected s "work");
  Alcotest.(check bool) "not selected" false (Sel.func_selected s "main");
  Alcotest.(check bool) "wildcard" true (Sel.func_selected Sel.default "anything")

let test_selection_ir_no_stack () =
  (* the IR has no stack instructions: the structural gap of Table 1 *)
  let s = Sel.{ funcs = [ "*" ]; instrs = Sel.Stack } in
  let add = I.Ibinop (0, I.Add, I.ICst 1L, I.ICst 2L) in
  let alloca = I.Alloca (1, 8) in
  Alcotest.(check bool) "no IR stack targets" false (Sel.ir_instr_selected s add);
  Alcotest.(check bool) "alloca never a target" false
    (Sel.ir_instr_selected Sel.default alloca)

let test_selection_strings () =
  Alcotest.(check string) "all" "all" (Sel.string_of_instr_class Sel.All);
  Alcotest.(check bool) "roundtrip" true
    (List.for_all
       (fun c -> Sel.instr_class_of_string (Sel.string_of_instr_class c) = c)
       [ Sel.All; Sel.Stack; Sel.Arith; Sel.Mem ])

(* ---- classification ---- *)

let profile : F.profile =
  { F.golden_output = "ok\n"; golden_exit = 0; dyn_count = 100L; profile_cost = 1000L }

let res status output = { E.status; output; steps = 0L; cost = 0L; truncated = false; detached = false; drain_steps = 0 }

let test_classify () =
  Alcotest.(check bool) "benign" true
    (F.classify profile (res (E.Exited 0) "ok\n") = F.Benign);
  Alcotest.(check bool) "soc" true
    (F.classify profile (res (E.Exited 0) "corrupted\n") = F.Soc);
  Alcotest.(check bool) "crash on exit code" true
    (F.classify profile (res (E.Exited 1) "ok\n") = F.Crash);
  Alcotest.(check bool) "crash on trap" true
    (F.classify profile (res (E.Trapped E.Div_by_zero) "ok\n") = F.Crash);
  Alcotest.(check bool) "crash on timeout" true
    (F.classify profile (res E.Timed_out "ok\n") = F.Crash)

(* ---- profiling transparency: the FI binary reproduces the golden run ---- *)

let test_profile_transparency () =
  let clean = T.prepare T.Pinfi src in
  List.iter
    (fun kind ->
      let p = T.prepare kind src in
      Alcotest.(check string)
        (T.kind_name kind ^ " profiling output = native output")
        clean.T.profile.F.golden_output p.T.profile.F.golden_output)
    [ T.Refine; T.Llfi ]

let test_population_refine_vs_pinfi () =
  (* same dynamic population modulo ret instructions, which REFINE cannot
     instrument (paper §4.2.3: it splices blocks *after* the instruction) *)
  let refine = T.prepare T.Refine src in
  let pinfi = T.prepare T.Pinfi src in
  let diff = Int64.sub pinfi.T.profile.F.dyn_count refine.T.profile.F.dyn_count in
  Alcotest.(check bool) "PINFI sees slightly more (rets)" true
    (Int64.compare diff 0L >= 0);
  Alcotest.(check bool) "difference is tiny" true (Int64.compare diff 50L < 0)

let test_population_llfi_smaller () =
  (* IR-level FI sees far fewer dynamic targets: no prologue/epilogue,
     spills, flag writes, address materialization *)
  let llfi = T.prepare T.Llfi src in
  let pinfi = T.prepare T.Pinfi src in
  Alcotest.(check bool) "LLFI population smaller" true
    (Int64.compare llfi.T.profile.F.dyn_count pinfi.T.profile.F.dyn_count < 0)

let test_refine_static_counts () =
  let refine = T.prepare T.Refine src in
  let llfi = T.prepare T.Llfi src in
  Alcotest.(check bool) "refine instrumented sites > 0" true (refine.T.static_instrumented > 0);
  Alcotest.(check bool) "llfi instrumented sites > 0" true (llfi.T.static_instrumented > 0);
  Alcotest.(check bool) "refine instruments more sites than llfi" true
    (refine.T.static_instrumented > llfi.T.static_instrumented)

(* ---- injection determinism and fault records ---- *)

let test_injection_deterministic () =
  List.iter
    (fun kind ->
      let p = T.prepare kind src in
      let run seed = T.run_injection p (P.create seed) in
      let a = run 11 and b = run 11 in
      Alcotest.(check bool)
        (T.kind_name kind ^ " same seed, same outcome")
        true
        (a.F.outcome = b.F.outcome && a.F.fault = b.F.fault && a.F.run_cost = b.F.run_cost))
    [ T.Refine; T.Llfi; T.Pinfi ]

let test_injection_fires () =
  List.iter
    (fun kind ->
      let p = T.prepare kind src in
      let fired = ref 0 in
      for seed = 1 to 30 do
        match (T.run_injection p (P.create seed)).F.fault with
        | Some r ->
          incr fired;
          Alcotest.(check bool) "bit in range" true (r.F.bit >= 0 && r.F.bit < 64);
          Alcotest.(check bool) "dyn index positive" true (Int64.compare r.F.dyn_index 0L > 0)
        | None -> ()
      done;
      Alcotest.(check bool)
        (T.kind_name kind ^ " most injections fire")
        true (!fired >= 28))
    [ T.Refine; T.Llfi; T.Pinfi ]

let test_outcomes_vary () =
  (* over enough injections every tool should see at least benign plus a
     non-benign outcome on this program *)
  List.iter
    (fun kind ->
      let p = T.prepare kind src in
      let seen = Hashtbl.create 4 in
      for seed = 1 to 60 do
        Hashtbl.replace seen (T.run_injection p (P.create seed)).F.outcome ()
      done;
      Alcotest.(check bool)
        (T.kind_name kind ^ " sees multiple outcome kinds")
        true
        (Hashtbl.length seen >= 2))
    [ T.Refine; T.Llfi; T.Pinfi ]

(* ---- REFINE pass structure ---- *)

let build_mir source =
  let m = Refine_minic.Frontend.compile source in
  Refine_passes.Pipeline.optimize Refine_passes.Pipeline.O2 m;
  (m, Refine_passes.Pipeline.to_mir m)

let test_refine_pass_adds_blocks () =
  let _, funcs = build_mir src in
  let before =
    List.fold_left (fun acc (mf : Refine_mir.Mfunc.t) -> acc + List.length mf.Refine_mir.Mfunc.blocks) 0 funcs
  in
  let n = List.fold_left (fun acc mf -> acc + Refine_passes.Refine_pass.run mf) 0 funcs in
  let after =
    List.fold_left (fun acc (mf : Refine_mir.Mfunc.t) -> acc + List.length mf.Refine_mir.Mfunc.blocks) 0 funcs
  in
  Alcotest.(check bool) "instrumented sites" true (n > 0);
  (* each site adds >= 4 blocks (SetupFI, FI_k..., FIdone, PostFI) *)
  Alcotest.(check bool) "blocks spliced" true (after - before >= 4 * n)

let test_refine_pass_calls_library () =
  let _, funcs = build_mir src in
  List.iter (fun mf -> ignore (Refine_passes.Refine_pass.run mf)) funcs;
  let calls = ref 0 in
  List.iter
    (fun (mf : Refine_mir.Mfunc.t) ->
      List.iter
        (fun (b : Refine_mir.Mfunc.mblock) ->
          List.iter
            (function
              | M.Mcallext "fi_sel_instr" | M.Mcallext "fi_setup_fi" -> incr calls
              | _ -> ())
            b.Refine_mir.Mfunc.code)
        mf.Refine_mir.Mfunc.blocks)
    funcs;
  Alcotest.(check bool) "selInstr/setupFI calls emitted" true (!calls > 0)

let test_refine_pass_respects_selection () =
  let _, funcs = build_mir src in
  let sel = Sel.{ funcs = [ "work" ]; instrs = Sel.All } in
  List.iter
    (fun (mf : Refine_mir.Mfunc.t) ->
      let n = Refine_passes.Refine_pass.run ~sel mf in
      if mf.Refine_mir.Mfunc.mname = "work" then
        Alcotest.(check bool) "work instrumented" true (n > 0)
      else Alcotest.(check int) (mf.Refine_mir.Mfunc.mname ^ " untouched") 0 n)
    funcs

(* ---- LLFI pass structure ---- *)

let test_llfi_pass_valid_ir () =
  let m = Refine_minic.Frontend.compile src in
  Refine_passes.Pipeline.optimize Refine_passes.Pipeline.O2 m;
  let n = Refine_passes.Llfi_pass.run m in
  Alcotest.(check bool) "instrumented" true (n > 0);
  Refine_ir.Verify.check_module m

let test_llfi_pass_rewrites_uses () =
  let m =
    Refine_minic.Frontend.compile
      "global int a = 3; int main() { print_int(a * a); return 0; }"
  in
  Refine_passes.Pipeline.optimize Refine_passes.Pipeline.O2 m;
  ignore (Refine_passes.Llfi_pass.run m);
  Refine_ir.Verify.check_module m;
  (* semantics preserved when the runtime passes values through *)
  let image = Refine_passes.Pipeline.compile m in
  let ctrl = Refine_core.Runtime.create Refine_core.Runtime.Profile in
  let eng = E.create ~ext_extra:(Refine_core.Runtime.llfi_handlers ctrl) image in
  let r = E.run eng in
  Alcotest.(check string) "passthrough output" "9\n" r.E.output;
  Alcotest.(check bool) "counted" true (ctrl.Refine_core.Runtime.count > 0)

let test_llfi_forced_flip () =
  (* inject at a known target and verify the output actually changes or the
     run crashes: a flip of the printed value's source *)
  let p = T.prepare T.Llfi "global int a = 3; int main() { print_int(a * a); return 0; }" in
  Alcotest.(check bool) "tiny population" true (Int64.compare p.T.profile.F.dyn_count 10L < 0);
  let changed = ref 0 in
  for seed = 1 to 40 do
    let e = T.run_injection p (P.create seed) in
    if e.F.outcome <> F.Benign then incr changed
  done;
  (* flipping a bit of the only computed value almost always corrupts the
     printed output *)
  Alcotest.(check bool) "most flips visible" true (!changed > 25)

(* ---- ablation: PreFI must preserve FLAGS (paper Figure 2) ---- *)

let test_refine_flags_save_ablation () =
  (* with save_flags=false the instrumentation's own compare corrupts the
     application's branches, so even the *profiling* run diverges from the
     golden output — the negative control for REFINE's state saving *)
  let m = Refine_minic.Frontend.compile src in
  Refine_passes.Pipeline.optimize Refine_passes.Pipeline.O2 m;
  let funcs = Refine_passes.Pipeline.to_mir m in
  List.iter (fun mf -> ignore (Refine_passes.Refine_pass.run ~save_flags:false mf)) funcs;
  let image = Refine_passes.Pipeline.emit m funcs in
  let ctrl = Refine_core.Runtime.create Refine_core.Runtime.Profile in
  let eng = E.create ~ext_extra:(Refine_core.Runtime.refine_handlers ctrl) image in
  let r = E.run ~max_cost:100_000_000L eng in
  let golden = (T.prepare T.Pinfi src).T.profile.F.golden_output in
  let diverged =
    match r.E.status with
    | E.Exited 0 -> r.E.output <> golden
    | _ -> true (* crash/timeout is also divergence *)
  in
  Alcotest.(check bool) "omitting pushf/popf corrupts the program" true diverged

(* ---- per-class population consistency, REFINE vs PINFI ---- *)

let test_class_populations_consistent () =
  (* for each -fi-instrs class, REFINE and PINFI must count (nearly) the
     same dynamic population: same predicate over the same instruction
     stream, modulo rets (counted only by PINFI, and only under All) *)
  List.iter
    (fun cls ->
      let sel = Sel.{ funcs = [ "*" ]; instrs = cls } in
      let refine = T.prepare ~sel T.Refine src in
      let pinfi = T.prepare ~sel T.Pinfi src in
      let d =
        Int64.sub pinfi.T.profile.F.dyn_count refine.T.profile.F.dyn_count
      in
      Alcotest.(check bool)
        (Printf.sprintf "class %s: |PINFI - REFINE| small (%Ld)"
           (Sel.string_of_instr_class cls) d)
        true
        (Int64.compare d 0L >= 0 && Int64.compare d 50L < 0))
    [ Sel.All; Sel.Stack; Sel.Arith; Sel.Mem ]

(* ---- PINFI ---- *)

let test_pinfi_detach () =
  let p = T.prepare T.Pinfi src in
  (* a fired pinfi run must cost less than a fully attached one of the same
     dynamic length (the detach optimization) *)
  let attached_cost = p.T.profile.F.profile_cost in
  let e = T.run_injection p (P.create 3) in
  Alcotest.(check bool) "injection cheaper than profiling" true
    (Int64.compare e.F.run_cost attached_cost < 0)

let test_pinfi_profile_counts () =
  let p = T.prepare T.Pinfi src in
  Alcotest.(check bool) "population nonempty" true
    (Int64.compare p.T.profile.F.dyn_count 0L > 0)

(* ---- timeout classification end-to-end ---- *)

let test_timeout_classified_as_crash () =
  (* a flip of the loop counter can make the loop effectively endless; with
     enough seeds at least one run must hit the 10x timeout or crash; more
     importantly, no run may hang forever *)
  let p =
    T.prepare T.Pinfi
      {|
int main() {
  int i;
  int s = 0;
  for (i = 0; i < 2000; i = i + 1) { s = s + i; }
  print_int(s);
  return 0;
}
|}
  in
  for seed = 1 to 50 do
    ignore (T.run_injection p (P.create seed))
  done;
  Alcotest.(check pass) "no hang" () ()

let test_kind_names () =
  List.iter
    (fun k ->
      Alcotest.(check bool) (T.kind_name k ^ " inverts") true (T.kind_of_name (T.kind_name k) = Some k))
    [ T.Refine; T.Llfi; T.Pinfi ];
  Alcotest.(check bool) "unknown name" true (T.kind_of_name "opcode" = None)

let tests =
  [
    Alcotest.test_case "tool names round-trip" `Quick test_kind_names;
    Alcotest.test_case "selection classes" `Quick test_selection_classes;
    Alcotest.test_case "selection functions" `Quick test_selection_funcs;
    Alcotest.test_case "IR has no stack targets" `Quick test_selection_ir_no_stack;
    Alcotest.test_case "selection strings" `Quick test_selection_strings;
    Alcotest.test_case "classification rules" `Quick test_classify;
    Alcotest.test_case "profiling transparency" `Quick test_profile_transparency;
    Alcotest.test_case "REFINE vs PINFI population" `Quick test_population_refine_vs_pinfi;
    Alcotest.test_case "LLFI population smaller" `Quick test_population_llfi_smaller;
    Alcotest.test_case "static instrumentation counts" `Quick test_refine_static_counts;
    Alcotest.test_case "injection deterministic" `Quick test_injection_deterministic;
    Alcotest.test_case "injection fires" `Quick test_injection_fires;
    Alcotest.test_case "outcomes vary" `Quick test_outcomes_vary;
    Alcotest.test_case "REFINE pass adds blocks" `Quick test_refine_pass_adds_blocks;
    Alcotest.test_case "REFINE pass calls library" `Quick test_refine_pass_calls_library;
    Alcotest.test_case "REFINE pass selection" `Quick test_refine_pass_respects_selection;
    Alcotest.test_case "LLFI pass valid IR" `Quick test_llfi_pass_valid_ir;
    Alcotest.test_case "LLFI pass passthrough" `Quick test_llfi_pass_rewrites_uses;
    Alcotest.test_case "LLFI forced flip visible" `Quick test_llfi_forced_flip;
    Alcotest.test_case "ablation: flags save required" `Quick test_refine_flags_save_ablation;
    Alcotest.test_case "per-class population consistency" `Quick test_class_populations_consistent;
    Alcotest.test_case "PINFI detach saves cost" `Quick test_pinfi_detach;
    Alcotest.test_case "PINFI profile counts" `Quick test_pinfi_profile_counts;
    Alcotest.test_case "timeouts terminate" `Quick test_timeout_classified_as_crash;
  ]
