(* IR core tests: builder, printer, verifier, CFG analyses and the
   reference interpreter. *)

module I = Refine_ir.Ir
module B = Refine_ir.Builder
module V = Refine_ir.Verify
module C = Refine_ir.Cfg
module P = Refine_ir.Printer
module In = Refine_ir.Interp

(* tiny module builder: one function [main], no globals *)
let mk_main build =
  let b, _ = B.create ~name:"main" ~params:[] ~ret:(Some I.I64) in
  build b;
  { I.globals = []; funcs = [ B.func b ] }

let test_builder_simple () =
  let m =
    mk_main (fun b ->
        let x = B.ibinop b I.Add (I.ICst 2L) (I.ICst 3L) in
        let y = B.ibinop b I.Mul x (I.ICst 10L) in
        B.terminate b (I.Ret (Some y)))
  in
  V.check_module m;
  let r = In.run m in
  Alcotest.(check int) "50" 50 r.In.exit_code

let test_builder_rejects_emit_after_term () =
  let b, _ = B.create ~name:"main" ~params:[] ~ret:(Some I.I64) in
  B.terminate b (I.Ret (Some (I.ICst 0L)));
  Alcotest.(check bool) "emit after terminator fails" true
    (try ignore (B.ibinop b I.Add (I.ICst 1L) (I.ICst 1L)); false
     with Invalid_argument _ -> true)

let test_printer_stable () =
  let m =
    mk_main (fun b ->
        let x = B.fbinop b I.Fadd (I.FCst 1.0) (I.FCst 2.5) in
        let i = B.cast b I.Fptosi x in
        B.terminate b (I.Ret (Some i)))
  in
  let s = P.string_of_func (List.hd m.I.funcs) in
  Alcotest.(check bool) "mentions fadd" true
    (let contains hay needle =
       let nh = String.length hay and nn = String.length needle in
       let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
       go 0
     in
     contains s "fadd" && contains s "fptosi" && contains s "ret")

(* --- verifier rejections --- *)

let expect_invalid what m =
  Alcotest.(check bool) what true (try V.check_module m; false with V.Invalid _ -> true)

let test_verify_double_def () =
  let b, _ = B.create ~name:"main" ~params:[] ~ret:(Some I.I64) in
  let x = match B.ibinop b I.Add (I.ICst 1L) (I.ICst 1L) with I.Var v -> v | _ -> assert false in
  B.emit b (I.Ibinop (x, I.Add, I.ICst 2L, I.ICst 2L));
  B.terminate b (I.Ret (Some (I.Var x)));
  expect_invalid "double definition" { I.globals = []; funcs = [ B.func b ] }

let test_verify_type_error () =
  let b, _ = B.create ~name:"main" ~params:[] ~ret:(Some I.I64) in
  let d = B.fresh b I.I64 in
  B.emit b (I.Fbinop (d, I.Fadd, I.FCst 1.0, I.FCst 2.0)); (* f64 result into i64 value *)
  B.terminate b (I.Ret (Some (I.Var d)));
  expect_invalid "fbinop into i64 dst" { I.globals = []; funcs = [ B.func b ] }

let test_verify_use_before_def () =
  let b, _ = B.create ~name:"main" ~params:[] ~ret:(Some I.I64) in
  let d = B.fresh b I.I64 in
  let e = B.fresh b I.I64 in
  B.emit b (I.Ibinop (d, I.Add, I.Var e, I.ICst 1L)); (* e used before defined *)
  B.emit b (I.Ibinop (e, I.Add, I.ICst 1L, I.ICst 1L));
  B.terminate b (I.Ret (Some (I.Var d)));
  expect_invalid "use before def" { I.globals = []; funcs = [ B.func b ] }

let test_verify_branch_target () =
  let b, _ = B.create ~name:"main" ~params:[] ~ret:(Some I.I64) in
  B.terminate b (I.Br 99);
  expect_invalid "missing label" { I.globals = []; funcs = [ B.func b ] }

let test_verify_unknown_callee () =
  let b, _ = B.create ~name:"main" ~params:[] ~ret:(Some I.I64) in
  ignore (B.call b (Some I.I64) "nonexistent" []);
  B.terminate b (I.Ret (Some (I.ICst 0L)));
  expect_invalid "unknown callee" { I.globals = []; funcs = [ B.func b ] }

let test_verify_gaddr_unknown () =
  let b, _ = B.create ~name:"main" ~params:[] ~ret:(Some I.I64) in
  ignore (B.gaddr b "nope");
  B.terminate b (I.Ret (Some (I.ICst 0L)));
  expect_invalid "unknown global" { I.globals = []; funcs = [ B.func b ] }

let test_verify_dominance () =
  (* def in one arm of a diamond, use after the join: not dominated *)
  let b, _ = B.create ~name:"main" ~params:[] ~ret:(Some I.I64) in
  let l1 = B.block b in
  let l2 = B.block b in
  let l3 = B.block b in
  B.terminate b (I.Cbr (I.ICst 1L, l1, l2));
  B.switch_to b l1;
  let x = B.ibinop b I.Add (I.ICst 1L) (I.ICst 2L) in
  B.terminate b (I.Br l3);
  B.switch_to b l2;
  B.terminate b (I.Br l3);
  B.switch_to b l3;
  B.terminate b (I.Ret (Some x));
  expect_invalid "non-dominating def" { I.globals = []; funcs = [ B.func b ] }

(* --- CFG analyses --- *)

(* diamond with a loop back edge:
   0 -> 1 -> 2 -> 4 ; 1 -> 3 -> 4 ; 4 -> 1 (back edge) and 4 -> 5 (exit) *)
let diamond_loop () =
  let b, _ = B.create ~name:"main" ~params:[] ~ret:(Some I.I64) in
  let l1 = B.block b and l2 = B.block b and l3 = B.block b in
  let l4 = B.block b and l5 = B.block b in
  B.terminate b (I.Br l1);
  B.switch_to b l1;
  B.terminate b (I.Cbr (I.ICst 1L, l2, l3));
  B.switch_to b l2;
  B.terminate b (I.Br l4);
  B.switch_to b l3;
  B.terminate b (I.Br l4);
  B.switch_to b l4;
  B.terminate b (I.Cbr (I.ICst 0L, l1, l5));
  B.switch_to b l5;
  B.terminate b (I.Ret (Some (I.ICst 0L)));
  (B.func b, l1, l2, l3, l4, l5)

let test_cfg_dominators () =
  let fn, l1, l2, l3, l4, l5 = diamond_loop () in
  let cfg = C.build fn in
  Alcotest.(check bool) "entry dominates all" true (C.dominates cfg 0 l5);
  Alcotest.(check bool) "l1 dominates l4" true (C.dominates cfg l1 l4);
  Alcotest.(check bool) "l2 does not dominate l4" false (C.dominates cfg l2 l4);
  Alcotest.(check (option int)) "idom of l4 is l1" (Some l1) (C.idom cfg l4);
  Alcotest.(check (option int)) "idom of l2 is l1" (Some l1) (C.idom cfg l2);
  ignore l3

let test_cfg_frontiers () =
  let fn, l1, l2, l3, l4, _ = diamond_loop () in
  let cfg = C.build fn in
  let df = C.dominance_frontiers cfg in
  Alcotest.(check bool) "l2's frontier contains l4" true (List.mem l4 (df l2));
  Alcotest.(check bool) "l3's frontier contains l4" true (List.mem l4 (df l3));
  (* l4 -> l1 back edge puts l1 in l4's (and l1's own) frontier *)
  Alcotest.(check bool) "l4's frontier contains l1" true (List.mem l1 (df l4))

let test_cfg_loops () =
  let fn, l1, _, _, l4, _ = diamond_loop () in
  let cfg = C.build fn in
  let loops = C.natural_loops cfg in
  Alcotest.(check int) "one loop" 1 (List.length loops);
  let lp = List.hd loops in
  Alcotest.(check int) "header is l1" l1 lp.C.header;
  Alcotest.(check bool) "body contains l4" true (List.mem l4 lp.C.body);
  Alcotest.(check bool) "body excludes entry" false (List.mem 0 lp.C.body)

let test_cfg_unreachable () =
  let b, _ = B.create ~name:"main" ~params:[] ~ret:(Some I.I64) in
  let dead = B.block b in
  B.terminate b (I.Ret (Some (I.ICst 0L)));
  B.switch_to b dead;
  B.terminate b (I.Ret (Some (I.ICst 1L)));
  let cfg = C.build (B.func b) in
  Alcotest.(check bool) "dead unreachable" false (C.reachable cfg dead)

(* --- interpreter semantics --- *)

let test_interp_arith_wrap () =
  Alcotest.(check int64) "wrap add" Int64.min_int
    (In.eval_ibinop I.Add Int64.max_int 1L);
  Alcotest.(check int64) "min/-1" Int64.min_int (In.eval_ibinop I.Div Int64.min_int (-1L));
  Alcotest.(check int64) "rem min/-1" 0L (In.eval_ibinop I.Rem Int64.min_int (-1L));
  Alcotest.(check int64) "shift masks to 6 bits" 2L (In.eval_ibinop I.Shl 1L 65L);
  Alcotest.(check int64) "ashr sign extends" (-1L) (In.eval_ibinop I.Ashr (-4L) 2L);
  Alcotest.(check int64) "lshr zero fills" 1L
    (In.eval_ibinop I.Lshr Int64.min_int 63L)

let test_interp_div_zero_traps () =
  Alcotest.(check bool) "div0" true
    (try ignore (In.eval_ibinop I.Div 1L 0L); false with In.Trap _ -> true)

let test_interp_fcmp_nan () =
  let nan = Float.nan in
  Alcotest.(check int64) "nan != nan" 1L (In.eval_fcmp I.Fne nan nan);
  Alcotest.(check int64) "nan == nan is false" 0L (In.eval_fcmp I.Feq nan nan);
  Alcotest.(check int64) "nan < x is false" 0L (In.eval_fcmp I.Flt nan 1.0)

let test_interp_fptosi () =
  Alcotest.(check int64) "truncates toward zero" 3L (In.fptosi 3.9);
  Alcotest.(check int64) "negative truncates" (-3L) (In.fptosi (-3.9));
  Alcotest.(check int64) "nan -> 0" 0L (In.fptosi Float.nan);
  Alcotest.(check int64) "+inf saturates" Int64.max_int (In.fptosi Float.infinity);
  Alcotest.(check int64) "-inf saturates" Int64.min_int (In.fptosi Float.neg_infinity)

let test_interp_memory_trap () =
  let m =
    mk_main (fun b ->
        let v = B.load b I.I64 (I.ICst 0L) in
        B.terminate b (I.Ret (Some v)))
  in
  Alcotest.(check bool) "null deref traps" true
    (try ignore (In.run m); false with In.Trap _ -> true)

let test_interp_fuel () =
  let b, _ = B.create ~name:"main" ~params:[] ~ret:(Some I.I64) in
  let l = B.block b in
  B.terminate b (I.Br l);
  B.switch_to b l;
  B.terminate b (I.Br l);
  let m = { I.globals = []; funcs = [ B.func b ] } in
  Alcotest.(check bool) "fuel exhausted" true
    (try ignore (In.run ~fuel:1000 m); false with In.Trap _ -> true)

let test_interp_phi_parallel () =
  (* swap phis: a,b = b,a each iteration; after 3 iterations of (1,2):
     (2,1) -> (1,2) -> (2,1); requires parallel phi evaluation *)
  let b, _ = B.create ~name:"main" ~params:[] ~ret:(Some I.I64) in
  let l = B.block b and e = B.block b in
  let fn = B.func b in
  let a_phi = B.fresh b I.I64 and b_phi = B.fresh b I.I64 and i_phi = B.fresh b I.I64 in
  B.terminate b (I.Br l);
  B.switch_to b l;
  let blk = I.find_block fn l in
  blk.I.phis <-
    [
      { I.pdst = a_phi; pty = I.I64; incoming = [ (0, I.ICst 1L); (l, I.Var b_phi) ] };
      { I.pdst = b_phi; pty = I.I64; incoming = [ (0, I.ICst 2L); (l, I.Var a_phi) ] };
      { I.pdst = i_phi; pty = I.I64; incoming = [ (0, I.ICst 0L); (l, I.ICst 0L) ] };
    ];
  let i' = B.ibinop b I.Add (I.Var i_phi) (I.ICst 1L) in
  (match List.nth blk.I.phis 2 with
  | p -> p.I.incoming <- [ (0, I.ICst 0L); (l, i') ]);
  let c = B.icmp b I.Ilt i' (I.ICst 3L) in
  B.terminate b (I.Cbr (c, l, e));
  B.switch_to b e;
  let r = B.ibinop b I.Mul (I.Var a_phi) (I.ICst 10L) in
  let r = B.ibinop b I.Add r (I.Var b_phi) in
  B.terminate b (I.Ret (Some r));
  let m = { I.globals = []; funcs = [ fn ] } in
  V.check_module m;
  let res = In.run m in
  (* three loop entries: (1,2) -> (2,1) -> (1,2); exits with a=1, b=2 *)
  Alcotest.(check int) "swap sequence" 12 res.In.exit_code

(* The interpreter's arena is committed page by page: a run of a small
   program writes its globals, a few stack and heap pages, so it must not
   make the whole [Memlayout.mem_size] resident.  Where the kernel's THP
   policy is "always", each of the two touched 2 MiB regions (globals and
   heap at the bottom, the stack at the top) may be one huge page.  An
   arena on the OCaml heap can escape the VmRSS bound when the allocator
   hands it the already-resident pages of an arena an earlier run freed,
   so the run's major-heap allocation is bounded too. *)
let test_interp_arena_lazy () =
  let m = Refine_minic.Frontend.compile Test_fastpath.src_float in
  let limit_kb = if Test_fastpath.thp_always () then (2 * 2048) + 1024 else 1024 in
  let before = Test_fastpath.vm_rss_kb () in
  let major_before = (Gc.quick_stat ()).Gc.major_words in
  let o = In.run m in
  let major_kb = ((Gc.quick_stat ()).Gc.major_words -. major_before) *. 8. /. 1024. in
  let grown = Test_fastpath.vm_rss_kb () - before in
  Alcotest.(check int) "ran to completion" 0 o.In.exit_code;
  if grown >= limit_kb then
    Alcotest.failf "one Interp.run raised VmRSS by %d KiB (limit %d KiB)" grown limit_kb;
  if major_kb >= 1024. then
    Alcotest.failf "one Interp.run allocated %.0f KiB on the major heap" major_kb

let tests =
  [
    Alcotest.test_case "builder simple" `Quick test_builder_simple;
    Alcotest.test_case "builder emit-after-term" `Quick test_builder_rejects_emit_after_term;
    Alcotest.test_case "printer stable" `Quick test_printer_stable;
    Alcotest.test_case "verify double def" `Quick test_verify_double_def;
    Alcotest.test_case "verify type error" `Quick test_verify_type_error;
    Alcotest.test_case "verify use before def" `Quick test_verify_use_before_def;
    Alcotest.test_case "verify branch target" `Quick test_verify_branch_target;
    Alcotest.test_case "verify unknown callee" `Quick test_verify_unknown_callee;
    Alcotest.test_case "verify unknown global" `Quick test_verify_gaddr_unknown;
    Alcotest.test_case "verify dominance" `Quick test_verify_dominance;
    Alcotest.test_case "cfg dominators" `Quick test_cfg_dominators;
    Alcotest.test_case "cfg dominance frontiers" `Quick test_cfg_frontiers;
    Alcotest.test_case "cfg natural loops" `Quick test_cfg_loops;
    Alcotest.test_case "cfg unreachable" `Quick test_cfg_unreachable;
    Alcotest.test_case "interp integer semantics" `Quick test_interp_arith_wrap;
    Alcotest.test_case "interp div-by-zero" `Quick test_interp_div_zero_traps;
    Alcotest.test_case "interp NaN compares" `Quick test_interp_fcmp_nan;
    Alcotest.test_case "interp fptosi" `Quick test_interp_fptosi;
    Alcotest.test_case "interp memory trap" `Quick test_interp_memory_trap;
    Alcotest.test_case "interp fuel" `Quick test_interp_fuel;
    Alcotest.test_case "interp parallel phis" `Quick test_interp_phi_parallel;
    Alcotest.test_case "interp run makes only touched pages resident" `Quick
      test_interp_arena_lazy;
  ]
