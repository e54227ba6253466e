(* Machine simulator tests: ISA semantics, flags/condition codes, memory
   and stack traps, extern dispatch, cost accounting and hooks. *)

module M = Refine_mir.Minstr
module R = Refine_mir.Reg
module MF = Refine_mir.Mfunc
module E = Refine_machine.Exec
module L = Refine_backend.Layout

(* Build a one-function image directly from machine instructions.  Each
   instruction gets its own block labeled with its index, so jump targets in
   the tests below read as absolute instruction addresses. *)
let image_of ?(globals = []) instrs =
  let mf = MF.create "main" in
  List.iteri
    (fun k i ->
      let b = MF.add_block mf k in
      b.MF.code <- [ i ])
    instrs;
  L.build ~globals [ mf ]

let run ?(max_cost = 1_000_000L) instrs =
  let eng = E.create (image_of instrs) in
  (E.run ~max_cost eng, eng)

let exit_code (r : E.result) =
  match r.E.status with E.Exited c -> c | _ -> Alcotest.fail "expected clean exit"

let halt_with v = [ M.Mmov (R.ret_gpr, M.Imm v); M.Mhalt ]

let test_mov_and_halt () =
  let r, _ = run (halt_with 7L) in
  Alcotest.(check int) "exit 7" 7 (exit_code r)

let test_arith_flags () =
  (* 5 - 5 sets ZF; jcc eq taken *)
  let r, _ =
    run
      [
        M.Mmov (R.gpr 1, M.Imm 5L);
        M.Mbin (Refine_ir.Ir.Sub, R.gpr 1, R.gpr 1, M.Imm 5L);
        M.Mjcc (M.CEq, 4);
        M.Mhalt; (* skipped *)
        M.Mmov (R.ret_gpr, M.Imm 1L);
        M.Mhalt;
      ]
  in
  Alcotest.(check int) "took eq branch" 1 (exit_code r)

let test_signed_compare () =
  (* -1 < 1 signed *)
  let r, _ =
    run
      [
        M.Mmov (R.gpr 1, M.Imm (-1L));
        M.Mcmp (R.gpr 1, M.Imm 1L);
        M.Msetcc (M.CLt, R.ret_gpr);
        M.Mhalt;
      ]
  in
  Alcotest.(check int) "signed lt" 1 (exit_code r)

let test_float_nan_cc () =
  let nan_bits = Int64.bits_of_float Float.nan in
  let r, _ =
    run
      [
        M.Mmov (R.fpr 1, M.Imm nan_bits);
        M.Mmov (R.fpr 2, M.Imm (Int64.bits_of_float 1.0));
        M.Mfcmp (R.fpr 1, R.fpr 2);
        M.Msetcc (M.CFne, R.ret_gpr); (* true on NaN *)
        M.Msetcc (M.CFlt, R.gpr 1); (* false on NaN *)
        M.Mbin (Refine_ir.Ir.Shl, R.gpr 1, R.gpr 1, M.Imm 1L);
        M.Mbin (Refine_ir.Ir.Or, R.ret_gpr, R.ret_gpr, M.Reg (R.gpr 1));
        M.Mhalt;
      ]
  in
  Alcotest.(check int) "fne=1, flt=0" 1 (exit_code r)

let test_div_by_zero_trap () =
  let r, _ =
    run
      [
        M.Mmov (R.gpr 1, M.Imm 10L);
        M.Mmov (R.gpr 2, M.Imm 0L);
        M.Mbin (Refine_ir.Ir.Div, R.gpr 1, R.gpr 1, M.Reg (R.gpr 2));
        M.Mhalt;
      ]
  in
  (match r.E.status with
  | E.Trapped E.Div_by_zero -> ()
  | _ -> Alcotest.fail "expected div-by-zero trap")

let test_memory_fault () =
  let r, _ = run [ M.Mmov (R.gpr 1, M.Imm 0L); M.Mload (R.gpr 2, R.gpr 1, 0); M.Mhalt ] in
  (match r.E.status with
  | E.Trapped (E.Mem_fault 0) -> ()
  | _ -> Alcotest.fail "expected memory fault at 0")

let test_memory_fault_high () =
  let addr = Int64.of_int (Refine_ir.Memlayout.mem_size + 100) in
  let r, _ = run [ M.Mmov (R.gpr 1, M.Imm addr); M.Mstore (R.gpr 1, R.gpr 1, 0); M.Mhalt ] in
  (match r.E.status with
  | E.Trapped (E.Mem_fault _) -> ()
  | _ -> Alcotest.fail "expected memory fault")

let test_push_pop () =
  let r, _ =
    run
      [
        M.Mmov (R.gpr 1, M.Imm 123L);
        M.Mpush (R.gpr 1);
        M.Mpop R.ret_gpr;
        M.Mhalt;
      ]
  in
  Alcotest.(check int) "roundtrip" 123 (exit_code r)

let test_pushf_popf () =
  let r, _ =
    run
      [
        M.Mmov (R.gpr 1, M.Imm 5L);
        M.Mcmp (R.gpr 1, M.Imm 5L); (* ZF set *)
        M.Mpushf;
        M.Mmov (R.gpr 2, M.Imm 1L);
        M.Mcmp (R.gpr 2, M.Imm 9L); (* clobber flags *)
        M.Mpopf;
        M.Msetcc (M.CEq, R.ret_gpr); (* restored ZF *)
        M.Mhalt;
      ]
  in
  Alcotest.(check int) "flags restored" 1 (exit_code r)

let test_stack_overflow () =
  (* an infinite push loop overruns the stack region *)
  let r, _ =
    run ~max_cost:100_000_000L [ M.Mpush (R.gpr 1); M.Mjmp 0 ]
  in
  (match r.E.status with
  | E.Trapped E.Stack_overflow -> ()
  | _ -> Alcotest.fail "expected stack overflow")

let test_bad_return_address () =
  (* corrupting the stored return address crashes at ret *)
  let r, _ =
    run
      [
        M.Mmov (R.gpr 1, M.Imm 999_999L);
        M.Mpush (R.gpr 1);
        M.Mret;
      ]
  in
  (match r.E.status with
  | E.Trapped (E.Bad_pc _) -> ()
  | _ -> Alcotest.fail "expected bad pc")

let test_timeout () =
  let r, _ = run ~max_cost:1000L [ M.Mjmp 0 ] in
  (match r.E.status with
  | E.Timed_out -> ()
  | _ -> Alcotest.fail "expected timeout")

let test_xorbit () =
  let r, _ =
    run
      [
        M.Mmov (R.gpr 1, M.Imm 0L);
        M.Mmov (R.gpr 2, M.Imm 4L); (* bit index *)
        M.Mxorbit (R.gpr 1, R.gpr 2);
        M.Mmov (R.ret_gpr, M.Reg (R.gpr 1));
        M.Mhalt;
      ]
  in
  Alcotest.(check int) "bit 4 set" 16 (exit_code r)

let test_xorbitmem () =
  let r, _ =
    run
      [
        M.Mmov (R.gpr 1, M.Imm 0L);
        M.Mpush (R.gpr 1); (* [rsp] = 0 *)
        M.Mmov (R.gpr 2, M.Imm 3L);
        M.Mxorbitmem (R.rsp, 0, R.gpr 2);
        M.Mpop R.ret_gpr;
        M.Mhalt;
      ]
  in
  Alcotest.(check int) "bit 3 set in memory" 8 (exit_code r)

let test_extern_print () =
  let r, _ =
    run
      [
        M.Mmov (R.gpr 1, M.Imm 55L);
        M.Mcallext "print_int";
        M.Mmov (R.ret_gpr, M.Imm 0L);
        M.Mhalt;
      ]
  in
  Alcotest.(check string) "printed" "55\n" r.E.output

let test_extern_cost () =
  let r_plain, _ = run [ M.Mmov (R.ret_gpr, M.Imm 0L); M.Mhalt ] in
  let r_ext, _ =
    run [ M.Mmov (R.fpr 1, M.Imm (Int64.bits_of_float 1.0)); M.Mcallext "sin"; M.Mhalt ]
  in
  Alcotest.(check bool) "extern costs more than its instruction count" true
    (Int64.compare r_ext.E.cost (Int64.add r_plain.E.cost (Int64.of_int E.ext_call_cost)) >= 0)

let test_extern_exit () =
  let r, _ =
    run [ M.Mmov (R.gpr 1, M.Imm 3L); M.Mcallext "exit"; M.Mjmp 2 ]
  in
  Alcotest.(check int) "exit code" 3 (exit_code r)

let test_custom_handler_and_cost () =
  let called = ref 0 in
  let image = image_of [ M.Mcallext "my_fn"; M.Mmov (R.ret_gpr, M.Imm 0L); M.Mhalt ] in
  let eng =
    E.create
      ~ext_extra:[ ("my_fn", 7, fun _ -> incr called) ]
      image
  in
  let r = E.run eng in
  Alcotest.(check int) "handler called" 1 !called;
  (* 3 instructions + 7 extern cost *)
  Alcotest.(check int64) "cost" 10L r.E.cost

let test_post_hook_and_detach () =
  let seen = ref 0 in
  let image = image_of (halt_with 0L) in
  let eng = E.create image in
  eng.E.post_hook <-
    Some
      {
        E.on_instr =
          (fun e _ _ ->
            incr seen;
            if !seen = 1 then e.E.post_hook <- None);
        hook_cost = 4;
        hook_pcs = Array.make (Array.length image.L.code) true;
      };
  let r = E.run eng in
  Alcotest.(check int) "hook detached after first instr" 1 !seen;
  (* first instruction costs 1+4, second costs 1 *)
  Alcotest.(check int64) "hook cost charged while attached" 6L r.E.cost

let test_call_and_ret () =
  (* main calls f at index 3; f returns 9 *)
  let mf_main = MF.create "main" in
  let b = MF.add_block mf_main 0 in
  b.MF.code <- [ M.Mcall "f"; M.Mhalt ];
  let mf_f = MF.create "f" in
  let bf = MF.add_block mf_f 0 in
  bf.MF.code <- [ M.Mmov (R.ret_gpr, M.Imm 9L); M.Mret ];
  let image = L.build ~globals:[] [ mf_main; mf_f ] in
  let eng = E.create image in
  let r = E.run eng in
  Alcotest.(check int) "returned value" 9 (exit_code r);
  Alcotest.(check string) "func_at" "f" (L.func_at image 2)

let test_globals_initialized () =
  let g = { Refine_ir.Ir.gname = "g"; gsize = 8; gbytes = Some "\x2a\x00\x00\x00\x00\x00\x00\x00" } in
  let image =
    image_of ~globals:[ g ]
      [
        M.Mmov (R.gpr 1, M.Imm (Int64.of_int Refine_ir.Memlayout.globals_base));
        M.Mload (R.ret_gpr, R.gpr 1, 0);
        M.Mhalt;
      ]
  in
  let eng = E.create image in
  let r = E.run eng in
  Alcotest.(check int) "init value" 42 (exit_code r)

let test_outputs_inputs_model () =
  (* the FI population predicate must agree with the outputs list *)
  let samples =
    [
      M.Mmov (R.gpr 1, M.Imm 0L);
      M.Mbin (Refine_ir.Ir.Add, R.gpr 1, R.gpr 1, M.Imm 1L);
      M.Mstore (R.gpr 1, R.gpr 2, 0);
      M.Mjmp 0;
      M.Mcmp (R.gpr 1, M.Imm 0L);
      M.Mpush (R.gpr 1);
      M.Mret;
      M.Mcallext "print_int";
      M.Mhalt;
    ]
  in
  List.iter
    (fun i ->
      Alcotest.(check bool)
        ("writes_register agrees with outputs: " ^ Refine_mir.Mprinter.to_string i)
        (M.outputs i <> []) (M.writes_register i))
    samples;
  (* an ALU op writes its destination and FLAGS: the paper's multi-output
     operand case *)
  Alcotest.(check int) "alu has two outputs" 2
    (List.length (M.outputs (M.Mbin (Refine_ir.Ir.Add, R.gpr 1, R.gpr 1, M.Imm 1L))))

let test_flags_width () =
  Alcotest.(check int) "flags width" 4 (R.width_bits R.flags);
  Alcotest.(check int) "gpr width" 64 (R.width_bits (R.gpr 3))

let tests =
  [
    Alcotest.test_case "mov/halt" `Quick test_mov_and_halt;
    Alcotest.test_case "arith sets flags" `Quick test_arith_flags;
    Alcotest.test_case "signed compare" `Quick test_signed_compare;
    Alcotest.test_case "NaN condition codes" `Quick test_float_nan_cc;
    Alcotest.test_case "div-by-zero trap" `Quick test_div_by_zero_trap;
    Alcotest.test_case "null deref trap" `Quick test_memory_fault;
    Alcotest.test_case "high address trap" `Quick test_memory_fault_high;
    Alcotest.test_case "push/pop" `Quick test_push_pop;
    Alcotest.test_case "pushf/popf" `Quick test_pushf_popf;
    Alcotest.test_case "stack overflow" `Quick test_stack_overflow;
    Alcotest.test_case "bad return address" `Quick test_bad_return_address;
    Alcotest.test_case "timeout" `Quick test_timeout;
    Alcotest.test_case "xorbit" `Quick test_xorbit;
    Alcotest.test_case "xorbitmem" `Quick test_xorbitmem;
    Alcotest.test_case "extern print" `Quick test_extern_print;
    Alcotest.test_case "extern cost" `Quick test_extern_cost;
    Alcotest.test_case "extern exit" `Quick test_extern_exit;
    Alcotest.test_case "custom ext handler" `Quick test_custom_handler_and_cost;
    Alcotest.test_case "post hook + detach" `Quick test_post_hook_and_detach;
    Alcotest.test_case "call/ret" `Quick test_call_and_ret;
    Alcotest.test_case "globals initialized" `Quick test_globals_initialized;
    Alcotest.test_case "outputs model" `Quick test_outputs_inputs_model;
    Alcotest.test_case "flags width" `Quick test_flags_width;
  ]
