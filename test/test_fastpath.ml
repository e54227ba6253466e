(* Fast-path equivalence tests (DESIGN.md §14).

   The executor fast path — touched-page snapshot/reset engine reuse,
   unboxed int counters and register file, a lazily committed arena,
   pre-resolved extern dispatch — must be invisible in results: a reset
   engine is bit-identical to a fresh one, also after moving between
   binaries, on every field the reset contract names; both the [step]
   loop and the decoded dispatch loop allocate
   nothing per instruction when profiling is off, and the decoded loop
   nothing either when it computes values; a new engine makes only the
   pages it loads resident. *)

module M = Refine_mir.Minstr
module R = Refine_mir.Reg
module MF = Refine_mir.Mfunc
module Mem = Refine_ir.Memlayout
module E = Refine_machine.Exec
module L = Refine_backend.Layout
module P = Refine_support.Prng
module T = Refine_core.Tool
module Ex = Refine_campaign.Experiment

let image_of ?(globals = []) instrs =
  let mf = MF.create "main" in
  List.iteri
    (fun k i ->
      let b = MF.add_block mf k in
      b.MF.code <- [ i ])
    instrs;
  L.build ~globals [ mf ]

let pp_result fmt (r : E.result) =
  Format.fprintf fmt "status=%s out=%S steps=%Ld cost=%Ld trunc=%b"
    (match r.E.status with
    | E.Running -> "running"
    | E.Exited c -> Printf.sprintf "exit %d" c
    | E.Trapped tr -> "trap: " ^ E.string_of_trap tr
    | E.Timed_out -> "timeout")
    r.E.output r.E.steps r.E.cost r.E.truncated

let result_t = Alcotest.testable pp_result ( = )

(* --- engine-level differential: fresh vs snapshot vs reset ------------- *)

let compile_image seed =
  let m = Refine_minic.Frontend.compile (Test_semantics.gen_program seed) in
  Refine_passes.Pipeline.optimize Refine_passes.Pipeline.O2 m;
  Refine_passes.Pipeline.compile m

(* a hook declaration covering every code slot of the engine's image *)
let every_pc (eng : E.t) = Array.make (Array.length eng.E.image.L.code) true

(* Deterministic single-bit register fault at a dynamic instruction
   instance, via the DBI hook — the same fault armed on every engine
   under comparison, so any state leaking through [reset] diverges. *)
let arm_fault eng ~target ~reg ~bit =
  let count = ref 0 in
  eng.E.post_hook <-
    Some
      {
        E.on_instr =
          (fun (e : E.t) _ _ ->
            incr count;
            if !count = target then begin
              e.E.regs.{reg} <- Refine_support.Bitops.flip_bit e.E.regs.{reg} bit;
              e.E.post_hook <- None
            end);
        hook_cost = 3;
        hook_pcs = every_pc eng;
      }

let run_one ?fault eng =
  (match fault with Some (target, reg, bit) -> arm_fault eng ~target ~reg ~bit | None -> ());
  E.run ~max_cost:20_000_000L eng

(* Run with a single-bit memory fault at a dynamic instruction instance:
   one bit of one byte anywhere in data memory, usually on a page no
   store of the program touches. *)
let run_mem_fault ~target ~addr ~bit eng =
  let count = ref 0 in
  eng.E.post_hook <-
    Some
      {
        E.on_instr =
          (fun (e : E.t) _ _ ->
            incr count;
            if !count = target then begin
              E.flip_mem_bit e ~addr ~bit;
              e.E.post_hook <- None
            end);
        hook_cost = 0;
        hook_pcs = every_pc eng;
      };
  let r = E.run ~max_cost:20_000_000L eng in
  (* the hook is this run's: detached, so that engines that ran alike
     compare equal after it *)
  eng.E.post_hook <- None;
  r

(* the register file and the arena, read through plain accessors *)
let regs_of (e : E.t) = Array.init R.num_regs (fun r -> e.E.regs.{r})

let get64 (m : E.arena) addr =
  let v = ref 0L in
  for k = 7 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code m.{addr + k}))
  done;
  !v

let set64 (m : E.arena) addr v =
  for k = 0 to 7 do
    m.{addr + k} <- Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * k)) 0xFFL))
  done

(* a heap copy of the engine's whole arena *)
let mem_copy (e : E.t) : E.arena =
  let m = Bigarray.Array1.create Bigarray.char Bigarray.c_layout (Bigarray.Array1.dim e.E.mem) in
  Bigarray.Array1.blit e.E.mem m;
  m

(* The reset contract: every field of the state record, named once as
   restored by [reset] or kept on purpose ([Exec.unrestored]).  [a] and
   [b] must agree on every restored field, and the record must have no
   field the contract does not name. *)
let check_state what (a : E.t) (b : E.t) =
  match E.unrestored a b with
  | [] -> ()
  | fields -> Alcotest.failf "%s: %s" what (String.concat "; " fields)

let prop_snapshot_reset_identical =
  QCheck.Test.make ~name:"snapshot/reset engines bit-identical to fresh create" ~count:12
    QCheck.(pair (int_range 1 5000) (int_range 1 5000))
    (fun (seed, seed_b) ->
      let image = compile_image seed in
      let rng = P.create (seed * 7 + 1) in
      let fault = (1 + P.int rng 4000, R.gpr (P.int rng 6), P.int rng 64) in
      let snap = E.snapshot image in
      let reused = E.create_from_snapshot snap in
      let check ?fault what =
        let r_fresh = run_one ?fault (E.create image) in
        let r_clone = run_one ?fault (E.create_from_snapshot snap) in
        E.reset reused;
        let r_reset = run_one ?fault reused in
        Alcotest.check result_t (what ^ ": fresh = snapshot clone") r_fresh r_clone;
        Alcotest.check result_t (what ^ ": fresh = reset reuse") r_fresh r_reset
      in
      check "clean";
      check ~fault "faulted";
      (* a second faulted pass over the same reused engine: reset must also
         erase the fault's damage, not just clean-run state *)
      check ~fault "faulted again";
      (* the same engine moved between two binaries, A -> B -> A, with a
         memory fault in every run: each reset (which rebinds the image
         and drops the decode when the binary changes) must equal a fresh
         engine on that snapshot, and so must the faulted run after it *)
      let image_b = compile_image seed_b in
      let a = (snap, image, E.decode image)
      and b = (E.snapshot image_b, image_b, E.decode image_b) in
      List.iteri
        (fun k (s, img, dp) ->
          let what = Printf.sprintf "move %d" k in
          E.reset ~snapshot:s reused;
          let fresh = E.create_from_snapshot s in
          check_state (what ^ ": reset = fresh") reused fresh;
          Alcotest.(check bool) (what ^ ": image rebound") true (reused.E.image == img);
          Alcotest.(check bool) (what ^ ": no decode carried over") false
            (k > 0 && E.decoded reused);
          E.install_decoded reused (Some dp);
          E.install_decoded fresh (Some dp);
          let target = 1 + P.int rng 4000
          and addr = Mem.null_guard + P.int rng (Mem.mem_size - Mem.null_guard)
          and bit = P.int rng 8 in
          let r_reset = run_mem_fault ~target ~addr ~bit reused in
          let r_fresh = run_mem_fault ~target ~addr ~bit fresh in
          Alcotest.check result_t (what ^ ": faulted run") r_fresh r_reset;
          check_state (what ^ ": after the faulted run") reused fresh)
        [ a; b; a ];
      true)

(* --- touched-page edges ------------------------------------------------ *)

(* Run [image] once on a snapshot engine (stepped, then decoded), then
   reset it: the reset engine must equal a fresh one byte for byte. *)
let reset_after what image =
  let snap = E.snapshot image in
  let dp = E.decode image in
  List.iter
    (fun decoded ->
      let what = what ^ if decoded then " (decoded)" else " (step)" in
      let eng = E.create_from_snapshot snap in
      if decoded then E.install_decoded eng (Some dp);
      ignore (E.run eng);
      Alcotest.(check bool) (what ^ ": the run wrote memory") false
        (eng.E.mem = (E.create_from_snapshot snap).E.mem);
      E.reset eng;
      check_state (what ^ ": reset = fresh") eng (E.create_from_snapshot snap))
    [ false; true ]

let store_at addr =
  image_of
    [
      M.Mmov (R.gpr 1, M.Imm 0x0123456789abcdefL);
      M.Mmov (R.gpr 3, M.Imm (Int64.of_int addr));
      M.Mstore (R.gpr 1, R.gpr 3, 0);
      M.Mmov (R.ret_gpr, M.Imm 0L);
      M.Mhalt;
    ]

let test_reset_straddling_store () =
  (* bytes land on both sides of a 4 KiB boundary, far from the stack *)
  reset_after "straddling store" (store_at ((64 * 4096) - 3))

let test_reset_top_store () =
  (* the last 8 bytes of memory: the sentinel's own slot *)
  reset_after "store at mem_size - 8" (store_at (Mem.mem_size - 8))

(* VmRSS, the process's current resident set, in KiB *)
let vm_rss_kb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmRSS:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" Fun.id
    | _ -> find ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

(* whether the kernel backs every touched 2 MiB region of an anonymous
   mapping with a huge page ("always"; the default policy is "madvise") *)
let thp_always () =
  match open_in "/sys/kernel/mm/transparent_hugepage/enabled" with
  | ic ->
    let line = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> input_line ic) in
    String.length line >= 8 && String.sub line 0 8 = "[always]"
  | exception Sys_error _ -> false

let test_create_commits_touched_pages () =
  (* a whole-arena allocation would make all of [mem_size] resident per
     engine; several engines, all kept live, so memory the allocator
     recycles from engines collected earlier cannot hide it.  Loading
     this snapshot writes one page (the sentinel's), which is one 2 MiB
     huge page when the kernel's THP policy is "always" *)
  let snap = E.snapshot (store_at (64 * 4096)) in
  let n = 16 in
  let limit_kb = if thp_always () then (n * 2048) + 1024 else 1024 in
  let before = vm_rss_kb () in
  let engines = List.init n (fun _ -> E.create_from_snapshot snap) in
  let grown = vm_rss_kb () - before in
  ignore (Sys.opaque_identity engines);
  if grown >= limit_kb then
    Alcotest.failf "creating %d engines raised VmRSS by %d KiB (limit %d KiB)" n grown limit_kb

let test_reset_untouched_flip () =
  let image = image_of [ M.Mmov (R.ret_gpr, M.Imm 0L); M.Mhalt ] in
  let snap = E.snapshot image in
  let eng = E.create_from_snapshot snap in
  let addr = (1000 * 4096) + 17 in
  E.flip_mem_bit eng ~addr ~bit:5;
  Alcotest.(check char) "bit flipped" '\032' eng.E.mem.{addr};
  ignore (E.run eng);
  E.reset eng;
  check_state "flip on an untouched page" eng (E.create_from_snapshot snap)

(* --- snapshot restores globals, heap, output --------------------------- *)

let test_reset_restores_state () =
  let m =
    Refine_minic.Frontend.compile
      "global int a = 3; int main() { a = a + 39; print_int(a); return 0; }"
  in
  Refine_passes.Pipeline.optimize Refine_passes.Pipeline.O2 m;
  let image = Refine_passes.Pipeline.compile m in
  let snap = E.snapshot image in
  let eng = E.create_from_snapshot snap in
  let r1 = E.run eng in
  E.reset eng;
  let r2 = E.run eng in
  Alcotest.(check string) "first run" "42\n" r1.E.output;
  Alcotest.check result_t "global mutation erased by reset" r1 r2

(* --- pre-resolved extern dispatch -------------------------------------- *)

let test_unknown_extern_dead_path () =
  (* an unresolvable extern on a never-executed path must not trap: slots
     are resolved to trap-on-invoke handlers, not resolution-time errors *)
  let r =
    E.run
      (E.create
         (image_of
            [ M.Mjmp 2; M.Mcallext "mystery_fn"; M.Mmov (R.ret_gpr, M.Imm 0L); M.Mhalt ]))
  in
  (match r.E.status with
  | E.Exited 0 -> ()
  | _ -> Alcotest.fail (Format.asprintf "expected clean exit, got %a" pp_result r));
  let r2 = E.run (E.create (image_of [ M.Mcallext "mystery_fn"; M.Mhalt ])) in
  match r2.E.status with
  | E.Trapped (E.Extern_fault msg) ->
    Alcotest.(check bool) "names the extern" true
      (String.length msg >= 10 && String.sub msg (String.length msg - 10) 10 = "mystery_fn")
  | _ -> Alcotest.fail "expected Extern_fault on the live path"

let test_reset_rebinds_handlers () =
  let image =
    image_of
      [
        M.Mmov (R.gpr 1, M.Imm 5L);
        M.Mcallext "print_int";
        M.Mmov (R.ret_gpr, M.Imm 0L);
        M.Mhalt;
      ]
  in
  let snap = E.snapshot image in
  let hits = ref 0 in
  let eng = E.create_from_snapshot ~ext_extra:[ ("print_int", 2, fun _ -> incr hits) ] snap in
  let r1 = E.run eng in
  Alcotest.(check int) "custom handler hit" 1 !hits;
  Alcotest.(check string) "custom handler suppressed output" "" r1.E.output;
  (* 4 instructions + custom cost 2 *)
  Alcotest.(check int64) "custom cost charged" 6L r1.E.cost;
  E.reset eng;
  (* no ext_extra: the builtin print_int must be rebound *)
  let r2 = E.run eng in
  Alcotest.(check string) "builtin rebound after reset" "5\n" r2.E.output;
  Alcotest.(check int64) "builtin cost charged"
    (Int64.of_int (4 + E.ext_call_cost))
    r2.E.cost

(* --- the reset contract over the whole state record ------------------------ *)

(* A run cut by a cancelled poll inside a call, after a flip struck rbp,
   with output written, heap allocated and a stack page stored to; the
   extern handlers bound to a library, a profile, a hook, a heap quota
   and an Instr_image overlay attached; and every other field a sample
   can move set by hand.  Each reset, in place and onto another binary
   and back, must leave the engine equal to a fresh one on every restored
   field. *)
let contract_image =
  let g = R.gpr in
  image_of
    [
      M.Mmov (g 1, M.Imm 42L);
      M.Mcallext "print_int";
      M.Mmov (g 1, M.Imm 64L);
      M.Mcallext "alloc";
      M.Mmov (g 2, M.Imm 5L);
      M.Mxorbit (R.rbp, g 2);
      M.Mcalli 8;
      M.Mhalt (* never reached *);
      M.Mstore (g 1, R.rsp, -64) (* pc 8: the callee *);
      M.Mjmp 9 (* spins until the poll cancels the run *);
    ]

let dirty_every_field (e : E.t) =
  E.reset ~ext_extra:[ ("print_int", 2, fun _ -> ()) ] e;
  ignore (E.enable_profiling e);
  E.set_overlay e ~pc:7 (Some (M.Mmov (R.ret_gpr, M.Imm 1L)));
  (try
     ignore
       (E.run ~max_steps:1_000_000L ~max_cost:1_000_000L ~heap_quota:4096
          ~poll:(fun () -> raise Exit)
          e)
   with Exit -> ());
  e.E.post_hook <-
    Some
      {
        E.on_instr = (fun _ _ _ -> ());
        hook_cost = 1;
        hook_pcs = Array.make (Array.length e.E.image.L.code) false;
      };
  e.E.status <- E.Trapped E.Div_by_zero;
  e.E.env.exited <- Some 3;
  e.E.fi_mask <- 0x30L;
  e.E.detach_req <- true;
  e.E.fi_skip <- 5;
  e.E.fi_pending <- 7

let test_reset_contract () =
  let snap = E.snapshot contract_image in
  let dp = E.decode contract_image in
  let other = compile_image 7 in
  let snap_o = E.snapshot other and dp_o = E.decode other in
  let fresh s dp =
    let e = E.create_from_snapshot s in
    E.install_decoded e (Some dp);
    e
  in
  let e = fresh snap dp in
  let dirtied what =
    (* the fields the contract restores, away from a fresh engine's *)
    let unrestored = E.unrestored e (fresh snap dp) in
    List.iter
      (fun field ->
        if not (List.mem field unrestored) then
          Alcotest.failf "%s: the run left %s as a fresh engine has it" what field)
      [
        "regs"; "mem"; "steps"; "cs_len"; "sp_struck"; "d_check"; "d_max_steps"; "ov_slot";
        "fi_pending";
      ]
  in
  dirty_every_field e;
  dirtied "in place";
  E.reset e;
  check_state "in place: reset = fresh" e (fresh snap dp);
  dirty_every_field e;
  E.reset ~snapshot:snap_o e;
  E.install_decoded e (Some dp_o);
  check_state "onto another binary: reset = fresh" e (fresh snap_o dp_o);
  E.reset ~snapshot:snap e;
  E.install_decoded e (Some dp);
  dirty_every_field e;
  dirtied "back";
  E.reset e;
  check_state "back: reset = fresh" e (fresh snap dp)

(* --- shared fixtures for the campaign-level suites ----------------------- *)

let src_int =
  "int main() { int i; int s = 0; for (i = 0; i < 40; i = i + 1) { s = s + i * 3; } \
   print_int(s); return 0; }"

let src_float =
  "global float acc[4]; int main() { int i; float x = 1.5; for (i = 0; i < 30; i = i + 1) { x \
   = x * 1.01 + 0.1; acc[i % 4] = x; } print_float(x); return 0; }"

let matrix_summary cells =
  String.concat "; "
    (List.map
       (fun (c : Ex.cell) ->
         Printf.sprintf "%s/%s crash=%d soc=%d benign=%d err=%d cost=%Ld" c.Ex.program
           (T.kind_name c.Ex.tool) c.Ex.counts.Ex.crash c.Ex.counts.Ex.soc c.Ex.counts.Ex.benign
           c.Ex.counts.Ex.tool_error c.Ex.injection_cost)
       cells)

(* --- per-instruction accounting is allocation-free with profiling off --- *)

(* any per-instruction allocation makes the delta scale with the step
   count; per-call constants (the measurement itself) cancel *)
let scales what run =
  let measure n =
    let w0 = Gc.minor_words () in
    run n;
    Gc.minor_words () -. w0
  in
  run 10_000 (* warm-up *);
  let d_small = measure 50_000 in
  let d_large = measure 200_000 in
  Alcotest.(check (float 0.0)) (what ^ ": minor words do not scale with steps") d_small d_large

(* [run] over an installed decode of [image], each call from a reset
   engine so the step budget alone ends it *)
let decoded_runner image =
  let dec = E.create_from_snapshot (E.snapshot image) in
  E.install_decoded dec (Some (E.decode image));
  fun n ->
    E.reset dec;
    E.run ~max_steps:(Int64.of_int n) dec

let test_zero_alloc_hot_path () =
  (* the back edge jumps over four instructions, so every decoded
     iteration goes through fused-pair and single-closure dispatch.  No
     instruction computes a new register value, so [step], whose ALU ops
     go through the shared [Interp] evaluators, is checked too: the
     accounting and dispatch must not allocate *)
  let image =
    image_of
      [
        M.Mmov (R.gpr 1, M.Imm 7L);
        M.Mmov (R.gpr 3, M.Imm 8192L);
        M.Mcmp (R.gpr 1, M.Imm 0L) (* pc 2: loop head *);
        M.Mjcc (M.CEq, 8) (* never taken *);
        M.Mstore (R.gpr 1, R.gpr 3, 0);
        M.Msetcc (M.CNe, R.gpr 2);
        M.Mmov (R.gpr 4, M.Reg (R.gpr 2));
        M.Mjmp 2;
        M.Mhalt;
      ]
  in
  let eng = E.create image in
  scales "step" (fun n -> for _ = 1 to n do E.step eng done);
  Alcotest.(check bool) "still running" true (eng.E.status = E.Running);
  (* the production loop *)
  let run_decoded = decoded_runner image in
  scales "decoded run" (fun n -> ignore (run_decoded n));
  let r = run_decoded 1000 in
  Alcotest.(check bool) "decoded run ends on its step budget" true
    (r.E.status = E.Timed_out && r.E.steps = 1000L)

let test_zero_alloc_computing () =
  (* every instruction of the loop body writes a freshly computed value
     (integer add and xor, a load, both address forms, a float add, a
     stack round trip): the unboxed register file and the inlined result
     writers keep the decoded loop allocation-free all the same *)
  let f1 = R.fpr 1 and f2 = R.fpr 2 in
  let image =
    image_of
      [
        M.Mmov (R.gpr 1, M.Imm 7L);
        M.Mmov (R.gpr 2, M.Imm 1L);
        M.Mmov (R.gpr 3, M.Imm 8192L);
        M.Mmov (f2, M.Imm (Int64.bits_of_float 0.5));
        M.Mcmp (R.gpr 1, M.Imm 0L) (* pc 4: loop head *);
        M.Mjcc (M.CEq, 16) (* never taken *);
        M.Mbin (Refine_ir.Ir.Add, R.gpr 1, R.gpr 1, M.Imm 1L);
        M.Mstore (R.gpr 1, R.gpr 3, 0);
        M.Mload (R.gpr 4, R.gpr 3, 0);
        M.Mlea (R.gpr 5, R.gpr 3, Some (R.gpr 2), 8);
        M.Mlea (R.gpr 6, R.gpr 5, None, 16);
        M.Mbin (Refine_ir.Ir.Xor, R.gpr 6, R.gpr 6, M.Reg (R.gpr 4));
        M.Mfbin (Refine_ir.Ir.Fadd, f1, f1, f2);
        M.Mpush (R.gpr 6);
        M.Mpop (R.gpr 7);
        M.Mjmp 4;
        M.Mhalt;
      ]
  in
  let run_decoded = decoded_runner image in
  scales "decoded run" (fun n -> ignore (run_decoded n));
  let r = run_decoded 1100 in
  Alcotest.(check bool) "decoded run ends on its step budget" true
    (r.E.status = E.Timed_out && r.E.steps = 1100L);
  (* with a hook attached the decoded loop still dispatches the decoded
     closures, charging the hook's cost around them: PINFI profiling
     (every declared visit retired inside the skip window) and a hook
     called at every pc must not allocate per instruction either *)
  let dec = E.create_from_snapshot (E.snapshot image) in
  E.install_decoded dec (Some (E.decode image));
  let hooked attach n =
    E.reset dec;
    attach dec;
    E.run ~max_steps:(Int64.of_int n) dec
  in
  let pinfi eng =
    Refine_core.Pinfi.attach (Refine_core.Runtime.create Refine_core.Runtime.Profile) eng
  in
  let calls = ref 0 in
  let counting eng =
    eng.E.post_hook <-
      Some { E.on_instr = (fun _ _ _ -> incr calls); hook_cost = 2; hook_pcs = every_pc eng }
  in
  List.iter
    (fun (what, attach) ->
      scales what (fun n -> ignore (hooked attach n));
      let r = hooked attach 1100 in
      Alcotest.(check bool) (what ^ " ends on its step budget, still hooked") true
        (r.E.status = E.Timed_out && r.E.steps = 1100L && dec.E.post_hook <> None))
    [ ("PINFI-hooked decoded run", pinfi); ("decoded run hooked at every pc", counting) ];
  Alcotest.(check bool) "the every-pc hook was called" true (!calls > 0)

let qcheck = QCheck_alcotest.to_alcotest

let tests =
  [
    qcheck prop_snapshot_reset_identical;
    Alcotest.test_case "reset after a store straddling a page boundary" `Quick
      test_reset_straddling_store;
    Alcotest.test_case "reset after a store at mem_size - 8" `Quick test_reset_top_store;
    Alcotest.test_case "reset after a flip on an untouched page" `Quick
      test_reset_untouched_flip;
    Alcotest.test_case "a new engine makes only its loaded pages resident" `Quick
      test_create_commits_touched_pages;
    Alcotest.test_case "reset restores globals/heap/output" `Quick test_reset_restores_state;
    Alcotest.test_case "unknown extern traps at call, not resolution" `Quick
      test_unknown_extern_dead_path;
    Alcotest.test_case "reset rebinds extern handlers" `Quick test_reset_rebinds_handlers;
    Alcotest.test_case "hot path allocation-free with profiling off" `Quick
      test_zero_alloc_hot_path;
    Alcotest.test_case "decoded value-computing loop allocation-free" `Quick
      test_zero_alloc_computing;
    Alcotest.test_case "reset restores every field of the state record" `Quick
      test_reset_contract;
  ]
