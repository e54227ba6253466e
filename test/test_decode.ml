(* Differential tests for the pre-decoded engine (DESIGN.md §19).

   The decoded executor — per-pc dispatch closures, fused
   superinstructions with batched retirement, per-snapshot decode caching
   — must be invisible in results: every observable (outcome, steps,
   cost, output, final architectural state) is byte-identical to the
   [step] loop over random programs, engine-level faults, truncated
   budgets with mid-sequence resets and Instr_image overlays (also inside
   fused groups and on fi-splice heads), hooked runs and poll slots or
   budget edges inside fused groups.  The named oracle ([Oracle]) closes
   the loop end to end: every production sample (snapshot reset, decode,
   skip window, detach) equals the same sample re-run on a fresh
   step-loop engine, for all three tools and all five fault models, and
   every production profile equals a step-loop profiling run. *)

module M = Refine_mir.Minstr
module R = Refine_mir.Reg
module Ir = Refine_ir.Ir
module X = Refine_machine.Exec
module L = Refine_backend.Layout
module P = Refine_support.Prng
module F = Refine_core.Fault
module T = Refine_core.Tool
module Rt = Refine_core.Runtime
module Fm = Refine_backend.Fimap
module Reg = Refine_bench_progs.Registry

let compile_image seed =
  let m = Refine_minic.Frontend.compile (Test_semantics.gen_program seed) in
  Refine_passes.Pipeline.optimize Refine_passes.Pipeline.O2 m;
  Refine_passes.Pipeline.compile m

(* Digest of everything an outside observer could distinguish after a
   run: the full register file (FLAGS included), data memory, pc and the
   retired step/cost counters.  Catches divergence that the result record
   alone would mask (e.g. a superinstruction writing FLAGS early). *)
let fingerprint (e : X.t) =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string (e.X.regs, e.X.mem, e.X.pc, e.X.steps, e.X.cost, e.X.heap) []))

(* Run one protocol on a step-loop and a decoded engine of [image] under
   each cost budget: [arm] resets the engine and attaches what the case
   needs (a control library, a hook), returning a reader of what the FI
   library observed, read after the run.  The poll records the machine at
   every poll slot, so the slots must fire at the same states too.  Both
   engines stay live, so their arenas are compared directly rather than
   digested. *)
let decoded_equals_step ~what ~budgets image arm =
  let leg = X.create image and dec = X.create image in
  X.install_decoded dec (Some (X.decode image));
  let run (e : X.t) max_cost =
    let observed = arm e in
    let polls = ref [] in
    let poll () = polls := (e.X.steps, e.X.cost, e.X.pc, Test_fastpath.regs_of e) :: !polls in
    let r = X.run ~max_cost:(Int64.of_int max_cost) ~poll e in
    (r, e.X.pc, e.X.heap, Test_fastpath.regs_of e, !polls, observed ())
  in
  List.iter
    (fun b ->
      if run dec b <> run leg b || dec.X.mem <> leg.X.mem then
        Alcotest.failf "%s, max_cost %d: decoded run diverges from step" what b)
    budgets

(* The cost budgets on both sides of every retirement at the steps [near]
   selects (given the run's step count) in [image]'s step-loop run under
   [arm]; the last retirement's include one past the end.  Each budget
   compares the whole arena, so a case picks the steps whose shapes
   differ rather than every step. *)
let edge_budgets ~near image arm =
  let e = X.create image in
  let (_ : unit -> _) = arm e in
  let ends = ref [] in
  while e.X.status = X.Running do
    X.step e;
    ends := (e.X.steps, e.X.cost) :: !ends
  done;
  let total = e.X.steps in
  List.concat_map (fun (s, c) -> if near ~total s then [ c - 1; c; c + 1 ] else []) !ends
  |> List.filter (fun c -> c > 0)
  |> List.sort_uniq compare

(* --- engine-level differential over random programs -------------------- *)

(* One observation protocol applied to a legacy and a decoded engine of
   the same snapshot: a truncated run at a random step budget (stresses
   the batched-retirement budget guards), a reset, a
   memory-cell fault + full run, another reset, then an Instr_image
   overlay run (stresses the fusion-free dispatch table + overlay
   decode).  Every leg must agree byte-for-byte including the state
   fingerprint at each stopping point. *)
let observe ~cut ~addr ~bit ~ov_pc ~ov_instr (e : X.t) =
  let budget = X.run ~max_steps:(Int64.of_int cut) ~max_cost:20_000_000L e in
  let fp_budget = fingerprint e in
  X.reset e;
  X.flip_mem_bit e ~addr ~bit;
  let faulted = X.run ~max_cost:20_000_000L e in
  let fp_faulted = fingerprint e in
  X.reset e;
  X.set_overlay e ~pc:ov_pc ov_instr;
  let overlaid = X.run ~max_cost:20_000_000L e in
  (budget, fp_budget, faulted, fp_faulted, overlaid, fingerprint e)

let prop_decoded_matches_legacy =
  QCheck.Test.make
    ~name:"decoded = legacy: outcome, steps, fingerprint (budgets, faults, overlays)" ~count:10
    QCheck.(pair (int_range 1 5000) (int_range 1 30_000))
    (fun (seed, cut) ->
      let image = compile_image seed in
      let snap = X.snapshot image in
      let rng = P.create (seed lxor 0x5eed) in
      let addr = Refine_ir.Memlayout.null_guard + P.int rng 4096 in
      let bit = P.int rng 8 in
      let ov_pc = P.int rng (Array.length image.L.code) in
      let ov_instr = if P.int rng 4 = 0 then None else Some image.L.code.(image.L.entry) in
      let leg = X.create_from_snapshot snap in
      let dec = X.create_from_snapshot snap in
      X.install_decoded dec (Some (X.decode image));
      let go = observe ~cut ~addr ~bit ~ov_pc ~ov_instr in
      let ol = go leg and od = go dec in
      if ol <> od then
        QCheck.Test.fail_reportf "legacy/decoded divergence (seed %d, cut %d)" seed cut;
      true)

(* --- reset erases decoded-overlay state in the same pass ---------------- *)

let src_tiny =
  {|
int main() {
  int i; float s = 0.0;
  for (i = 0; i < 40; i = i + 1) { s = s + tofloat(i * i) * 0.125; }
  print_float(s);
  return 0;
}
|}

let prepared_tiny = lazy (T.prepare T.Pinfi src_tiny)

let prop_decoded_reset_pristine =
  QCheck.Test.make ~name:"decoded overlay state never outlives reset" ~count:25
    QCheck.(pair (int_range 0 100_000) bool)
    (fun (off, legal) ->
      let p = Lazy.force prepared_tiny in
      let fresh () =
        let e = X.create_from_snapshot p.T.snap in
        X.install_decoded e (Some p.T.dprog);
        e
      in
      let eng = fresh () in
      let pristine = X.dispatch_table eng in
      let pc = p.T.image.L.entry + (off mod 8) in
      X.set_overlay eng ~pc (if legal then Some p.T.image.L.code.(p.T.image.L.entry) else None);
      eng.X.fi_mask <- 0xF0L;
      (* arming the overlay swaps dispatch to the engine's overlay table *)
      assert (not (X.dispatch_table eng == pristine));
      ignore (X.run ~max_steps:100_000L eng);
      X.reset eng;
      (* the reset engine is back on the fused table and runs exactly like
         a fresh decoded engine *)
      let reused = X.run eng and fp_reused = fingerprint eng in
      let e = fresh () in
      let clean = X.run e in
      X.dispatch_table eng == pristine && reused = clean && fp_reused = fingerprint e)

let test_decoded_illegal_overlay () =
  let p = Lazy.force prepared_tiny in
  let eng = X.create_from_snapshot p.T.snap in
  X.install_decoded eng (Some (X.decode p.T.image));
  X.set_overlay eng ~pc:eng.X.pc None;
  let r = X.run eng in
  match r.X.status with
  | X.Trapped (X.Illegal_instr _) -> ()
  | _ -> Alcotest.failf "expected Illegal_instr, got %a" Test_fastpath.pp_result r

(* --- overlays inside fused groups and on fi-splice heads ----------------- *)

(* An overlay on a superinstruction's interior pc or on a REFINE splice
   head must run exactly as in the step loop: the decoded engine leaves
   the fused table for its private overlay table.  The image holds, all
   live, a counted self-latch, then a loop of load-op-store, an FI splice
   in the backend pass's exact shape (fused: fi-splice), an LLFI call
   group in isel's exact shape (fused: llfi-call) and a compare-branch
   back edge.  REFINE's profiling library answers every selector call with
   0 and LLFI's returns every value unchanged, both with their skip window
   open, so the splice and call-group fast paths are live too.  An illegal
   overlay must trap at its own pc, which proves the slot is reached.  The
   pristine program must also stop in the step loop's state at every
   budget edge of its first latch steps, its first two loop iterations
   (steps 300-335: every slot of both groups), the poll slot and its end. *)
let test_overlay_in_fused_groups () =
  let image =
    Test_fastpath.image_of
      [
        M.Mmov (R.gpr 1, M.Imm 100L);
        M.Mbin (Refine_ir.Ir.Sub, R.gpr 1, R.gpr 1, M.Imm 1L) (* pc 1: latch head *);
        M.Mcmp (R.gpr 1, M.Imm 0L);
        M.Mjcc (M.CNe, 1);
        M.Mload (R.gpr 2, R.rsp, -64) (* pc 4: load-op-store, loop head *);
        M.Mbin (Refine_ir.Ir.Add, R.gpr 2, R.gpr 2, M.Imm 1L);
        M.Mstore (R.gpr 2, R.rsp, -64);
        M.Mpush (R.gpr 0) (* pc 7: splice head *);
        M.Mpushf;
        M.Mcallext "fi_sel_instr";
        M.Mcmp (R.ret_gpr, M.Imm 0L);
        M.Mjcc (M.CEq, 14);
        M.Mjmp 13;
        M.Mhalt (* setup block stand-in *);
        M.Mpopf (* pc 14: post *);
        M.Mpop (R.gpr 0);
        M.Mmov (R.gpr 1, M.Imm 3L) (* pc 16: LLFI call group head *);
        M.Mmov (R.gpr 2, M.Reg (R.gpr 2));
        M.Mcallext "llfi_inject_i64";
        M.Mmov (R.gpr 4, M.Reg R.ret_gpr);
        M.Mcmp (R.gpr 4, M.Imm 50L) (* pc 20: compare-branch back edge *);
        M.Mjcc (M.CLt, 4);
        M.Mmov (R.ret_gpr, M.Imm 0L);
        M.Mhalt;
      ]
  in
  let dp = X.decode image in
  Array.iteri
    (fun i idiom ->
      Alcotest.(check bool) (idiom ^ " fused") true ((X.superinstr_counts dp).(i) >= 1))
    X.idioms;
  let run ~decoded overlay =
    let ctrl = Rt.create Rt.Profile in
    let e = X.create ~ext_extra:(Rt.refine_handlers ctrl @ Rt.llfi_handlers ctrl) image in
    if decoded then X.install_decoded e (Some dp);
    Option.iter (fun (pc, instr) -> X.set_overlay e ~pc instr) overlay;
    let r = X.run ~max_cost:1_000_000L e in
    Rt.absorb ctrl e;
    (r, fingerprint e, ctrl.Rt.count)
  in
  let ((clean, _, _) as step) = run ~decoded:false None in
  Alcotest.(check bool) "pristine run exits" true (clean.X.status = X.Exited 0);
  Alcotest.(check bool) "pristine decoded = step" true (run ~decoded:true None = step);
  let profiling e =
    let ctrl = Rt.create Rt.Profile in
    X.reset ~ext_extra:(Rt.refine_handlers ctrl @ Rt.llfi_handlers ctrl) e;
    fun () ->
      Rt.absorb ctrl e;
      ctrl.Rt.count
  in
  let near ~total s = s <= 12 || (s >= 300 && s <= 335) || abs (s - 1024) <= 8 || s >= total - 8 in
  decoded_equals_step ~what:"pristine, cut" ~budgets:(edge_budgets ~near image profiling) image
    profiling;
  List.iter
    (fun (what, pc, instr) ->
      let ((r, _, _) as step) = run ~decoded:false (Some (pc, instr)) in
      if instr = None && r.X.status <> X.Trapped (X.Illegal_instr pc) then
        Alcotest.failf "%s: the overlaid pc %d was never reached" what pc;
      if run ~decoded:true (Some (pc, instr)) <> step then
        Alcotest.failf "%s: decoded overlay run diverges from step" what)
    [
      ("latch compare", 2, Some (M.Mcmp (R.gpr 1, M.Imm 7L)));
      ("latch compare, illegal", 2, None);
      ("latch branch", 3, Some (M.Mjcc (M.CGt, 1)));
      ("load-op-store op", 5, Some (M.Mbin (Refine_ir.Ir.Add, R.gpr 2, R.gpr 2, M.Imm 2L)));
      ("load-op-store store, illegal", 6, None);
      ("fi-splice head", 7, Some (M.Mpush (R.gpr 1)));
      ("fi-splice head, illegal", 7, None);
      ("fi-splice selector call, illegal", 9, None);
      ("llfi-call head", 16, Some (M.Mmov (R.gpr 1, M.Imm 9L)));
      ("llfi-call call, illegal", 18, None);
      ("llfi-call result move", 19, Some (M.Mmov (R.gpr 4, M.Reg (R.gpr 2))));
      ("compare-branch branch", 21, Some (M.Mjcc (M.CLe, 4)));
      ("compare-branch compare, illegal", 20, None);
    ]

(* --- engine interface: install / detach / compatibility ----------------- *)

let test_install_detach () =
  let image = compile_image 42 in
  let snap = X.snapshot image in
  let eng = X.create_from_snapshot snap in
  Alcotest.(check bool) "no decode by default" false (X.decoded eng);
  X.install_decoded eng (Some (X.decode image));
  Alcotest.(check bool) "decoded when installed" true (X.decoded eng);
  let r1 = X.run eng in
  X.install_decoded eng None;
  Alcotest.(check bool) "step loop after detach" false (X.decoded eng);
  X.reset eng;
  let r2 = X.run eng in
  Alcotest.check Test_fastpath.result_t "detached run identical" r1 r2;
  let other = compile_image 43 in
  Alcotest.check_raises "foreign decode rejected"
    (Invalid_argument "Exec.install_decoded: decoded program was built from a different image")
    (fun () -> X.install_decoded eng (Some (X.decode other)))

let test_superinstr_counts () =
  (* a counted self-latch, a load-op-store and a forward compare-branch,
     which run unfused, then, as dead code behind the halt, one site of
     each idiom: a REFINE FI splice in the exact shape the backend pass
     emits (fi-splice) and an LLFI call group in the shape isel emits
     around an inserted injectFault call (llfi-call) *)
  let image =
    Test_fastpath.image_of
      [
        M.Mmov (R.gpr 1, M.Imm 100L);
        M.Mbin (Refine_ir.Ir.Sub, R.gpr 1, R.gpr 1, M.Imm 1L) (* pc 1: latch head *);
        M.Mcmp (R.gpr 1, M.Imm 0L);
        M.Mjcc (M.CNe, 1);
        M.Mload (R.gpr 2, R.rsp, -8);
        M.Mbin (Refine_ir.Ir.Add, R.gpr 2, R.gpr 2, M.Imm 1L);
        M.Mstore (R.gpr 2, R.rsp, -8);
        M.Mcmp (R.gpr 2, M.Imm 0L);
        M.Mjcc (M.CEq, 10);
        M.Mhalt;
        M.Mhalt;
        M.Mpush (R.gpr 0) (* pc 11: splice head (dead code) *);
        M.Mpushf;
        M.Mcallext "fi_sel_instr";
        M.Mcmp (R.ret_gpr, M.Imm 0L);
        M.Mjcc (M.CEq, 18);
        M.Mjmp 17;
        M.Mhalt (* setup block stand-in *);
        M.Mpopf (* pc 18: post *);
        M.Mpop (R.gpr 0);
        M.Mhalt;
        M.Mmov (R.gpr 1, M.Imm 0L) (* pc 21: LLFI call group (dead code) *);
        M.Mmov (R.fpr 1, M.Imm 0L);
        M.Mcallext "llfi_inject_f64";
        M.Mmov (R.fpr 3, M.Reg R.ret_fpr);
        M.Mhalt;
      ]
  in
  let dp = X.decode image in
  let counts = X.superinstr_counts dp in
  Array.iteri
    (fun i idiom ->
      Alcotest.(check bool) (idiom ^ " fused at least once") true (counts.(i) >= 1))
    X.idioms;
  (* and the decoded program stops in the step loop's state at every
     budget edge of its first latch steps and of the last steps, through
     the load-op-store and the compare-branch to the halt *)
  let plain e =
    X.reset e;
    fun () -> ()
  in
  let near ~total s = s <= 12 || s >= total - 16 in
  decoded_equals_step ~what:"idiom shapes" ~budgets:(edge_budgets ~near image plain) image plain;
  (* the sites of each idiom in the 14 programs' plain images, all three
     tools: a superinstruction per REFINE splice and per LLFI call group *)
  let totals = Array.make (Array.length X.idioms) 0 in
  List.iter
    (fun (b : Reg.bench) ->
      List.iter
        (fun kind ->
          Array.iteri
            (fun i n -> totals.(i) <- totals.(i) + n)
            (X.superinstr_counts (T.prepare kind b.Reg.source).T.dprog))
        [ T.Refine; T.Llfi; T.Pinfi ])
    Reg.all;
  Alcotest.(check (array int)) "fi-splice and llfi-call sites, 14 programs" [| 4_349; 2_582 |] totals

(* --- fi-splice fusion reads the detach map's splice parser -------------- *)

(* [decode] fuses exactly the splices [Fimap.splices] returns: on every
   registry program's REFINE image the splices parse and the fi-splice
   count is their number. *)
let test_every_splice_fuses () =
  List.iter
    (fun (b : Reg.bench) ->
      let p = T.prepare T.Refine b.Reg.source in
      match Fm.splices p.T.image with
      | None -> Alcotest.failf "%s: the REFINE splices do not parse" b.Reg.name
      | Some l ->
        Alcotest.(check bool) (b.Reg.name ^ ": has splices") true (l <> []);
        Alcotest.(check int)
          (b.Reg.name ^ ": one fi-splice per splice")
          (List.length l)
          (X.superinstr_counts p.T.dprog).(0))
    Reg.all

(* --- poll slots and budget edges inside fused groups and hooked runs ------ *)

(* A counted self-latch and a FLAGS-invariant spin, three instructions an
   iteration: cost budgets that end on, just before or just after a poll
   slot (step 1024k) or mid-loop must stop the decoded and the step run in
   the same state. *)
let loop_shapes =
  [
    ( "counted self-latch",
      [
        M.Mmov (R.gpr 1, M.Imm 100_000L);
        M.Mbin (Refine_ir.Ir.Sub, R.gpr 1, R.gpr 1, M.Imm 1L) (* pc 1: latch head *);
        M.Mcmp (R.gpr 1, M.Imm 0L);
        M.Mjcc (M.CNe, 1);
        M.Mmov (R.ret_gpr, M.Imm 0L);
        M.Mhalt;
      ] );
    ( "FLAGS-invariant spin",
      [
        M.Mmov (R.gpr 2, M.Imm 0L);
        M.Mcmp (R.gpr 2, M.Imm 1L) (* pc 1: spin head, never exits *);
        M.Mjcc (M.CEq, 4);
        M.Mjmp 1;
        M.Mmov (R.ret_gpr, M.Imm 0L);
        M.Mhalt;
      ] );
  ]

(* An LLFI call group ahead of a counted latch: 7 steps and 7 + the
   library-call cost per iteration, so over the run every poll-slot
   offset falls inside the group, and the budgets below end inside it. *)
let llfi_loop =
  [
    M.Mmov (R.gpr 3, M.Imm 20_000L);
    M.Mmov (R.gpr 1, M.Imm 7L) (* pc 1: LLFI call group head *);
    M.Mmov (R.gpr 2, M.Reg (R.gpr 3));
    M.Mcallext "llfi_inject_i64";
    M.Mmov (R.gpr 4, M.Reg R.ret_gpr);
    M.Mbin (Refine_ir.Ir.Sub, R.gpr 3, R.gpr 3, M.Imm 1L) (* pc 5: latch head *);
    M.Mcmp (R.gpr 3, M.Imm 0L);
    M.Mjcc (M.CNe, 1);
    M.Mmov (R.ret_gpr, M.Imm 0L);
    M.Mhalt;
  ]

(* Every instruction but the back edge writes a register, so PINFI's hook
   is declared at two pcs per iteration.  The add at step 2 + 3k is the
   (2 + 2k)-th selected visit: target 1366 fires on step 2048, a poll
   slot. *)
let pinfi_spin =
  [
    M.Mmov (R.gpr 1, M.Imm 0L);
    M.Mbin (Refine_ir.Ir.Add, R.gpr 2, R.gpr 2, M.Imm 0L) (* pc 1: loop head *);
    M.Mmov (R.gpr 3, M.Reg (R.gpr 2));
    M.Mjmp 1;
  ]

(* A counted loop, then a load through a null pointer: the run ends on a
   hooked, declared instruction that traps. *)
let trap_after_loop =
  [
    M.Mmov (R.gpr 3, M.Imm 50L);
    M.Mbin (Refine_ir.Ir.Sub, R.gpr 3, R.gpr 3, M.Imm 1L);
    M.Mcmp (R.gpr 3, M.Imm 0L);
    M.Mjcc (M.CNe, 1);
    M.Mmov (R.gpr 5, M.Imm 0L);
    M.Mload (R.gpr 6, R.gpr 5, 0);
    M.Mhalt;
  ]

let test_loop_shapes_decoded_equal_step () =
  let budgets =
    List.init 12 (fun i -> 1019 + i)
    @ List.init 9 (fun i -> 3068 + i)
    @ [ 1; 2; 3; 4; 5_000; 5_001; 5_002; 77_777; 300_002; 300_003; 300_004; 1_000_000 ]
  in
  let plain e =
    X.reset e;
    fun () -> ()
  in
  List.iter
    (fun (what, code) -> decoded_equals_step ~what ~budgets (Test_fastpath.image_of code) plain)
    loop_shapes;
  (* an LLFI group with a poll slot or a budget edge inside it, the
     library profiling (window always open) and injecting (window closing
     at the target, which fires mid-run) *)
  let image = Test_fastpath.image_of llfi_loop in
  Alcotest.(check int) "LLFI loop: one llfi-call" 1 (X.superinstr_counts (X.decode image)).(1);
  let llfi mode e =
    let ctrl = Rt.create mode in
    X.reset ~ext_extra:(Rt.llfi_handlers ctrl) e;
    fun () ->
      Rt.absorb ctrl e;
      (ctrl.Rt.count, ctrl.Rt.record)
  in
  (* one iteration costs 47: consecutive budgets end at every offset *)
  decoded_equals_step ~what:"LLFI group, profiling"
    ~budgets:(List.init 48 (fun i -> 2_980 + i) @ [ 1_000_000 ])
    image (llfi Rt.Profile);
  decoded_equals_step ~what:"LLFI group, injecting"
    ~budgets:[ 2_990; 2_991; 2_992; 2_993; 1_000_000 ]
    image (fun e ->
      (* a fresh generator per run: the fire consumes it *)
      llfi (Rt.Inject { target = 3_000; rng = P.create 5; model = F.Reg_bit }) e);
  (* a PINFI flip on a poll-slot step: the slot's poll must see the
     flipped state *)
  let image = Test_fastpath.image_of pinfi_spin in
  List.iter
    (fun target ->
      decoded_equals_step
        ~what:(Printf.sprintf "PINFI flip, target %d" target)
        ~budgets:[ 26_600; 26_626; 26_627; 1_000_000 ] image (fun e ->
          X.reset e;
          let ctrl = Rt.create (Rt.Inject { target; rng = P.create 11; model = F.Reg_bit }) in
          Refine_core.Pinfi.attach ctrl e;
          fun () ->
            Rt.absorb ctrl e;
            (ctrl.Rt.count, ctrl.Rt.record)))
    [ 1365; 1366; 1367; 2048 ];
  (* budgets ending on, just before and just after a hooked instruction
     that traps: it pays the hook's cost, and neither a counting hook nor
     PINFI's window sees it *)
  let image = Test_fastpath.image_of trap_after_loop in
  let counting e =
    X.reset e;
    let n = ref 0 in
    e.X.post_hook <-
      Some
        {
          X.on_instr = (fun _ _ _ -> incr n);
          hook_cost = 3;
          hook_pcs = Test_fastpath.every_pc e;
        };
    fun () -> !n
  in
  let profiling e =
    X.reset e;
    let ctrl = Rt.create Rt.Profile in
    Refine_core.Pinfi.attach ctrl e;
    fun () ->
      Rt.absorb ctrl e;
      ctrl.Rt.count
  in
  List.iter
    (fun (what, arm, per_instr) ->
      (* 154 instructions retire before the load, which traps *)
      let trap_at = 154 * per_instr in
      decoded_equals_step ~what
        ~budgets:(List.init 8 (fun i -> trap_at - 3 + i) @ [ 1_000_000 ])
        image arm)
    [
      ("trap under a counting hook", counting, 4);
      ("trap under PINFI profiling", profiling, 1 + Refine_core.Fi_cost.pin_attach_per_instr);
    ]

(* --- weighted slots: each form's fast closure = step + top-up ----------- *)

(* The reference semantics of a weighted decode (DESIGN.md §20): [step]
   the image and, after each retired slot, add the rest of its weight
   while the run is still [Running]; then the loop's poll-slot check.  A
   slot that traps or ends the run is charged 1, as the attached run never
   reaches the splice its weight stands for.  [on_slot] sees each slot's
   pc, the cost before it and the engine after it. *)
let weighted_reference ?(on_slot = fun _ _ _ -> ()) ~weights ~max_steps ~max_cost ~poll
    (e : X.t) =
  while e.X.status = X.Running && e.X.steps < max_steps && e.X.cost < max_cost do
    let pc = e.X.pc and c0 = e.X.cost in
    X.step e;
    if e.X.status = X.Running then e.X.cost <- e.X.cost + weights.(pc) - 1;
    on_slot pc c0 e;
    if e.X.steps land 1023 = 0 then poll ()
  done;
  if e.X.status = X.Running then e.X.status <- X.Timed_out

(* A counted loop whose body holds every form a weighted slot can take and
   retire — integer ALU, move, address, conversion, store, load, divide,
   push, pop, a call and its return, an extern call, the latch's compare
   and branch — 17 steps an iteration, so successive poll slots fall on
   different slots of the body, after [pad] leading moves that shift them
   further; then the jump to one [ending] *)
let weighted_program ~pad ~iters ending =
  let g = R.gpr in
  let l = pad + 2 in
  let fn = l + 16 + List.length ending in
  List.init pad (fun i -> M.Mmov (g 9, M.Imm (Int64.of_int i)))
  @ [ M.Mmov (g 3, M.Imm (Int64.of_int iters)); M.Mmov (g 4, M.Imm 7L) ]
  @ [
      M.Mbin (Ir.Add, g 5, g 5, M.Imm 3L) (* l: loop head *);
      M.Mmov (g 6, M.Reg (g 5));
      M.Mlea (g 13, R.rsp, None, -8);
      M.Mcvt (Ir.Sitofp, R.fpr 2, g 5);
      M.Mstore (g 5, R.rsp, -16);
      M.Mload (g 7, R.rsp, -16);
      M.Mbin (Ir.Div, g 8, g 7, M.Reg (g 4));
      M.Mpush (g 8);
      M.Mpop (g 9);
      M.Mcalli fn;
      M.Mmov (g 1, M.Reg (g 3));
      M.Mcallext "print_int";
      M.Mbin (Ir.Sub, g 3, g 3, M.Imm 1L);
      M.Mcmp (g 3, M.Imm 0L);
      M.Mjcc (M.CNe, l);
      M.Mjmp (l + 16);
    ]
  @ ending
  @ [ M.Mbin (Ir.Xor, g 10, g 10, M.Reg (g 5)) (* fn *); M.Mret ]

(* every way a weighted slot can end the run, and a run that only times
   out, each with the status it ends in *)
let weighted_endings =
  let g = R.gpr in
  [
    ( "faulting load",
      [ M.Mmov (g 11, M.Imm 0L); M.Mload (g 12, g 11, 8) ],
      X.Trapped (X.Mem_fault 8) );
    ( "faulting store",
      [ M.Mmov (g 11, M.Imm (-64L)); M.Mstore (g 5, g 11, 0) ],
      X.Trapped (X.Mem_fault (-64)) );
    ( "divide by zero",
      [ M.Mmov (g 11, M.Imm 0L); M.Mbin (Ir.Div, g 12, g 5, M.Reg (g 11)) ],
      X.Trapped X.Div_by_zero );
    ("remainder by zero", [ M.Mbin (Ir.Rem, g 12, g 5, M.Imm 0L) ], X.Trapped X.Div_by_zero);
    ( "pop past the stack",
      [ M.Mpop (g 12); M.Mpop (g 12) ],
      X.Trapped (X.Mem_fault Refine_ir.Memlayout.mem_size) );
    ("ret to the sentinel", [ M.Mmov (R.ret_gpr, M.Imm 5L); M.Mret ], X.Exited 5);
    ( "ret to a bad pc",
      [ M.Mmov (g 11, M.Imm 99_999L); M.Mpush (g 11); M.Mret ],
      X.Trapped (X.Bad_pc 99_999) );
    ("halt", [ M.Mmov (R.ret_gpr, M.Imm 6L); M.Mhalt ], X.Exited 6);
    ("extern exit", [ M.Mmov (g 1, M.Imm 7L); M.Mcallext "exit" ], X.Exited 7);
    ("spin to the budget", [ M.Mjmp 0 ], X.Timed_out);
  ]

(* A weighted decode of [image] must stop every run in the reference's
   state: status, steps, cost, pc, registers, output, the stack and every
   poll slot's view.  The runs are cut at every cost and step budget
   within one unit of each weighted slot's retirement at the steps [near]
   selects (given the full run's step count), and at every step budget
   next to a poll slot.  The full reference run must end in [ends_in]. *)
let weighted_equals_reference ~what ~weights ~ends_in ~near image =
  let stack (e : X.t) =
    Bigarray.Array1.sub e.X.mem (Refine_ir.Memlayout.mem_size - 65536) 65536
  in
  let observe (e : X.t) polls =
    ( e.X.status,
      e.X.steps,
      e.X.cost,
      e.X.pc,
      Test_fastpath.regs_of e,
      Buffer.contents e.X.env.Refine_ir.Externs.out,
      stack e,
      polls )
  in
  let leg = X.create image and dec = X.create image in
  X.install_decoded dec (Some (X.decode ~cost_of:weights image));
  let run_ref ?on_slot ~max_steps ~max_cost () =
    X.reset leg;
    let polls = ref [] in
    let poll () = polls := (leg.X.steps, leg.X.cost, leg.X.pc) :: !polls in
    weighted_reference ?on_slot ~weights ~max_steps ~max_cost ~poll leg;
    observe leg !polls
  in
  let run_dec ~max_steps ~max_cost =
    X.reset dec;
    let polls = ref [] in
    let poll () = polls := (dec.X.steps, dec.X.cost, dec.X.pc) :: !polls in
    ignore
      (X.run ~max_steps:(Int64.of_int max_steps) ~max_cost:(Int64.of_int max_cost) ~poll dec);
    observe dec !polls
  in
  (* the full run, recording where each weighted slot retires *)
  let slots = ref [] in
  (* ends a spin after a few poll slots; every other ending comes first *)
  let full_cost = 100_000 in
  let on_slot pc c0 (e : X.t) =
    if weights.(pc) > 1 then slots := (e.X.steps, c0, e.X.cost) :: !slots
  in
  ignore (run_ref ~on_slot ~max_steps:max_int ~max_cost:full_cost ());
  if leg.X.status <> ends_in then
    Alcotest.failf "%s: the reference run does not reach its ending" what;
  let total = leg.X.steps in
  let cost_cuts, step_cuts =
    List.fold_left
      (fun (cc, sc) (s, c0, c1) ->
        if near ~total s then
          ([ c0 - 1; c0; c0 + 1; c1 - 1; c1; c1 + 1 ] @ cc, [ s - 1; s; s + 1 ] @ sc)
        else (cc, sc))
      ( [ full_cost ],
        List.concat
          (List.init ((total / 1024) + 1) (fun m -> [ (1024 * m) - 1; 1024 * m; (1024 * m) + 1 ]))
      )
      !slots
  in
  let check label ~max_steps ~max_cost =
    if run_dec ~max_steps ~max_cost <> run_ref ~max_steps ~max_cost () then
      Alcotest.failf "%s: decoded run diverges from the reference at %s" what label
  in
  List.iter
    (fun c -> if c > 0 then check (Printf.sprintf "max_cost %d" c) ~max_steps:max_int ~max_cost:c)
    (List.sort_uniq compare cost_cuts);
  List.iter
    (fun s ->
      if s > 0 then check (Printf.sprintf "max_steps %d" s) ~max_steps:s ~max_cost:full_cost)
    (List.sort_uniq compare step_cuts);
  dec

(* Random weights, a quarter of the slots at 1, on [weighted_program]
   with every ending, cut in the first iterations, around each poll slot
   and at the end. *)
let test_weighted_slots_equal_reference () =
  List.iteri
    (fun case (what, ending, ends_in) ->
      List.iter
        (fun pad ->
          let image = Test_fastpath.image_of (weighted_program ~pad ~iters:150 ending) in
          let n = Array.length image.L.code in
          let rng = P.create ((case * 31) + pad) in
          let weights = Array.init n (fun _ -> if P.int rng 4 = 0 then 1 else 2 + P.int rng 40) in
          let near ~total s = s <= 34 || (s + 17) land 1023 <= 34 || s >= total - 34 in
          ignore
            (weighted_equals_reference
               ~what:(Printf.sprintf "%s, pad %d" what pad)
               ~weights ~ends_in ~near image))
        [ case mod 3; 7 + (case mod 5) ])
    weighted_endings

(* --- shared closures: one per (instruction, weight) ------------------------ *)

(* A loop whose body repeats an ALU op, a store, a load and an extern call
   at several pcs, with two [Mcalli] to [f] and one to [g], each returning
   through its own [Mret] ([g]'s body repeats the load as well): 21 steps
   an iteration, so over the run successive poll slots fall on different
   slots of the body. *)
let recurring_program ~iters =
  let g = R.gpr in
  let alu = M.Mbin (Ir.Add, g 5, g 5, M.Imm 3L)
  and store = M.Mstore (g 5, R.rsp, -16)
  and load = M.Mload (g 7, R.rsp, -16)
  and ext = M.Mcallext "print_int" in
  [
    M.Mmov (g 3, M.Imm (Int64.of_int iters));
    alu (* pc 1: loop head *);
    store;
    M.Mcalli 17 (* pc 3: f *);
    load;
    alu (* pc 5 *);
    M.Mmov (g 1, M.Reg (g 5));
    ext (* pc 7 *);
    store (* pc 8 *);
    M.Mcalli 17 (* pc 9: f again *);
    load (* pc 10 *);
    ext (* pc 11 *);
    M.Mcalli 19 (* pc 12: g *);
    M.Mbin (Ir.Sub, g 3, g 3, M.Imm 1L);
    M.Mcmp (g 3, M.Imm 0L);
    M.Mjcc (M.CNe, 1);
    M.Mhalt;
    alu (* pc 17: f *);
    M.Mret;
    load (* pc 19: g *);
    M.Mret (* pc 20 *);
  ]

(* the slots holding each recurring instruction other than a call *)
let recurring =
  [
    ("ALU op", [ 1; 5; 17 ]);
    ("store", [ 2; 8 ]);
    ("load", [ 4; 10; 19 ]);
    ("extern call", [ 7; 11 ]);
    ("ret", [ 18; 20 ]);
  ]

(* Slots holding one (instruction, weight) hold one closure, which takes
   its pc from the engine, so each recurrence must still run as the slot
   it is: the decoded run equals the step loop at every cost budget
   around each recurrence of the first iterations and of the iterations
   around each poll slot, profiling on (the class each slot retires is
   read at the engine's pc) and off; and a twin-style weighted decode in
   which the ALU op recurs at two weights shares a closure only between
   equal weights and equals the weighted reference at every budget edge
   around each weighted recurrence.  The two calls of [f] keep a closure
   each: a call's return address is its slot's. *)
let test_shared_closures_exact () =
  let image = Test_fastpath.image_of (recurring_program ~iters:200) in
  let n = Array.length image.L.code in
  let expect_shared what table pcs =
    List.iter
      (fun pc ->
        if table.(pc) != table.(List.hd pcs) then
          Alcotest.failf "%s: slot %d does not share slot %d's closure" what pc (List.hd pcs))
      pcs
  in
  let table =
    let e = X.create image in
    X.install_decoded e (Some (X.decode image));
    X.dispatch_table e
  in
  List.iter (fun (what, pcs) -> expect_shared what table pcs) recurring;
  Alcotest.(check bool) "each call of f keeps its own closure" false (table.(3) == table.(9));
  (* the costs at which each step of the reference run ends *)
  let ends =
    let e = X.create image in
    let acc = ref [] in
    while e.X.status = X.Running do
      X.step e;
      acc := (e.X.steps, e.X.cost) :: !acc
    done;
    !acc
  in
  let near s = s <= 60 || s land 1023 <= 40 || s land 1023 >= 1000 in
  let budgets =
    List.concat_map (fun (s, c) -> if near s then [ c - 1; c; c + 1 ] else []) ends
    |> List.filter (fun c -> c > 0)
    |> List.sort_uniq compare
  in
  let arm ~profiling e =
    X.reset e;
    let prof = if profiling then Some (X.enable_profiling e) else None in
    fun () ->
      Option.map (fun (p : X.profile) -> (Array.copy p.X.class_steps, p.X.ext_calls)) prof
  in
  decoded_equals_step ~what:"recurring instructions" ~budgets:(budgets @ [ 1_000_000 ]) image
    (arm ~profiling:false);
  decoded_equals_step ~what:"recurring instructions, profiling" ~budgets:(budgets @ [ 1_000_000 ])
    image (arm ~profiling:true);
  (* a twin-style weighted decode: the ALU op weighs 7 at pcs 1 and 5 and
     3 at pc 17; every other recurrence keeps one weight *)
  let weights =
    Array.init n (fun pc ->
        match pc with
        | 1 | 5 -> 7
        | 17 -> 3
        | 2 | 8 -> 2
        | 4 | 10 | 19 -> 5
        | 7 | 11 -> 4
        | 18 | 20 -> 6
        | 3 | 9 | 12 -> 2
        | _ -> 1)
  in
  let dec =
    weighted_equals_reference ~what:"recurring weighted instructions" ~weights
      ~ends_in:(X.Exited 0)
      ~near:(fun ~total s -> near s || s >= total - 40)
      image
  in
  let table = X.dispatch_table dec in
  expect_shared "ALU op at weight 7" table [ 1; 5 ];
  Alcotest.(check bool)
    "the ALU op at weight 3 has its own closure" false
    (table.(1) == table.(17));
  List.iter
    (fun (what, pcs) -> if what <> "ALU op" then expect_shared (what ^ ", weighted") table pcs)
    recurring

(* --- fire paths: interpreted, one closure for the whole decode ----------- *)

(* A splice's slots run singly only on a sample's first and firing
   selector visits and its fire path at most once per sample, so the
   decode holds no closure of its own for any of them: over the 14 REFINE
   images the decode's own words (those its image does not already hold)
   stay under 3 per code slot.  A specialized closure per fire-path slot
   costs 12.8–12.9 words per slot on every program, and one per other
   splice slot 3.8. *)
let test_fire_path_words () =
  List.iter
    (fun (b : Reg.bench) ->
      let p = T.prepare T.Refine b.Reg.source in
      let n = Array.length p.T.image.L.code in
      let own =
        Obj.reachable_words (Obj.repr p.T.dprog) - Obj.reachable_words (Obj.repr p.T.image)
      in
      if own > 3 * n then
        Alcotest.failf "%s: the decode holds %d words for %d code slots (%.1f per slot, limit 3)"
          b.Reg.name own n
          (float_of_int own /. float_of_int n))
    Reg.all

(* A prepared cell keeps what can run and a closure per distinct
   instruction, not a copy of every splice or a closure per slot: over the
   14 programs its image, decode and detach target together hold under 6
   words per code slot for REFINE, 15 for LLFI and 16 for PINFI.  A
   specialized closure per splice slot and per recurring instruction, and
   superinstructions that capture their constituents' classes, cost
   6.65–6.76, 17.4–18.0 and 16.6–18.4; before that, a block per splice
   instruction, a word per slot for each per-pc table, an image-length
   handoff map and a fused selector compare-branch per splice cost REFINE
   14.7–14.8. *)
let test_cell_words () =
  List.iter
    (fun (kind, limit) ->
      List.iter
        (fun (b : Reg.bench) ->
          let p = T.prepare kind b.Reg.source in
          let n = Array.length p.T.image.L.code in
          let words = Obj.reachable_words (Obj.repr (p.T.image, p.T.dprog, p.T.detach)) in
          if words > limit * n then
            Alcotest.failf
              "%s/%s: the cell keeps %d words for %d code slots (%.2f per slot, limit %d)"
              b.Reg.name (T.kind_name kind) words n
              (float_of_int words /. float_of_int n)
              limit)
        Reg.all)
    [ (T.Refine, 6); (T.Llfi, 15); (T.Pinfi, 16) ]

(* [(first, last)]: the pcs of a splice's fire path — the [Mjmp setup]
   after the selector's [Mjcc (CEq, post)], then the SetupFI, FI_k and
   fidone blocks up to [post] — which run only when the selector fires *)
let fire_path (s : Fm.splice) =
  let call = s.Fm.sp_start + if s.Fm.sp_flags then 2 else 1 in
  let post = if s.Fm.sp_flags then s.Fm.sp_end - 1 else s.Fm.sp_end in
  (call + 3, post - 1)

(* A firing Reg_bit sample runs its fire path through the shared
   interpreter closure.  Cut at every cost budget from just before the
   fire path to just after it, once for a target whose fire path holds no
   poll slot and once for one whose fire path retires an instruction on a
   poll slot, the decoded run must stop in the step loop's state, with
   the same fault record and selector count. *)
let test_fire_path_decoded_equal_step () =
  let p = T.prepare T.Refine (List.find (fun (b : Reg.bench) -> b.Reg.name = "EP") Reg.all).Reg.source in
  let image = p.T.image in
  let fire =
    match Fm.splices image with
    | Some l -> List.map fire_path l
    | None -> Alcotest.fail "EP: the REFINE splices do not parse"
  in
  let on_fire pc = List.exists (fun (a, b) -> a <= pc && pc <= b) fire in
  let inject target e =
    let ctrl = Rt.create (Rt.Inject { target; rng = P.create target; model = F.Reg_bit }) in
    X.reset ~ext_extra:(Rt.refine_handlers ctrl) e;
    fun () ->
      Rt.absorb ctrl e;
      (ctrl.Rt.count, ctrl.Rt.record)
  in
  (* the steps and costs at which target's fire path starts and ends *)
  let span target =
    let e = X.create image in
    let (_ : unit -> _) = inject target e in
    let first = ref None and last = ref None and left = ref false in
    while e.X.status = X.Running && not !left do
      let pc = e.X.pc and c0 = e.X.cost in
      X.step e;
      if on_fire pc then begin
        if !first = None then first := Some (e.X.steps, c0);
        last := Some (e.X.steps, e.X.cost)
      end
      else if !last <> None then left := true
    done;
    match (!first, !last) with
    | Some (s0, c0), Some (s1, c1) -> (s0, c0, s1, c1)
    | _ -> Alcotest.failf "EP: target %d never fires" target
  in
  let polled target =
    let s0, _, s1, _ = span target in
    s1 / 1024 > (s0 - 1) / 1024
  in
  let rec find target =
    if target > 2_000 then Alcotest.fail "EP: no fire path holds a poll slot"
    else if polled target then target
    else find (target + 1)
  in
  List.iter
    (fun target ->
      let _, c0, _, c1 = span target in
      decoded_equals_step
        ~what:(Printf.sprintf "EP fire path, target %d" target)
        ~budgets:(List.init (c1 - c0 + 5) (fun i -> c0 - 2 + i) @ [ 100_000_000 ])
        image (inject target))
    [ 3; find 100 ]

(* --- the Instr_image overlay table: one engine-owned copy ---------------- *)

(* Overlays on one engine write into the engine's one fusion-free table,
   which a reset or the next overlay puts back to pristine.  After an
   illegal overlay on the program's hottest pc, a hooked run (which
   dispatches the same table), and an illegal overlay there again
   replaced by a legal one elsewhere, must each run like the step loop;
   the first overlay on a decode builds the table, and a later one
   allocates no table. *)
let test_overlay_table_reused () =
  let p = T.prepare T.Refine (List.find (fun (b : Reg.bench) -> b.Reg.name = "EP") Reg.all).Reg.source in
  let image = p.T.image in
  let n = Array.length image.L.code in
  (* REFINE's library in profiling mode: every selector call answers 0 *)
  let profiling () = Rt.refine_handlers (Rt.create Rt.Profile) in
  let visits = Array.make n 0 in
  let e = X.create ~ext_extra:(profiling ()) image in
  while e.X.status = X.Running && e.X.steps < 200_000 do
    visits.(e.X.pc) <- visits.(e.X.pc) + 1;
    X.step e
  done;
  (* the two most visited pcs *)
  let by_visits = List.sort (fun a b -> compare visits.(b) visits.(a)) (List.init n Fun.id) in
  let hot = List.nth by_visits 0 and other = List.nth by_visits 1 in
  let eng = X.create_from_snapshot ~ext_extra:(profiling ()) p.T.snap in
  X.install_decoded eng (Some p.T.dprog);
  let words f =
    let words () =
      let minor, promoted, major = Gc.counters () in
      minor +. major -. promoted
    in
    let w = words () in
    f ();
    int_of_float (words () -. w)
  in
  let cold = words (fun () -> X.set_overlay eng ~pc:hot None) in
  if cold < n then Alcotest.failf "the first overlay allocated %d words, not a %d-slot table" cold n;
  (match (X.run ~max_steps:200_000L eng).X.status with
  | X.Trapped (X.Illegal_instr pc) when pc = hot -> ()
  | _ -> Alcotest.failf "the illegal overlay at pc %d was never reached" hot);
  (* a hooked run dispatches the same table, pristine again after reset;
     the hook declares no pc, so REFINE's skip window has no visit of its
     to retire *)
  let hook (e : X.t) =
    e.X.post_hook <-
      Some { X.on_instr = (fun _ _ _ -> ()); hook_cost = 2; hook_pcs = Array.make n false }
  in
  X.reset ~ext_extra:(profiling ()) eng;
  hook eng;
  let hooked = X.run ~max_steps:200_000L eng in
  let reference = X.create ~ext_extra:(profiling ()) image in
  hook reference;
  Alcotest.check Test_fastpath.result_t "hooked run after reset runs like the step loop"
    (X.run ~max_steps:200_000L reference) hooked;
  X.reset ~ext_extra:(profiling ()) eng;
  (* a second overlay replaces the first, as in the step loop *)
  X.set_overlay eng ~pc:hot None;
  let legal = Some image.L.code.(other) in
  let warm = words (fun () -> X.set_overlay eng ~pc:other legal) in
  if warm >= 256 then Alcotest.failf "an overlay on a warm engine allocated %d words" warm;
  let reference = X.create ~ext_extra:(profiling ()) image in
  X.set_overlay reference ~pc:other legal;
  Alcotest.check Test_fastpath.result_t "second overlay runs like the step loop"
    (X.run ~max_steps:200_000L reference) (X.run ~max_steps:200_000L eng);
  Alcotest.(check (array int64)) "same registers" (Test_fastpath.regs_of reference)
    (Test_fastpath.regs_of eng)

(* Production Instr_image samples share the domain's engine: consecutive
   samples, at two pcs at least, each equal the named oracle. *)
let test_instr_samples_share_engine () =
  let p = T.prepare T.Refine Test_fastpath.src_int in
  let pcs = Hashtbl.create 8 in
  let rec go s =
    if s < 16 then begin
      let prod = T.run_injection ~model:F.Instr_image p (P.create s) in
      let refr = Oracle.injection ~model:F.Instr_image p (P.create s) in
      if prod <> refr then Alcotest.failf "Instr_image sample %d diverges from the oracle" s;
      (match prod.F.fault with
      | Some r -> Scanf.sscanf r.F.reg_name "code[%d]" (fun pc -> Hashtbl.replace pcs pc ())
      | None -> ());
      go (s + 1)
    end
  in
  go 0;
  Alcotest.(check bool) "samples at two different pcs" true (Hashtbl.length pcs >= 2)

(* --- the named oracle: production sample = step-loop reference ---------- *)

let all_models =
  [
    F.Reg_bit;
    F.Mem_cell;
    F.Instr_image;
    F.Multi_bit { bits = 3; burst = false };
    F.Multi_bit { bits = 4; burst = true };
  ]

(* The fixed sources of the campaign-level suites run first, then
   generated programs. *)
let arb_source =
  let fixed = [ ("src_int", Test_fastpath.src_int); ("src_float", Test_fastpath.src_float) ] in
  QCheck.make ~print:fst
    (QCheck.Gen.graft_corners
       (QCheck.Gen.map
          (fun seed -> (Printf.sprintf "seed %d" seed, Test_semantics.gen_program seed))
          (QCheck.Gen.int_range 1 5000))
       fixed ())

(* each tool's cell under the five operand-site models, then PINFI's
   opcode cell under the model that owns its population *)
let prop_production_matches_reference =
  QCheck.Test.make
    ~name:
      "production sample = step-loop reference: outcome, cost, fault (3 tools x 5 models, PINFI \
       opcode)"
    ~count:8 arb_source
    (fun (label, src) ->
      let seed = Hashtbl.hash label in
      List.for_all
        (fun (p, models) ->
          List.for_all
            (fun model ->
              List.for_all
                (fun i ->
                  let s = (seed * 131) + i in
                  let prod = T.run_injection ~model p (P.create s) in
                  let refr = Oracle.injection ~model p (P.create s) in
                  if prod <> refr then
                    QCheck.Test.fail_reportf
                      "production/reference divergence (%s, %s, %s, sample %d): cost %Ld vs %Ld"
                      label (T.kind_name p.T.kind) (F.string_of_model model) i prod.F.run_cost
                      refr.F.run_cost;
                  true)
                [ 0; 1; 2 ])
            models)
        (List.map (fun kind -> (T.prepare kind src, all_models)) [ T.Refine; T.Llfi; T.Pinfi ]
        @ [ (T.prepare ~model:F.Opcode T.Pinfi src, [ F.Opcode ]) ]))

(* --- the named oracle: production profile = step-loop reference --------- *)

let pp_profile fmt (p : F.profile) =
  Format.fprintf fmt "exit %d, dyn_count %Ld, profile_cost %Ld, output %d bytes (digest %s)"
    p.F.golden_exit p.F.dyn_count p.F.profile_cost
    (String.length p.F.golden_output)
    (Digest.to_hex (Digest.string p.F.golden_output))

let profile_t = Alcotest.testable pp_profile ( = )

(* Every sample's target draw and timeout rest on its cell's profile, and
   the decoded engine retires most of a profiling run's dynamic targets
   inside the skip window (selector calls, LLFI calls, PINFI hook visits).
   So each production profile — [Tool.prepare]'s for the three tools on
   the 14 programs, and for PINFI's opcode population — must equal the
   step-loop profiling run, where every target enters the library. *)
let test_profiles_match_reference () =
  List.iter
    (fun (b : Reg.bench) ->
      List.iter
        (fun kind ->
          let p = T.prepare kind b.Reg.source in
          let what = b.Reg.name ^ "/" ^ T.kind_name kind in
          Alcotest.check profile_t what (Oracle.profile p) p.T.profile;
          if kind = T.Pinfi then begin
            let o = T.prepare ~model:F.Opcode kind b.Reg.source in
            Alcotest.check profile_t (what ^ " opcode corruption") (Oracle.profile o) o.T.profile
          end)
        [ T.Refine; T.Llfi; T.Pinfi ])
    Reg.all

let qcheck = QCheck_alcotest.to_alcotest

let tests =
  [
    qcheck prop_decoded_matches_legacy;
    qcheck prop_decoded_reset_pristine;
    Alcotest.test_case "illegal overlay traps under decoded dispatch" `Quick
      test_decoded_illegal_overlay;
    Alcotest.test_case "overlay inside fused groups and on fi-splice heads" `Quick
      test_overlay_in_fused_groups;
    Alcotest.test_case "install/detach/foreign-image checks" `Quick test_install_detach;
    Alcotest.test_case "every idiom fuses and runs identically" `Quick test_superinstr_counts;
    Alcotest.test_case "every Fimap splice of the 14 REFINE images fuses" `Quick
      test_every_splice_fuses;
    Alcotest.test_case "self-latch and spin: decoded = step at poll-slot budgets" `Quick
      test_loop_shapes_decoded_equal_step;
    qcheck prop_production_matches_reference;
    Alcotest.test_case "production profile = step-loop reference (3 tools x 14, opcode)" `Quick
      test_profiles_match_reference;
    Alcotest.test_case "weighted slots = step reference at every budget edge" `Quick
      test_weighted_slots_equal_reference;
    Alcotest.test_case "fire paths hold no closure of their own (14 REFINE images)" `Quick
      test_fire_path_words;
    Alcotest.test_case
      "a prepared REFINE cell keeps < 6 words per code slot, LLFI < 15, PINFI < 16 (14 programs)"
      `Quick test_cell_words;
    Alcotest.test_case "firing sample = step across a fire path, poll slot inside" `Quick
      test_fire_path_decoded_equal_step;
    Alcotest.test_case "overlay table reused: slot restored, no copy when warm" `Quick
      test_overlay_table_reused;
    Alcotest.test_case "Instr_image samples at two pcs on one engine = oracle" `Quick
      test_instr_samples_share_engine;
    Alcotest.test_case "shared closures = step reference at every recurrence's budget edges" `Quick
      test_shared_closures_exact;
  ]
