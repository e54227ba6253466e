(* Differential tests for post-injection detach (DESIGN.md §20).

   Once a REFINE or LLFI sample's single injection has retired, the run
   hands off to a prepared detach target — the golden twin via the
   correspondence map, or a branch-patched copy of the instrumented image
   — and simulates the rest at golden speed.  The refactor must be
   invisible in results: fixed-seed outcome tables (counts AND summed
   modeled cost) are bit-identical with detach on or off, across all five
   fault models, forced-fallback mode, and parallel domains.  Every
   handoff decline must leave the run attached with identical semantics,
   and a mutated detach image must never be served from the artifact
   cache. *)

module M = Refine_mir.Minstr
module R = Refine_mir.Reg
module Ir = Refine_ir.Ir
module X = Refine_machine.Exec
module L = Refine_backend.Layout
module P = Refine_support.Prng
module F = Refine_core.Fault
module T = Refine_core.Tool
module Fm = Refine_backend.Fimap
module Ex = Refine_campaign.Experiment

let all_models =
  [
    F.Reg_bit;
    F.Mem_cell;
    F.Instr_image;
    F.Multi_bit { bits = 3; burst = false };
    F.Multi_bit { bits = 4; burst = true };
  ]

(* restore every test hook this suite toggles *)
let protected f =
  Fun.protect
    ~finally:(fun () ->
      T.use_detach := true;
      T.force_detach_fallback := false)
    f

(* the observable slice of a result that must not depend on detach (the
   engine-level targets below retire 1:1 with the source, so steps are
   comparable too) *)
let sig_of (r : X.result) =
  Printf.sprintf "%s out=%S cost=%Ld steps=%Ld"
    (match r.X.status with
    | X.Running -> "running"
    | X.Exited c -> Printf.sprintf "exit %d" c
    | X.Trapped tr -> "trap " ^ X.string_of_trap tr
    | X.Timed_out -> "timeout")
    r.X.output r.X.cost r.X.steps

(* --- engine-level handoff mechanics ------------------------------------ *)

(* identity correspondence: every pc is its own golden rank *)
let identity_map n =
  {
    X.h_rank = Array.init n (fun i -> i);
    h_next = Array.init (n + 1) (fun i -> if i < n then i else -1);
  }

(* A counted loop that asks for detach mid-run through an extern: the
   request is honored at the next 1024-step poll slot, well inside the
   loop, so the handoff happens with live architectural state. *)
let loop_image n_iter =
  Test_fastpath.image_of
    [
      M.Mmov (R.gpr 1, M.Imm 0L);
      M.Mbin (Ir.Add, R.gpr 1, R.gpr 1, M.Imm 1L);
      M.Mcallext "fire";
      M.Mcmp (R.gpr 1, M.Imm (Int64.of_int n_iter));
      M.Mjcc (M.CNe, 1);
      M.Mhalt;
    ]

let fire_at k = ("fire", 2, fun (t : X.t) -> if t.X.regs.(R.gpr 1) = Int64.of_int k then t.X.detach_req <- true)
let fire_noop = ("fire", 2, fun (_ : X.t) -> ())

let baseline image exts = X.run (X.create_from_snapshot ~ext_extra:exts (X.snapshot image))

let test_handoff_map_identity () =
  let image = loop_image 2000 in
  let snap = X.snapshot image in
  let r0 = baseline image [ fire_at 600 ] in
  let eng = X.create_from_snapshot ~ext_extra:[ fire_at 600 ] snap in
  let plan =
    {
      X.plan_target = (fun () -> X.create_from_snapshot ~ext_extra:[ fire_noop ] snap);
      plan_map = Some (identity_map (Array.length image.L.code));
    }
  in
  let r = X.run ~detach:plan eng in
  Alcotest.(check bool) "handoff happened" true r.X.detached;
  Alcotest.(check int) "identity map needs no drain" 0 r.X.drain_steps;
  Alcotest.(check string) "detached run invisible" (sig_of r0) (sig_of r)

let test_handoff_patch_shared_coords () =
  let image = loop_image 2000 in
  let snap = X.snapshot image in
  let r0 = baseline image [ fire_at 600 ] in
  let eng = X.create_from_snapshot ~ext_extra:[ fire_at 600 ] snap in
  let plan =
    {
      X.plan_target = (fun () -> X.create_from_snapshot ~ext_extra:[ fire_noop ] snap);
      plan_map = None;
    }
  in
  let r = X.run ~detach:plan eng in
  Alcotest.(check bool) "patch-mode handoff happened" true r.X.detached;
  Alcotest.(check string) "patch-mode run invisible" (sig_of r0) (sig_of r)

let test_drain_exhaustion_declines () =
  let image = loop_image 2000 in
  let snap = X.snapshot image in
  let r0 = baseline image [ fire_at 600 ] in
  let eng = X.create_from_snapshot ~ext_extra:[ fire_at 600 ] snap in
  let n = Array.length image.L.code in
  (* no pc ever has a golden rank: the drain must hit its cap (or the
     program's end) and decline, leaving the run attached *)
  let no_rank = { X.h_rank = Array.make n (-1); h_next = Array.make (n + 1) (-1) } in
  let plan =
    {
      X.plan_target = (fun () -> X.create_from_snapshot ~ext_extra:[ fire_noop ] snap);
      plan_map = Some no_rank;
    }
  in
  let r = X.run ~detach:plan eng in
  Alcotest.(check bool) "declined" false r.X.detached;
  Alcotest.(check string) "declined run attached-identical" (sig_of r0) (sig_of r)

let test_smashed_return_address_declines () =
  (* main calls f; f smashes its own return-address slot and then asks
     for detach from inside a loop.  The shadow-call-stack validation
     must decline the handoff (recorded RA no longer in memory), and the
     attached continuation traps at [Mret] exactly like the baseline. *)
  let smash =
    ( "smash",
      1,
      fun (t : X.t) ->
        X.store64 t (Int64.to_int t.X.regs.(R.rsp)) 0x7afe7afeL;
        t.X.detach_req <- true )
  in
  let code =
    [
      M.Mcalli 2;
      M.Mhalt;
      M.Mmov (R.gpr 2, M.Imm 0L);
      M.Mcallext "smash";
      M.Mbin (Ir.Add, R.gpr 2, R.gpr 2, M.Imm 1L);
      M.Mcmp (R.gpr 2, M.Imm 3000L);
      M.Mjcc (M.CNe, 4);
      M.Mret;
    ]
  in
  let image = Test_fastpath.image_of code in
  let snap = X.snapshot image in
  let r0 = baseline image [ smash ] in
  (match r0.X.status with
  | X.Trapped (X.Bad_pc _) -> ()
  | _ -> Alcotest.failf "baseline should trap on the smashed RA, got %a" Test_fastpath.pp_result r0);
  let eng = X.create_from_snapshot ~ext_extra:[ smash ] snap in
  let plan =
    {
      X.plan_target = (fun () -> X.create_from_snapshot ~ext_extra:[ smash ] snap);
      plan_map = Some (identity_map (Array.length image.L.code));
    }
  in
  let r = X.run ~detach:plan eng in
  Alcotest.(check bool) "smashed RA declines handoff" false r.X.detached;
  Alcotest.(check string) "attached-identical after decline" (sig_of r0) (sig_of r)

(* A target arena reused from an earlier sample on another binary: after
   the handoff its memory must equal the source's everywhere except the
   live return-address slot, which now holds the translated golden pc.
   The golden twin is the source shifted by one leading instruction, so
   every golden pc is the instrumented pc + 1, and it carries an extra
   initialized global the source lacks: pages only the target flagged
   must be copied too (as the source's zeros). *)
let test_handoff_reused_target_memory () =
  let module Mem = Refine_ir.Memlayout in
  let global name size c = { Ir.gname = name; gsize = size; gbytes = Some (String.make size c) } in
  let body shift =
    [
      M.Mcalli (2 + shift);
      M.Mhalt;
      M.Mmov (R.gpr 1, M.Imm 0L);
      M.Mmov (R.gpr 3, M.Imm (Int64.of_int (40 * 4096)));
      M.Mbin (Ir.Add, R.gpr 1, R.gpr 1, M.Imm 1L);
      M.Mstore (R.gpr 1, R.gpr 3, 0);
      M.Mcallext "fire";
      M.Mcmp (R.gpr 1, M.Imm 3000L);
      M.Mjcc (M.CNe, 4 + shift);
      M.Mret;
    ]
  in
  let src_image = Test_fastpath.image_of ~globals:[ global "a" 24 's' ] (body 0) in
  let golden =
    Test_fastpath.image_of
      ~globals:[ global "a" 24 's'; global "b" (3 * 4096) 'g' ]
      (M.Mmov (R.gpr 5, M.Reg (R.gpr 5)) :: body 1)
  in
  let n = Array.length src_image.L.code in
  let shifted =
    {
      X.h_rank = Array.init n succ;
      h_next = Array.init (n + 1) (fun i -> if i < n then i + 1 else -1);
    }
  in
  (* the target's previous sample: another binary with larger globals, a
     store straddling two pages the source never touches, and a store
     beside the source's own store slot *)
  let prev =
    Test_fastpath.image_of ~globals:[ global "p" (5 * 4096) 'p' ]
      [
        M.Mmov (R.gpr 1, M.Imm (-1L));
        M.Mmov (R.gpr 3, M.Imm (Int64.of_int ((51 * 4096) - 4)));
        M.Mstore (R.gpr 1, R.gpr 3, 0);
        M.Mmov (R.gpr 3, M.Imm (Int64.of_int ((40 * 4096) + 8)));
        M.Mstore (R.gpr 1, R.gpr 3, 0);
        M.Mmov (R.ret_gpr, M.Imm 0L);
        M.Mhalt;
      ]
  in
  let g = X.create_from_snapshot (X.snapshot prev) in
  ignore (X.run g);
  let golden_snap = X.snapshot golden and golden_dp = X.decode golden in
  let plan =
    {
      X.plan_target =
        (fun () ->
          X.reset ~ext_extra:[ fire_noop ] ~snapshot:golden_snap g;
          X.install_decoded g (Some golden_dp);
          g);
      plan_map = Some shifted;
    }
  in
  let eng = X.create_from_snapshot ~ext_extra:[ fire_at 600 ] (X.snapshot src_image) in
  X.install_decoded eng (Some (X.decode src_image));
  (* fire retires at step 3001; the handoff happens at the 3072 poll slot,
     where the step budget also ends, so the target executes nothing *)
  let r = X.run ~max_steps:3072L ~detach:plan eng in
  Alcotest.(check bool) "handed off" true r.X.detached;
  Alcotest.(check int64) "stopped at the handoff" 3072L r.X.steps;
  Alcotest.(check int) "pc translated" (eng.X.pc + 1) g.X.pc;
  Alcotest.(check (array int64)) "registers carried" eng.X.regs g.X.regs;
  let ra = Mem.mem_size - 16 in
  Alcotest.(check int64) "source return address" 1L (Bytes.get_int64_le eng.X.mem ra);
  Alcotest.(check int64) "translated return address" 2L (Bytes.get_int64_le g.X.mem ra);
  let expect = Bytes.copy eng.X.mem in
  Bytes.set_int64_le expect ra 2L;
  Alcotest.(check bool) "memory = source's but the return-address slot" true
    (Bytes.equal expect g.X.mem);
  (* the copied pages are flagged on the target: its next reset is clean *)
  X.reset g;
  Alcotest.(check bool) "target resets clean" true
    (Bytes.equal g.X.mem (X.create_from_snapshot golden_snap).X.mem)

(* --- the per-sample eligibility matrix --------------------------------- *)

let test_plan_matrix () =
  protected (fun () ->
      let q = T.default_quotas in
      let pr = T.prepare T.Refine Test_fastpath.src_int in
      let pl = T.prepare T.Llfi Test_fastpath.src_int in
      let pp = T.prepare T.Pinfi Test_fastpath.src_int in
      let armed p model quotas = Option.is_some (T.detach_plan_for ~quotas p model) in
      Alcotest.(check bool) "REFINE call-free program maps" true
        (match pr.T.detach with Some dt -> dt.T.dt_map <> None | None -> false);
      Alcotest.(check bool) "PINFI never has a target" true (pp.T.detach = None);
      Alcotest.(check bool) "REFINE + Reg_bit armed" true (armed pr F.Reg_bit q);
      Alcotest.(check bool) "LLFI + Instr_image armed" true (armed pl F.Instr_image q);
      Alcotest.(check bool) "REFINE + Instr_image declined" false (armed pr F.Instr_image q);
      let live = { q with T.livelock_window = Some 4096 } in
      Alcotest.(check bool) "livelock declines REFINE" false (armed pr F.Reg_bit live);
      Alcotest.(check bool) "livelock keeps step-exact LLFI" true (armed pl F.Reg_bit live);
      T.use_detach := false;
      Alcotest.(check bool) "kill switch declines" false (armed pr F.Reg_bit q))

(* --- mutated detach images must never be served from the cache ---------- *)

let test_mutated_detach_never_served () =
  protected (fun () ->
      T.reset_artifact_caches ();
      let p1 = T.prepare T.Refine Test_fastpath.src_int in
      let dt1 = Option.get p1.T.detach in
      let pristine = dt1.T.dt_image.L.code.(0) in
      Alcotest.(check bool) "map mode" true (dt1.T.dt_map <> None);
      (* corrupt the cached golden twin in place: both the prepared tier
         (whose fingerprint covers the detach code) and the detach-golden
         tier (whose fingerprint is the golden code digest) must notice
         and rebuild instead of serving the mutation *)
      dt1.T.dt_image.L.code.(0) <- M.Mhalt;
      let p2 = T.prepare T.Refine Test_fastpath.src_int in
      let dt2 = Option.get p2.T.detach in
      Alcotest.(check bool) "rebuilt, not served mutated" true
        (dt2.T.dt_image.L.code.(0) = pristine && not (dt2.T.dt_image == dt1.T.dt_image)))

(* the fallback hook is part of the prepared tier's key: toggling it
   without a cache reset must never serve the other mode's target *)
let test_fallback_toggle_rekeys_prepared () =
  protected (fun () ->
      T.reset_artifact_caches ();
      (* the golden twin is shorter than the instrumented image; the
         branch-patched fallback is a same-length copy of it *)
      let golden_target () =
        let p = T.prepare T.Refine Test_fastpath.src_int in
        let dt = Option.get p.T.detach in
        Array.length dt.T.dt_image.L.code < Array.length p.T.image.L.code
      in
      Alcotest.(check bool) "map mode" true (golden_target ());
      T.force_detach_fallback := true;
      Alcotest.(check bool) "fallback set: patched target" false (golden_target ());
      T.force_detach_fallback := false;
      Alcotest.(check bool) "fallback cleared: golden target" true (golden_target ()))

(* --- per-sample differential: detach on/off, random programs ------------ *)

(* Fixed-PRNG injection batches over a generated program; the model
   rotates with the seed.  One leg runs under the paper-default sandbox,
   one with the livelock detector armed (declining REFINE's plan), so
   both the handoff and the decline paths must be invisible. *)
let samples_sig p ~model ~quotas n =
  List.init n (fun i ->
      let e = T.run_injection ~quotas ~model p (P.create (4000 + (7 * i))) in
      (e.F.outcome, e.F.run_cost, e.F.fault <> None))

let prop_detach_invisible =
  QCheck.Test.make ~name:"detach on/off: per-sample outcomes identical (random programs)"
    ~count:5
    QCheck.(int_range 1 5000)
    (fun seed ->
      protected (fun () ->
          let src = Test_semantics.gen_program seed in
          let model = List.nth all_models (seed mod List.length all_models) in
          let live = { T.default_quotas with T.livelock_window = Some 8192 } in
          List.for_all
            (fun kind ->
              let p = T.prepare kind src in
              List.for_all
                (fun quotas ->
                  T.use_detach := false;
                  let off = samples_sig p ~model ~quotas 6 in
                  T.use_detach := true;
                  let on = samples_sig p ~model ~quotas 6 in
                  if off <> on then
                    QCheck.Test.fail_reportf "detach divergence (seed %d, %s, %s)" seed
                      (T.kind_name kind) (F.string_of_model model);
                  true)
                [ T.default_quotas; live ])
            [ T.Refine; T.Llfi ]))

(* --- fixed-seed campaign equality: all five models, both targets -------- *)

let campaign_summary model =
  T.reset_artifact_caches ();
  Test_fastpath.matrix_summary
    (Ex.run_matrix ~model ~domains:2 ~samples:20 ~seed:13
       [ ("ints", Test_fastpath.src_int); ("floats", Test_fastpath.src_float) ]
       [ T.Refine; T.Llfi ])

let test_campaign_equality_all_models () =
  protected (fun () ->
      List.iter
        (fun model ->
          T.use_detach := false;
          let attached = campaign_summary model in
          T.use_detach := true;
          let detached = campaign_summary model in
          Alcotest.(check string)
            (F.string_of_model model ^ ": outcome table detach = no-detach") attached detached;
          (* the overlay fallback (branch-patched target, shared
             coordinates) must be equally invisible *)
          T.force_detach_fallback := true;
          let fallback = campaign_summary model in
          T.force_detach_fallback := false;
          Alcotest.(check string)
            (F.string_of_model model ^ ": outcome table fallback = no-detach") attached fallback)
        all_models)

let qcheck = QCheck_alcotest.to_alcotest

let tests =
  [
    Alcotest.test_case "map-mode handoff: identity map, zero drain" `Quick
      test_handoff_map_identity;
    Alcotest.test_case "patch-mode handoff: shared coordinates" `Quick
      test_handoff_patch_shared_coords;
    Alcotest.test_case "drain exhaustion declines, run stays attached" `Quick
      test_drain_exhaustion_declines;
    Alcotest.test_case "smashed return address declines the handoff" `Quick
      test_smashed_return_address_declines;
    Alcotest.test_case "reused target arena: memory = source's after handoff" `Quick
      test_handoff_reused_target_memory;
    Alcotest.test_case "per-sample eligibility matrix" `Quick test_plan_matrix;
    Alcotest.test_case "mutated detach image is never served" `Quick
      test_mutated_detach_never_served;
    Alcotest.test_case "fallback hook re-keys the prepared tier" `Quick
      test_fallback_toggle_rekeys_prepared;
    qcheck prop_detach_invisible;
    Alcotest.test_case "fixed-seed campaigns: detach = no-detach for all 5 models" `Slow
      test_campaign_equality_all_models;
  ]
