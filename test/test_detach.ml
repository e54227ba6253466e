(* Differential tests for post-injection detach (DESIGN.md §20).

   Once a REFINE sample's single injection has retired, the run hands off
   to its prepared detach target — the golden twin, read off the
   instrumented image through the correspondence map — and simulates the
   rest at golden speed; LLFI and PINFI have no target and run attached
   to the end.  The handoff must be invisible in results: every
   production sample, detach armed, equals the named oracle's step-loop
   run of the instrumented binary (outcome, modeled cost and fault
   record) across fault models, sandbox quotas and call-site candidates.
   Every handoff decline must leave the run attached with identical
   semantics, and a mutated detach image must never be served from the
   artifact cache. *)

module M = Refine_mir.Minstr
module R = Refine_mir.Reg
module Ir = Refine_ir.Ir
module X = Refine_machine.Exec
module L = Refine_backend.Layout
module P = Refine_support.Prng
module F = Refine_core.Fault
module T = Refine_core.Tool
module Fm = Refine_backend.Fimap
module Reg = Refine_bench_progs.Registry
module Mx = Refine_obs.Metrics

let all_models =
  [
    F.Reg_bit;
    F.Mem_cell;
    F.Instr_image;
    F.Multi_bit { bits = 3; burst = false };
    F.Multi_bit { bits = 4; burst = true };
  ]

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

(* identity correspondence: every pc is its own golden rank — one mapped
   piece from 0, then the end piece *)
let identity_map n = { X.h_pcs = [| 0; n |]; h_ranks = [| 0; -1 |] }

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

let fire_at k = ("fire", 2, fun (t : X.t) -> if t.X.regs.{R.gpr 1} = Int64.of_int k then t.X.detach_req <- true)

let baseline image exts = X.run (X.create_from_snapshot ~ext_extra:exts (X.snapshot image))

let test_handoff_map_identity () =
  let image = loop_image 2000 in
  let snap = X.snapshot image in
  let r0 = baseline image [ fire_at 600 ] in
  let eng = X.create_from_snapshot ~ext_extra:[ fire_at 600 ] snap in
  let plan =
    { X.plan_prog = X.decode image; plan_map = identity_map (Array.length image.L.code) }
  in
  let r = X.run ~detach:plan eng in
  Alcotest.(check bool) "handoff happened" true r.X.detached;
  Alcotest.(check int) "identity map needs no drain" 0 r.X.drain_steps;
  Alcotest.(check string) "detached run invisible" (sig_of r0) (sig_of r)

let test_drain_exhaustion_declines () =
  let image = loop_image 2000 in
  let snap = X.snapshot image in
  let r0 = baseline image [ fire_at 600 ] in
  let eng = X.create_from_snapshot ~ext_extra:[ fire_at 600 ] snap in
  (* no pc ever has a golden rank (one piece without a counterpart): the
     drain must hit its cap (or the program's end) and decline, leaving
     the run attached *)
  let no_rank = { X.h_pcs = [| 0 |]; h_ranks = [| -1 |] } in
  let r = X.run ~detach:{ X.plan_prog = X.decode image; plan_map = no_rank } eng in
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
        X.store64 t (Int64.to_int t.X.regs.{R.rsp}) 0x7afe7afeL;
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
    { X.plan_prog = X.decode image; plan_map = identity_map (Array.length image.L.code) }
  in
  let r = X.run ~detach:plan eng in
  Alcotest.(check bool) "smashed RA declines handoff" false r.X.detached;
  Alcotest.(check string) "attached-identical after decline" (sig_of r0) (sig_of r)

(* A source image and its golden twin: the source shifted by one leading
   instruction, so every golden pc is the instrumented pc + 1, with
   [globals_of_twin] added to the twin's globals. *)
let shifted_images globals_of_twin =
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
  let a = global "a" 24 's' in
  let src_image = Test_fastpath.image_of ~globals:[ a ] (body 0) in
  let golden =
    Test_fastpath.image_of ~globals:(a :: globals_of_twin)
      (M.Mmov (R.gpr 5, M.Reg (R.gpr 5)) :: body 1)
  in
  let n = Array.length src_image.L.code in
  (* one mapped piece whose first pc maps to golden pc 1 *)
  let shifted = { X.h_pcs = [| 0; n |]; h_ranks = [| 1; -1 |] } in
  (src_image, golden, { X.plan_prog = X.decode golden; plan_map = shifted })

(* The handoff switches the running engine in place.  After it, the
   engine's registers and memory must equal an attached run's at the same
   step, except the live return-address slot, which now holds the
   translated golden pc; a plain reset must bring back the instrumented
   image and a pristine arena. *)
let test_handoff_in_place () =
  let module Mem = Refine_ir.Memlayout in
  let src_image, golden, plan = shifted_images [] in
  let src_snap = X.snapshot src_image in
  (* fire retires at step 3001; the handoff happens at the 3072 poll slot,
     where the step budget also ends, so the twin executes nothing *)
  let attached = X.create_from_snapshot ~ext_extra:[ fire_at 600 ] src_snap in
  let r0 = X.run ~max_steps:3072L attached in
  let eng = X.create_from_snapshot ~ext_extra:[ fire_at 600 ] src_snap in
  X.install_decoded eng (Some (X.decode src_image));
  let r = X.run ~max_steps:3072L ~detach:plan eng in
  Alcotest.(check bool) "handed off" true r.X.detached;
  Alcotest.(check string) "result = attached run's" (sig_of r0) (sig_of r);
  Alcotest.(check bool) "running the twin's image" true (eng.X.image == golden);
  Alcotest.(check int) "pc translated" (attached.X.pc + 1) eng.X.pc;
  Alcotest.(check (array int64)) "registers = attached run's" (Test_fastpath.regs_of attached)
    (Test_fastpath.regs_of eng);
  let ra = Mem.mem_size - 16 in
  Alcotest.(check int64) "attached return address" 1L (Test_fastpath.get64 attached.X.mem ra);
  Alcotest.(check int64) "translated return address" 2L (Test_fastpath.get64 eng.X.mem ra);
  let expect = Test_fastpath.mem_copy attached in
  Test_fastpath.set64 expect ra 2L;
  Alcotest.(check bool) "memory = attached run's but the return-address slot" true
    (expect = eng.X.mem);
  X.reset eng;
  Alcotest.(check bool) "reset: back on the instrumented image" true (eng.X.image == src_image);
  Alcotest.(check int) "reset: pc at the entry" src_image.L.entry eng.X.pc;
  Alcotest.(check bool) "reset: pristine arena" true
    (eng.X.mem = (X.create_from_snapshot src_snap).X.mem)

(* A plan whose image does not share the engine's extern table or heap
   base cannot continue on the engine's handlers and memory layout: the
   run refuses it up front, whether or not a handoff would happen. *)
let test_foreign_target_rejected () =
  let refused name plan image =
    let eng = X.create_from_snapshot ~ext_extra:[ fire_at 600 ] (X.snapshot image) in
    match X.run ~detach:plan eng with
    | _ -> Alcotest.failf "%s: plan accepted" name
    | exception Invalid_argument _ -> ()
  in
  let src_image, _, plan = shifted_images [ { Ir.gname = "b"; gsize = 4096; gbytes = None } ] in
  refused "different heap base" plan src_image;
  let image = loop_image 2000 in
  let other =
    Test_fastpath.image_of
      (List.map
         (function M.Mcallext _ -> M.Mcallext "other" | i -> i)
         (Array.to_list image.L.code))
  in
  refused "different extern table"
    { X.plan_prog = X.decode other; plan_map = identity_map (Array.length other.L.code) }
    image

(* An armed Instr_image overlay shortens the loop (it now exits at 1000
   instead of 2000).  Its pc is an instrumented one, meaningless in twin
   coordinates, so the handoff declines and the run stays attached. *)
let test_overlay_handoff () =
  let image = loop_image 2000 in
  let short = Some (M.Mcmp (R.gpr 1, M.Imm 1000L)) in
  let run ?detach () =
    let eng = X.create_from_snapshot ~ext_extra:[ fire_at 100 ] (X.snapshot image) in
    X.install_decoded eng (Some (X.decode image));
    X.set_overlay eng ~pc:3 short;
    X.run ?detach eng
  in
  let r0 = run () in
  Alcotest.(check bool) "the overlay shortens the loop" true
    (r0.X.steps < (baseline image [ fire_at 100 ]).X.steps);
  let n = Array.length image.L.code in
  let r = run ~detach:{ X.plan_prog = X.decode image; plan_map = identity_map n } () in
  Alcotest.(check bool) "map mode declines" false r.X.detached;
  Alcotest.(check string) "declined run = attached run" (sig_of r0) (sig_of r)

(* --- the per-sample eligibility matrix --------------------------------- *)

let test_plan_matrix () =
  let pr = T.prepare T.Refine Test_fastpath.src_int in
  let pl = T.prepare T.Llfi Test_fastpath.src_int in
  let pp = T.prepare T.Pinfi Test_fastpath.src_int in
  let armed p model = Option.is_some (T.detach_plan_for p model) in
  Alcotest.(check bool) "REFINE call-free program has a twin" true (Option.is_some pr.T.detach);
  List.iter
    (fun model ->
      Alcotest.(check bool)
        (Printf.sprintf "REFINE + %s armed" (F.string_of_model model))
        (model <> F.Instr_image) (armed pr model))
    all_models;
  List.iter
    (fun (name, p) ->
      Alcotest.(check bool) (name ^ " never has a target") true (Option.is_none p.T.detach);
      List.iter
        (fun model ->
          Alcotest.(check bool)
            (Printf.sprintf "%s + %s never armed" name (F.string_of_model model))
            false (armed p model))
        all_models)
    [ ("LLFI", pl); ("PINFI", pp) ]

(* --- mutated detach images must never be served from the cache ---------- *)

let test_mutated_detach_never_served () =
  T.reset_artifact_caches ();
  let p1 = T.prepare T.Refine Test_fastpath.src_int in
  let dt1 = Option.get p1.T.detach in
  let pristine = dt1.T.dt_image.L.code.(0) in
  (* corrupt the cached golden twin in place: the prepared tier, whose
     fingerprint covers the detach code, must notice and rebuild instead
     of serving the mutation *)
  dt1.T.dt_image.L.code.(0) <- M.Mhalt;
  let p2 = T.prepare T.Refine Test_fastpath.src_int in
  let dt2 = Option.get p2.T.detach in
  Alcotest.(check bool) "rebuilt, not served mutated" true
    (dt2.T.dt_image.L.code.(0) = pristine && not (dt2.T.dt_image == dt1.T.dt_image))

(* --- §4.2.2: the extracted twin is the FI-free binary ------------------- *)

let lib_call_cost = Refine_core.Fi_cost.refine_lib_call

(* the registry programs whose REFINE image has call-site candidates *)
let call_site_programs = [ "CoMD"; "FT"; "SP" ]

(* twin pcs of the collapsed jumps: one per splice whose candidate is a call *)
let call_site_jumps (image : L.image) (m : Fm.t) =
  List.filter_map
    (fun (s : Fm.splice) ->
      match image.L.code.(s.Fm.sp_cand) with
      | M.Mcalli _ -> Some (Fm.rank m.Fm.handoff s.Fm.sp_start)
      | _ -> None)
    m.Fm.splices

(* [code] without the slots in [jumps], branch targets shifted to match
   (nothing branches to a collapsed jump: it is only ever returned to) *)
let drop_slots (code : M.t array) jumps =
  let n = Array.length code in
  let shift = Array.make (n + 1) 0 in
  for pc = 0 to n - 1 do
    shift.(pc + 1) <- (shift.(pc) + if List.mem pc jumps then 0 else 1)
  done;
  let tr = function
    | M.Mjmp l -> M.Mjmp shift.(l)
    | M.Mjcc (cc, l) -> M.Mjcc (cc, shift.(l))
    | M.Mcalli l -> M.Mcalli shift.(l)
    | i -> i
  in
  Array.of_list
    (List.filteri (fun pc _ -> not (List.mem pc jumps)) (Array.to_list (Array.map tr code)))

let test_twin_is_fi_free_binary () =
  List.iter
    (fun name ->
      let src = (Reg.find name).Reg.source in
      let refine = (T.prepare T.Refine src).T.image and pinfi = (T.prepare T.Pinfi src).T.image in
      match Fm.extract ~lib_call_cost refine with
      | None -> Alcotest.failf "%s: the REFINE splices do not parse" name
      | Some (twin, m) ->
        let jumps = call_site_jumps refine m in
        Alcotest.(check bool)
          (name ^ ": has call-site candidates")
          (List.mem name call_site_programs) (jumps <> []);
        if jumps = [] then
          Alcotest.(check bool) (name ^ ": twin = PINFI image") true
            (Fm.build ~lib_call_cost refine pinfi <> None)
        else begin
          Alcotest.(check int)
            (name ^ ": twin = PINFI + one jump per call-site splice")
            (Array.length pinfi.L.code + List.length jumps)
            (Array.length twin.L.code);
          Alcotest.(check bool)
            (name ^ ": twin without its call-site jumps = PINFI image")
            true
            (drop_slots twin.L.code jumps = pinfi.L.code)
        end)
    Reg.names

(* The dense correspondence, from its definition: every splice's pcs
   dropped but the start of a call-site candidate's splice (its collapsed
   jump), the rest ranked in order; [next] at each pc is the first rank
   at or after it, and -1 from the image length on. *)
let dense_map (image : L.image) (splices : Fm.splice list) =
  let n = Array.length image.L.code in
  let kept = Array.make n true in
  List.iter
    (fun (s : Fm.splice) ->
      for pc = s.Fm.sp_start to s.Fm.sp_end do
        kept.(pc) <- false
      done;
      match image.L.code.(s.Fm.sp_cand) with
      | M.Mcalli _ -> kept.(s.Fm.sp_start) <- true
      | _ -> ())
    splices;
  let rank = Array.make n (-1) and g = ref 0 in
  Array.iteri
    (fun pc k ->
      if k then begin
        rank.(pc) <- !g;
        incr g
      end)
    kept;
  let next = Array.make (n + 1) (-1) in
  for pc = n - 1 downto 0 do
    next.(pc) <- (if rank.(pc) >= 0 then rank.(pc) else next.(pc + 1))
  done;
  (rank, next)

(* The splice-sized map answers exactly what the dense table would, at
   every pc of the 14 REFINE images and just outside them, with two
   pieces per splice (its dropped pcs and the original code after them)
   besides the code before the first splice and the end piece. *)
let test_map_equals_dense () =
  List.iter
    (fun (b : Reg.bench) ->
      let image = (T.prepare T.Refine b.Reg.source).T.image in
      match Fm.extract ~lib_call_cost image with
      | None -> Alcotest.failf "%s: the REFINE splices do not parse" b.Reg.name
      | Some (_, m) ->
        let h = m.Fm.handoff in
        let rank, next = dense_map image m.Fm.splices in
        let n = Array.length rank in
        for pc = -2 to n + 2 do
          let want_rank = if pc >= 0 && pc < n then rank.(pc) else -1 in
          let want_next = if pc >= 0 && pc <= n then next.(pc) else -1 in
          if Fm.rank h pc <> want_rank || Fm.next h pc <> want_next then
            Alcotest.failf "%s, pc %d: rank %d next %d, dense %d %d" b.Reg.name pc (Fm.rank h pc)
              (Fm.next h pc) want_rank want_next
        done;
        let pieces = Array.length h.Fm.h_pcs in
        if pieces > (2 * List.length m.Fm.splices) + 2 then
          Alcotest.failf "%s: %d pieces for %d splices" b.Reg.name pieces
            (List.length m.Fm.splices))
    Reg.all

(* --- call-site candidates: handoffs on the programs that have them ------ *)

let detach_total () =
  match Mx.find "refine_detach_total" [ ("tool", "REFINE") ] with
  | Some (Mx.Counter n) -> n
  | _ -> 0L

(* One production sample (detach armed) against the named oracle: the
   same generator drives both, and outcome, modeled cost and fault record
   must agree. *)
let matches_oracle ?output_quota ~model p seed =
  let prod = T.run_injection ?output_quota ~model p (P.create seed) in
  prod = Oracle.injection ?output_quota ~model p (P.create seed)

(* A call-site candidate's splice runs on the return edge; the twin pays
   it at the collapsed jump.  Samples that end inside a callee, or hand
   off while such a frame is open, must still match the attached
   step-loop run. *)
let test_call_site_detach_invisible () =
  Refine_obs.Control.enable ();
  Fun.protect ~finally:Refine_obs.Control.disable (fun () ->
      let before = detach_total () in
      List.iter
        (fun name ->
          let p = T.prepare T.Refine (Reg.find name).Reg.source in
          List.iter
            (fun model ->
              List.iter
                (fun i ->
                  if not (matches_oracle ~model p (9100 + (31 * i))) then
                    Alcotest.failf "%s, %s, sample %d: detached sample differs from the oracle"
                      name (F.string_of_model model) i)
                [ 0; 1; 2; 3; 4; 5 ])
            [
              F.Reg_bit;
              F.Mem_cell;
              F.Multi_bit { bits = 3; burst = false };
              F.Multi_bit { bits = 4; burst = true };
            ])
        call_site_programs;
      Alcotest.(check bool) "REFINE handed off" true (Int64.compare (detach_total ()) before > 0))

(* --- per-sample differential against the oracle, random programs ------- *)

(* Fixed-PRNG injection batches over a generated program; the model
   rotates with the seed.  One leg runs under the paper-default sandbox,
   one under a 16-byte output cap, so a handoff that happens before or
   after the cap trips must match the oracle too. *)
let prop_detach_invisible =
  QCheck.Test.make ~name:"detach armed = step-loop oracle under sandbox quotas (random programs)"
    ~count:5
    QCheck.(int_range 1 5000)
    (fun seed ->
      let src = Test_semantics.gen_program seed in
      let model = List.nth all_models (seed mod List.length all_models) in
      List.for_all
        (fun kind ->
          let p = T.prepare kind src in
          List.for_all
            (fun output_quota ->
              List.iter
                (fun i ->
                  if not (matches_oracle ?output_quota ~model p (4000 + (7 * i))) then
                    QCheck.Test.fail_reportf "oracle divergence (seed %d, %s, %s, sample %d)" seed
                      (T.kind_name kind) (F.string_of_model model) i)
                [ 0; 1; 2; 3; 4; 5 ];
              true)
            [ None; Some 16 ])
        [ T.Refine; T.Llfi ])

let qcheck = QCheck_alcotest.to_alcotest

let tests =
  [
    Alcotest.test_case "map-mode handoff: identity map, zero drain" `Quick
      test_handoff_map_identity;
    Alcotest.test_case "drain exhaustion declines, run stays attached" `Quick
      test_drain_exhaustion_declines;
    Alcotest.test_case "smashed return address declines the handoff" `Quick
      test_smashed_return_address_declines;
    Alcotest.test_case "in-place handoff: state = attached run's, reset restores" `Quick
      test_handoff_in_place;
    Alcotest.test_case "foreign extern table or heap base rejected" `Quick
      test_foreign_target_rejected;
    Alcotest.test_case "armed overlay: map handoff declines, run stays attached" `Quick
      test_overlay_handoff;
    Alcotest.test_case "per-sample eligibility matrix" `Quick test_plan_matrix;
    Alcotest.test_case "mutated detach image is never served" `Quick
      test_mutated_detach_never_served;
    Alcotest.test_case "extracted twin = FI-free binary (+ call-site jumps)" `Quick
      test_twin_is_fi_free_binary;
    Alcotest.test_case "splice-sized map = dense rank and next at every pc (14 REFINE)" `Quick
      test_map_equals_dense;
    Alcotest.test_case "call-site candidates: detached samples = oracle" `Quick
      test_call_site_detach_invisible;
    qcheck prop_detach_invisible;
  ]
