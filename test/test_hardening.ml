(* Adversarial-input hardening tests (DESIGN.md §13): execution sandbox
   quotas, the post-instrumentation MIR verifier, golden-run integrity and
   the quarantine plumbing through supervisor, journal, CSV and reports. *)

module E = Refine_machine.Exec
module M = Refine_mir.Minstr
module R = Refine_mir.Reg
module MF = Refine_mir.Mfunc
module MV = Refine_mir.Mverify
module T = Refine_core.Tool
module F = Refine_core.Fault
module Sel = Refine_passes.Selection
module S = Refine_support.Supervisor
module Ex = Refine_campaign.Experiment
module J = Refine_campaign.Journal
module Csv = Refine_campaign.Csv
module Rep = Refine_campaign.Report

let tmpfile () = Filename.temp_file "refine_hardening" ".log"
let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* an adversarial program: unbounded-looking output amplification *)
let chatty_src =
  {|
int main() {
  int i;
  for (i = 0; i < 4096; i = i + 1) { print_int(i); }
  return 0;
}
|}

(* the FI-instrumentable workload shared by the tool/campaign tests *)
let fi_src =
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

let engine_of ?(opt = Refine_passes.Pipeline.O2) source =
  let m = Refine_minic.Frontend.compile source in
  Refine_passes.Pipeline.optimize opt m;
  E.create (Refine_passes.Pipeline.compile m)

let build_mir ?(opt = Refine_passes.Pipeline.O2) source =
  let m = Refine_minic.Frontend.compile source in
  Refine_passes.Pipeline.optimize opt m;
  Refine_passes.Pipeline.to_mir m

let break_mir = { T.break_mir = true; flaky_golden = false }
let flaky_golden = { T.break_mir = false; flaky_golden = true }

(* ---- execution sandbox quotas ---- *)

let test_output_quota () =
  let r = E.run ~output_quota:64 (engine_of chatty_src) in
  (match r.E.status with
  | E.Trapped (E.Output_quota _) -> ()
  | _ -> Alcotest.fail "expected Output_quota trap");
  Alcotest.(check bool) "flagged truncated" true r.E.truncated;
  Alcotest.(check bool) "output cut at the quota" true (String.length r.E.output <= 64)

let test_output_quota_not_hit () =
  (* a generous quota never perturbs a clean run *)
  let free = E.run (engine_of chatty_src) in
  let capped = E.run ~output_quota:(String.length free.E.output + 1) (engine_of chatty_src) in
  Alcotest.(check bool) "clean exit" true (capped.E.status = free.E.status);
  Alcotest.(check bool) "not truncated" false capped.E.truncated;
  Alcotest.(check string) "identical output" free.E.output capped.E.output

(* ---- classification of sandboxed outcomes ---- *)

let prof golden =
  { F.golden_output = golden; golden_exit = 0; dyn_count = 8L; profile_cost = 100L }

let res ?(truncated = false) status output =
  { E.status; output; steps = 10L; cost = 10L; truncated; detached = false; drain_steps = 0 }

let test_truncated_is_crash () =
  (* a truncated prefix of the golden output must never read as Benign *)
  let p = prof "abcdef" in
  Alcotest.(check bool) "truncated prefix -> Crash" true
    (F.classify p (res ~truncated:true (E.Exited 0) "abc") = F.Crash);
  Alcotest.(check bool) "untruncated match -> Benign" true
    (F.classify p (res (E.Exited 0) "abcdef") = F.Benign)

let all_traps =
  [
    E.Mem_fault 0;
    E.Div_by_zero;
    E.Bad_pc 0;
    E.Stack_overflow;
    E.Out_of_memory;
    E.Extern_fault "x";
    E.Output_quota 64;
    E.Illegal_instr 0;
  ]

let test_quota_traps_classify_crash () =
  let p = prof "abcdef" in
  List.iter
    (fun t ->
      Alcotest.(check bool)
        (E.string_of_trap t ^ " -> Crash")
        true
        (F.classify p (res (E.Trapped t) "abcdef") = F.Crash))
    all_traps

let test_trap_names_distinct () =
  let names = List.map E.string_of_trap all_traps in
  Alcotest.(check int) "trap names distinct" (List.length names)
    (List.length (List.sort_uniq compare names))

(* ---- post-instrumentation MIR verifier ---- *)

let test_verifier_accepts_instrumented () =
  let funcs = build_mir fi_src in
  let frames = List.map (fun (mf : MF.t) -> (mf, mf.MF.frame_bytes)) funcs in
  let sites =
    List.fold_left (fun acc (mf, _) -> acc + Refine_passes.Refine_pass.run mf) 0 frames
  in
  Alcotest.(check bool) "sites instrumented" true (sites > 0);
  let verified =
    List.fold_left
      (fun acc (mf, fb) -> acc + MV.check_instrumented ~expect_frame_bytes:fb mf)
      0 frames
  in
  Alcotest.(check int) "verifier counts every splice" sites verified

let test_verifier_rejects_clique_clobber () =
  let funcs = build_mir fi_src in
  List.iter (fun mf -> ignore (Refine_passes.Refine_pass.run mf)) funcs;
  (* plant a write to a register outside the FI clique in one SetupFI block *)
  let planted = ref false in
  List.iter
    (fun (mf : MF.t) ->
      List.iter
        (fun (b : MF.mblock) ->
          if
            (not !planted)
            && List.exists (function M.Mcallext "fi_setup_fi" -> true | _ -> false) b.MF.code
          then begin
            planted := true;
            b.MF.code <- M.Mmov (R.gpr 6, M.Imm 0xBADL) :: b.MF.code
          end)
        mf.MF.blocks)
    funcs;
  Alcotest.(check bool) "clobber planted" true !planted;
  Alcotest.(check bool) "verifier rejects the clobber" true
    (try
       List.iter (fun mf -> ignore (MV.check_instrumented mf)) funcs;
       false
     with MV.Invalid _ -> true)

let test_verifier_rejects_frame_change () =
  let funcs = build_mir fi_src in
  match funcs with
  | [] -> Alcotest.fail "no functions"
  | mf :: _ ->
    ignore (Refine_passes.Refine_pass.run mf);
    Alcotest.(check bool) "frame growth rejected" true
      (try
         ignore (MV.check_instrumented ~expect_frame_bytes:(mf.MF.frame_bytes + 8) mf);
         false
       with MV.Invalid _ -> true)

(* ---- tool-level quarantine: chaos-injected hardening failures ---- *)

let test_chaos_break_mir_quarantines () =
  match T.prepare ~chaos:break_mir T.Refine fi_src with
  | exception T.Quarantine (category, _) ->
    Alcotest.(check string) "category" "mir-verifier" category
  | _ -> Alcotest.fail "expected Quarantine"

let test_chaos_flaky_golden_quarantines () =
  match T.prepare ~chaos:flaky_golden T.Refine fi_src with
  | exception T.Quarantine (category, _) ->
    Alcotest.(check string) "category" "nondeterministic-golden" category
  | _ -> Alcotest.fail "expected Quarantine"

let test_prepare_clean_under_verifier () =
  (* the default path — verifier on, double golden run — accepts a clean
     program under every tool *)
  List.iter
    (fun kind ->
      let p = T.prepare kind fi_src in
      Alcotest.(check bool) (T.kind_name kind ^ " population") true (p.T.profile.F.dyn_count > 0L))
    [ T.Refine; T.Llfi; T.Pinfi ]

let test_derived_output_quota () =
  let p = prof "abcdef" in
  Alcotest.(check int) "4 KiB floor" 4096 (T.derived_output_quota p);
  let big = prof (String.make 1024 'x') in
  Alcotest.(check int) "16x golden" (16 * 1024) (T.derived_output_quota big)

(* ---- campaign-level quarantine plumbing ---- *)

let quarantined_cell () =
  Ex.run_cell ~samples:4 ~seed:7 ~chaos:break_mir T.Refine ~program:"adv" ~source:fi_src ()

let test_run_cell_quarantined () =
  let cell = quarantined_cell () in
  (match cell.Ex.quarantined with
  | Some r -> Alcotest.(check bool) "categorized reason" true (contains r "mir-verifier")
  | None -> Alcotest.fail "cell not quarantined");
  Alcotest.(check int) "zero samples ran" 0 (Ex.attempted cell.Ex.counts)

(* a selection that names no function of the program leaves no target:
   each tool's cell is quarantined under its own metric label, not
   tallied as benign samples that injected nothing *)
let test_empty_population_quarantined () =
  let sel = { Sel.default with Sel.funcs = [ "nosuch" ] } in
  let label = [ ("reason", "empty-population") ] in
  let count () =
    match Refine_obs.Metrics.find "refine_quarantined_cells_total" label with
    | Some (Refine_obs.Metrics.Counter n) -> n
    | _ -> 0L
  in
  let cells =
    [ (T.Refine, F.Reg_bit); (T.Llfi, F.Reg_bit); (T.Pinfi, F.Reg_bit); (T.Pinfi, F.Opcode) ]
  in
  Refine_obs.Control.enable ();
  let before = count () in
  Fun.protect ~finally:Refine_obs.Control.disable (fun () ->
      List.iter
        (fun (kind, model) ->
          let name = T.kind_name kind ^ "/" ^ F.string_of_model model in
          let cell =
            Ex.run_cell ~sel ~model ~samples:4 ~seed:7 kind ~program:"adv" ~source:fi_src ()
          in
          (match cell.Ex.quarantined with
          | Some r ->
            if not (contains r "empty-population: " && contains r "funcs=nosuch") then
              Alcotest.failf "%s: reason %S" name r
          | None -> Alcotest.failf "%s: cell not quarantined" name);
          Alcotest.(check bool) (name ^ ": zero counts") true (cell.Ex.counts = Ex.zero))
        cells);
  Alcotest.(check int64) "one labeled quarantine per cell"
    (Int64.of_int (List.length cells))
    (Int64.sub (count ()) before)

let test_journal_quarantine_resume () =
  let path = tmpfile () in
  let j = J.create path in
  let cell =
    Ex.run_cell ~journal:j ~samples:3 ~seed:1 ~chaos:break_mir T.Refine ~program:"adv"
      ~source:fi_src ()
  in
  Alcotest.(check bool) "first run quarantined" true (cell.Ex.quarantined <> None);
  (* a resuming campaign sees the journaled quarantine and short-circuits:
     no chaos this time, yet the cell must stay quarantined without being
     re-prepared *)
  let j2 = J.create ~resume:true path in
  (match J.quarantine_reason j2 ~program:"adv" ~tool:"REFINE" with
  | Some r -> Alcotest.(check bool) "journaled reason kept" true (contains r "mir-verifier")
  | None -> Alcotest.fail "quarantine not journaled");
  let cell2 =
    Ex.run_cell ~journal:j2 ~samples:3 ~seed:1 T.Refine ~program:"adv" ~source:fi_src ()
  in
  Alcotest.(check bool) "resume short-circuits to quarantined" true (cell2.Ex.quarantined <> None);
  Alcotest.(check int) "still zero samples" 0 (Ex.attempted cell2.Ex.counts);
  Sys.remove path

let test_journal_skips_bad_lines () =
  (* satellite: an unknown outcome name (written by a newer version) or a
     malformed row is skipped and counted, never fatal *)
  let path = tmpfile () in
  let oc = open_out path in
  Printf.fprintf oc "# refine-journal v2\np\tREFINE\t0\t%s\t5\t1\treg\n"
    (F.string_of_outcome F.Benign);
  output_string oc "p\tREFINE\t1\ttranscendent\t5\t1\treg\n";
  output_string oc "garbage that is not a journal line\n";
  close_out oc;
  let j = J.create ~resume:true path in
  Alcotest.(check int) "one entry survives" 1 (J.length j);
  Alcotest.(check int) "two lines skipped" 2 (J.skipped j);
  Sys.remove path

(* a tiny three-tool campaign with REFINE quarantined, shared across the
   report tests *)
let adv_cells =
  lazy
    (let q = quarantined_cell () in
     let l = Ex.run_cell ~samples:4 ~seed:7 T.Llfi ~program:"adv" ~source:fi_src () in
     let p = Ex.run_cell ~samples:4 ~seed:7 T.Pinfi ~program:"adv" ~source:fi_src () in
     [ q; l; p ])

let test_csv_roundtrip_quarantine () =
  let cells = Lazy.force adv_cells in
  let cells' = Csv.of_string (Csv.to_string cells) in
  Alcotest.(check int) "cells preserved" (List.length cells) (List.length cells');
  List.iter2
    (fun (c : Ex.cell) (c' : Ex.cell) ->
      Alcotest.(check string) "program" c.Ex.program c'.Ex.program;
      Alcotest.(check int) "samples n" (Ex.total c.Ex.counts) (Ex.total c'.Ex.counts);
      Alcotest.(check bool) "quarantine flag" (c.Ex.quarantined <> None) (c'.Ex.quarantined <> None);
      match c'.Ex.quarantined with
      | Some r -> Alcotest.(check bool) "reason survives" true (contains r "mir-verifier")
      | None -> ())
    cells cells'

let test_reports_exclude_quarantined () =
  let cells = Lazy.force adv_cells in
  let rows = Rep.chi2_rows cells [ "adv" ] in
  (match rows with
  | [ row ] ->
    Alcotest.(check bool) "quarantined tool listed" true
      (List.mem_assoc "REFINE" row.Rep.quarantined_tools)
  | _ -> Alcotest.fail "expected one chi2 row");
  Alcotest.(check bool) "table5 marks [q]" true (contains (Rep.table5 rows) "[q]");
  Alcotest.(check bool) "quarantine report lists the cell" true
    (contains (Rep.quarantine_report cells) "adv");
  Alcotest.(check bool) "degradation flags the quarantine" true
    (String.concat "\n" (Rep.degradation cells) |> fun s -> contains s "QUARANTINED");
  Alcotest.(check bool) "journal skips surface in degradation" true
    (String.concat "\n" (Rep.degradation ~journal_skipped:3 cells) |> fun s ->
     contains s "journal")

let test_quota_campaign_completes () =
  (* an output cap a quarter of the derived one, applied to a healthy
     cell, leaves its statistics bit-identical: a quota only bounds
     resources, it never perturbs the outcome of runs that stay within it *)
  let base = Ex.run_cell ~samples:8 ~seed:5 T.Refine ~program:"adv" ~source:fi_src () in
  let sandboxed =
    Ex.run_cell
      ~quotas:{ T.default_quotas with T.output_bytes = Some 1024 }
      ~samples:8 ~seed:5 T.Refine ~program:"adv" ~source:fi_src ()
  in
  Alcotest.(check bool) "not quarantined" true (sandboxed.Ex.quarantined = None);
  Alcotest.(check int) "crash count unchanged" base.Ex.counts.Ex.crash sandboxed.Ex.counts.Ex.crash;
  Alcotest.(check int) "soc count unchanged" base.Ex.counts.Ex.soc sandboxed.Ex.counts.Ex.soc;
  Alcotest.(check int) "benign count unchanged" base.Ex.counts.Ex.benign sandboxed.Ex.counts.Ex.benign

(* ---- supervisor: quarantine/quota failures burn no retries ---- *)

let test_non_retryable_single_attempt () =
  let policy = { S.default_policy with S.max_retries = 3 } in
  let out =
    S.run ~policy ~domains:1 1 (fun ~attempt:_ _ -> raise (S.Non_retryable (Failure "bad input")))
  in
  match out.(0) with
  | S.Failed f ->
    Alcotest.(check int) "exactly one attempt" 1 f.S.attempts;
    Alcotest.(check bool) "payload unwrapped" true
      (match f.S.exn with Failure m -> String.equal m "bad input" | _ -> false)
  | _ -> Alcotest.fail "expected Failed"

let test_retryable_still_retries () =
  let policy = { S.default_policy with S.max_retries = 3 } in
  let out =
    S.run ~policy ~domains:1 1 (fun ~attempt i ->
        if attempt < 2 then failwith "flaky" else i)
  in
  match out.(0) with
  | S.Done (0, attempts) -> Alcotest.(check int) "third attempt wins" 3 attempts
  | _ -> Alcotest.fail "expected Done"

(* ---- properties ---- *)

let qcheck t = QCheck_alcotest.to_alcotest t

let sel_class = QCheck.oneofl [ Sel.All; Sel.Stack; Sel.Arith; Sel.Mem ]
let opt_level = QCheck.oneofl Refine_passes.Pipeline.[ O0; O1; O2 ]

let prop_instrumented_always_valid =
  QCheck.Test.make ~name:"any selection/opt instruments to verifier-valid MIR" ~count:12
    QCheck.(triple sel_class bool opt_level)
    (fun (cls, save_flags, opt) ->
      let funcs = build_mir ~opt fi_src in
      let frames = List.map (fun (mf : MF.t) -> (mf, mf.MF.frame_bytes)) funcs in
      let sel = Sel.{ funcs = [ "*" ]; instrs = cls } in
      let sites =
        List.fold_left
          (fun acc (mf, _) -> acc + Refine_passes.Refine_pass.run ~sel ~save_flags mf)
          0 frames
      in
      let verified =
        List.fold_left
          (fun acc (mf, fb) -> acc + MV.check_instrumented ~expect_frame_bytes:fb mf)
          0 frames
      in
      sites = verified)

let outcome_gen = QCheck.oneofl [ F.Crash; F.Soc; F.Benign; F.Tool_error ]

let prop_journal_roundtrip =
  QCheck.Test.make ~name:"journal entries roundtrip bit-identically" ~count:20
    QCheck.(quad outcome_gen small_nat (map Int64.of_int small_nat) small_nat)
    (fun (outcome, sample, cost, attempts) ->
      let path = tmpfile () in
      let e = { J.program = "p"; tool = "REFINE"; model = "reg"; sample; outcome; cost; attempts } in
      let j = J.create path in
      J.record j e;
      let j' = J.create ~resume:true path in
      let ok = J.entries j' = [ e ] && J.skipped j' = 0 in
      Sys.remove path;
      ok)

let prop_trapped_always_crash =
  QCheck.Test.make ~name:"every trap kind classifies as Crash" ~count:40
    QCheck.(pair (oneofl all_traps) bool)
    (fun (trap, truncated) ->
      F.classify (prof "golden") (res ~truncated (E.Trapped trap) "golden") = F.Crash)

let tests =
  [
    Alcotest.test_case "exec: output quota trips and truncates" `Quick test_output_quota;
    Alcotest.test_case "exec: generous output quota is transparent" `Quick test_output_quota_not_hit;
    Alcotest.test_case "classify: truncated output is Crash" `Quick test_truncated_is_crash;
    Alcotest.test_case "classify: quota traps are Crash" `Quick test_quota_traps_classify_crash;
    Alcotest.test_case "trap names are distinct" `Quick test_trap_names_distinct;
    Alcotest.test_case "mverify: accepts REFINE-instrumented MIR" `Quick test_verifier_accepts_instrumented;
    Alcotest.test_case "mverify: rejects clique clobber" `Quick test_verifier_rejects_clique_clobber;
    Alcotest.test_case "mverify: rejects frame-size change" `Quick test_verifier_rejects_frame_change;
    Alcotest.test_case "tool: break_mir chaos quarantines" `Quick test_chaos_break_mir_quarantines;
    Alcotest.test_case "tool: flaky golden run quarantines" `Quick test_chaos_flaky_golden_quarantines;
    Alcotest.test_case "tool: clean prepare passes hardening" `Quick test_prepare_clean_under_verifier;
    Alcotest.test_case "tool: derived output quota" `Quick test_derived_output_quota;
    Alcotest.test_case "campaign: quarantined cell runs no samples" `Quick test_run_cell_quarantined;
    Alcotest.test_case "campaign: empty fault population quarantines" `Quick
      test_empty_population_quarantined;
    Alcotest.test_case "campaign: journal quarantine short-circuits resume" `Quick test_journal_quarantine_resume;
    Alcotest.test_case "campaign: journal skips undecodable lines" `Quick test_journal_skips_bad_lines;
    Alcotest.test_case "campaign: CSV roundtrips quarantine column" `Quick test_csv_roundtrip_quarantine;
    Alcotest.test_case "report: quarantined cells excluded and flagged" `Quick test_reports_exclude_quarantined;
    Alcotest.test_case "campaign: quotas transparent on healthy cell" `Quick test_quota_campaign_completes;
    Alcotest.test_case "supervisor: Non_retryable burns one attempt" `Quick test_non_retryable_single_attempt;
    Alcotest.test_case "supervisor: retryable failures still retry" `Quick test_retryable_still_retries;
    qcheck prop_instrumented_always_valid;
    qcheck prop_journal_roundtrip;
    qcheck prop_trapped_always_crash;
  ]
