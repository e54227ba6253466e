(* Tests for the extension features: opcode corruption (paper §4.5 future
   work) and the multi-bit fault model. *)

module T = Refine_core.Tool
module F = Refine_core.Fault
module Corrupt = Refine_core.Corrupt
module E = Refine_campaign.Experiment
module I = Refine_ir.Ir
module M = Refine_mir.Minstr
module R = Refine_mir.Reg
module P = Refine_support.Prng

(* ---- opcode corruption: the Opcode model on PINFI's binary ---- *)

let test_opcode_alternatives_valid () =
  let add = M.Mbin (I.Add, R.gpr 1, R.gpr 2, M.Imm 3L) in
  let alts = Corrupt.alternatives add in
  Alcotest.(check bool) "several alternatives" true (List.length alts >= 5);
  Alcotest.(check bool) "original excluded" true (not (List.mem add alts));
  (* alternatives keep the operand shape: same outputs *)
  List.iter
    (fun a -> Alcotest.(check bool) "same outputs" true (M.outputs a = M.outputs add))
    alts;
  (* a mov has no same-shape alternative: not a target *)
  let is_target i = Corrupt.alternatives i <> [] in
  Alcotest.(check bool) "mov not a target" false (is_target (M.Mmov (R.gpr 1, M.Imm 0L)));
  Alcotest.(check bool) "load <-> lea" true (is_target (M.Mload (R.gpr 1, R.gpr 2, 8)))

let opcode_src =
  {|
int main() {
  int i; int s = 0;
  for (i = 0; i < 50; i = i + 1) { s = s + i * 3; }
  print_int(s);
  return 0;
}
|}

let prepare_image src =
  let m = Refine_minic.Frontend.compile src in
  Refine_passes.Pipeline.optimize Refine_passes.Pipeline.O2 m;
  Refine_passes.Pipeline.compile m

let test_opcode_profile_transparent () =
  let p = (T.prepare ~model:F.Opcode T.Pinfi opcode_src).T.profile in
  Alcotest.(check string) "golden output" "3675\n" p.F.golden_output;
  Alcotest.(check bool) "targets exist" true (Int64.compare p.F.dyn_count 0L > 0)

let test_opcode_injection () =
  let cell = T.prepare ~model:F.Opcode T.Pinfi opcode_src in
  let non_benign = ref 0 in
  let fired = ref 0 in
  for seed = 1 to 30 do
    let e = T.run_injection ~model:F.Opcode cell (P.create seed) in
    if e.F.fault <> None then incr fired;
    if e.F.outcome <> F.Benign then incr non_benign
  done;
  Alcotest.(check bool) "most corruptions fire" true (!fired >= 28);
  (* replacing an opcode in a 50-iteration loop is almost never harmless *)
  Alcotest.(check bool) "opcode corruption usually visible" true (!non_benign > 20)

let test_opcode_image_not_shared () =
  (* corruption must not leak into the shared image, nor into the next run
     on the domain's engine: a fresh prepare profiles on that engine *)
  let cell = T.prepare ~model:F.Opcode T.Pinfi opcode_src in
  let p = cell.T.profile in
  ignore (T.run_injection ~model:F.Opcode cell (P.create 1));
  let eng = Refine_machine.Exec.create cell.T.image in
  let r = Refine_machine.Exec.run eng in
  Alcotest.(check string) "image intact after corruption run" p.F.golden_output
    r.Refine_machine.Exec.output;
  T.reset_artifact_caches ();
  Alcotest.(check bool) "next run on the domain's engine is clean" true
    ((T.prepare ~model:F.Opcode T.Pinfi opcode_src).T.profile = p)

(* EP's opcode cell, 200 samples each on a split of one generator seeded
   7: an engine change must not move these counts.  (`refinec fi EP
   --fi-tool pinfi --fault-model opcode --samples 200 --seed 7` draws from
   the cell's derived seed instead, and reads 10/186/4.) *)
let test_opcode_ep_pinned () =
  let cell = T.prepare ~model:F.Opcode T.Pinfi (Refine_bench_progs.Registry.find "EP").source in
  Alcotest.(check int64) "corruptible dynamic instructions" 69_698L cell.T.profile.F.dyn_count;
  let rng = P.create 7 in
  let counts = Array.make 3 0 in
  for _ = 1 to 200 do
    let k =
      match (T.run_injection ~model:F.Opcode cell (P.split rng)).F.outcome with
      | F.Crash -> 0
      | F.Soc -> 1
      | F.Benign | F.Tool_error -> 2
    in
    counts.(k) <- counts.(k) + 1
  done;
  Alcotest.(check (array int)) "crash / SOC / benign" [| 13; 175; 12 |] counts

let selection_src =
  {|
int fib(int n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
int main() {
  int i; int s = 0;
  for (i = 0; i < 10; i = i + 1) { s = s + i * 3; }
  print_int(s + fib(12));
  return 0;
}
|}

(* -fi-funcs and -fi-instrs restrict the opcode population as they
   restrict any PINFI cell's, through the campaign path the CLI takes *)
let test_opcode_selection () =
  let dyn sel =
    let c =
      E.run_cell ~sel ~model:F.Opcode ~samples:2 ~seed:1 T.Pinfi ~program:"fib"
        ~source:selection_src ()
    in
    Alcotest.(check int) "every sample ran" 2 (E.total c.E.counts);
    c.E.profile.F.dyn_count
  in
  let all = dyn T.Selection.default in
  Alcotest.(check int64) "the cell profiled the opcode population"
    (T.prepare ~model:F.Opcode T.Pinfi selection_src).T.profile.F.dyn_count all;
  let main_only = dyn { T.Selection.default with T.Selection.funcs = [ "main" ] } in
  let arith = dyn { T.Selection.default with T.Selection.instrs = T.Selection.Arith } in
  if not (Int64.compare 0L main_only < 0 && Int64.compare main_only all < 0) then
    Alcotest.failf "excluding fib: %Ld targets, not fewer than %Ld" main_only all;
  if not (Int64.compare arith all < 0) then
    Alcotest.failf "arithm only: %Ld targets, not fewer than %Ld" arith all

(* the opcode population is its own prepared cell; every other model
   shares one, and neither cell runs the other's faults *)
let test_opcode_guards () =
  let rejects what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s was not rejected" what
  in
  List.iter
    (fun kind ->
      match T.prepare ~model:F.Opcode kind opcode_src with
      | exception Invalid_argument reason ->
        Alcotest.(check bool) (T.kind_name kind ^ " names operand sites") true
          (Option.get (T.model_unsupported kind F.Opcode) = reason)
      | _ -> Alcotest.failf "%s prepared an opcode cell" (T.kind_name kind))
    [ T.Refine; T.Llfi ];
  Alcotest.(check bool) "PINFI runs it" true (T.model_unsupported T.Pinfi F.Opcode = None);
  let reg = T.prepare T.Pinfi opcode_src and opcode = T.prepare ~model:F.Opcode T.Pinfi opcode_src in
  Alcotest.(check bool) "reg and mem share one cell" true
    (T.prepare ~model:F.Mem_cell T.Pinfi opcode_src == reg);
  Alcotest.(check bool) "the opcode cell is its own" true (opcode != reg && opcode.T.opcode);
  rejects "an opcode fault on a reg cell" (fun () ->
      T.run_injection ~model:F.Opcode reg (P.create 1));
  rejects "a reg fault on an opcode cell" (fun () -> T.run_injection opcode (P.create 1))

(* a selection that leaves no target quarantines the cell at prepare
   time, and the detail names the population each cell draws from *)
let test_opcode_empty_population () =
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  let sel = { T.Selection.default with T.Selection.funcs = [ "nosuch" ] } in
  let detail model =
    match T.prepare ~sel ~model T.Pinfi selection_src with
    | exception T.Quarantine ("empty-population", d) -> d
    | exception T.Quarantine (c, d) -> Alcotest.failf "quarantined as %s: %s" c d
    | _ -> Alcotest.failf "a %s cell was prepared" (F.string_of_model model)
  in
  let opcode = detail F.Opcode and reg = detail F.Reg_bit in
  List.iter
    (fun (what, d, needle, expected) ->
      Alcotest.(check bool) (what ^ ": " ^ d) expected (contains d needle))
    [
      ("opcode names its population", opcode, "valid alternative opcode", true);
      ("opcode names the selection", opcode, "funcs=nosuch", true);
      ("reg names operand sites", reg, "operand site", true);
      ("reg is not the opcode population", reg, "opcode", false);
      ("reg names the selection", reg, "funcs=nosuch", true);
    ]

(* ---- multi-bit faults ---- *)

let test_multibit_flips () =
  (* the cited double-bit variant is the Multi_bit model of PINFI's one
     hook: the same trigger and register draw as the single-bit model,
     two distinct bits per fault *)
  let p = T.prepare T.Pinfi opcode_src in
  let double = F.Multi_bit { bits = 2; burst = false } in
  Alcotest.(check bool) "bit count validated" true
    (try ignore (F.model_of_string "multi:0"); false with Invalid_argument _ -> true);
  let sample model seed = T.run_injection ~model p (P.create seed) in
  Alcotest.(check bool) "deterministic per config" true
    (sample F.Reg_bit 5 = sample F.Reg_bit 5 && sample double 5 = sample double 5);
  match ((sample F.Reg_bit 5).F.fault, (sample double 5).F.fault) with
  | Some one, Some two ->
    Alcotest.(check int64) "same dynamic trigger" one.F.dyn_index two.F.dyn_index;
    Alcotest.(check string) "same register" one.F.reg_name two.F.reg_name
  | _ -> Alcotest.fail "both models must fire"

(* ---- trace ---- *)

let test_trace_ring () =
  let image = prepare_image opcode_src in
  let eng = Refine_machine.Exec.create image in
  let t = Refine_machine.Trace.create ~capacity:8 () in
  Refine_machine.Trace.attach t eng;
  let r = Refine_machine.Exec.run eng in
  Alcotest.(check bool) "ran" true (r.Refine_machine.Exec.status = Refine_machine.Exec.Exited 0);
  let es = Refine_machine.Trace.entries t in
  Alcotest.(check int) "ring holds capacity" 8 (List.length es);
  Alcotest.(check int64) "total counted" r.Refine_machine.Exec.steps t.Refine_machine.Trace.total;
  (* the last executed instruction of a clean run is the final ret *)
  let last = List.nth es 7 in
  Alcotest.(check bool) "ends with ret" true
    (last.Refine_machine.Trace.instr = Refine_mir.Minstr.Mret);
  Alcotest.(check string) "owner" "main" last.Refine_machine.Trace.func

let test_trace_composes_with_hook () =
  let image = prepare_image opcode_src in
  let eng = Refine_machine.Exec.create image in
  let count = ref 0 in
  eng.Refine_machine.Exec.post_hook <-
    Some
      {
        Refine_machine.Exec.on_instr = (fun _ _ _ -> incr count);
        hook_cost = 0;
        hook_pcs = Array.make (Array.length image.Refine_backend.Layout.code) true;
      };
  let t = Refine_machine.Trace.create () in
  Refine_machine.Trace.attach t eng;
  let r = Refine_machine.Exec.run eng in
  Alcotest.(check bool) "previous hook still called" true
    (Int64.of_int !count = r.Refine_machine.Exec.steps)

(* ---- CSV ---- *)

let test_csv_roundtrip () =
  let cells =
    Refine_campaign.Experiment.run_matrix ~samples:10 ~seed:2
      [ ("tiny", "int main() { print_int(7); return 0; }") ]
      Refine_campaign.Report.tools
  in
  let s = Refine_campaign.Csv.to_string cells in
  let back = Refine_campaign.Csv.of_string s in
  Alcotest.(check int) "3 rows" 3 (List.length back);
  List.iter2
    (fun (a : Refine_campaign.Experiment.cell) (b : Refine_campaign.Experiment.cell) ->
      Alcotest.(check bool) "counts preserved" true (a.counts = b.counts);
      Alcotest.(check bool) "tool preserved" true (a.tool = b.tool);
      Alcotest.(check int64) "cost preserved" a.injection_cost b.injection_cost)
    cells back;
  Alcotest.(check bool) "bad header rejected" true
    (try ignore (Refine_campaign.Csv.of_string "nope\n1,2"); false
     with Refine_campaign.Csv.Parse_error _ -> true)

let tests =
  [
    Alcotest.test_case "opcode alternatives" `Quick test_opcode_alternatives_valid;
    Alcotest.test_case "opcode profiling transparent" `Quick test_opcode_profile_transparent;
    Alcotest.test_case "opcode injection" `Quick test_opcode_injection;
    Alcotest.test_case "opcode image isolation" `Quick test_opcode_image_not_shared;
    Alcotest.test_case "multi-bit model" `Quick test_multibit_flips;
    Alcotest.test_case "trace ring buffer" `Quick test_trace_ring;
    Alcotest.test_case "trace composes with hooks" `Quick test_trace_composes_with_hook;
    Alcotest.test_case "csv roundtrip" `Quick test_csv_roundtrip;
    Alcotest.test_case "opcode population follows -fi-funcs and -fi-instrs" `Quick
      test_opcode_selection;
    Alcotest.test_case "opcode cells: own cache entry, REFINE/LLFI and mixed models rejected"
      `Quick test_opcode_guards;
    Alcotest.test_case "empty opcode and operand populations quarantine at prepare" `Quick
      test_opcode_empty_population;
    Alcotest.test_case "opcode on EP: 69698 targets, 13/175/12 at seed 7" `Quick
      test_opcode_ep_pinned;
  ]
