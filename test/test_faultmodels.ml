(* Tests for the cross-layer fault models (DESIGN.md §18): model string
   forms, multi-bit position draws, snapshot-safe mutation + reset
   restoration, Instr_image decode traps classifying as Crash, per-model
   campaign determinism across domain counts, the rejection of pre-model
   CSV and journal shapes and the per-model injection metric. *)

module F = Refine_core.Fault
module T = Refine_core.Tool
module E = Refine_campaign.Experiment
module J = Refine_campaign.Journal
module Csv = Refine_campaign.Csv
module Rep = Refine_campaign.Report
module X = Refine_machine.Exec
module B = Refine_support.Bitops
module P = Refine_support.Prng
module Obs = Refine_obs
module Mx = Obs.Metrics

let src =
  {|
int main() {
  int i; float s = 0.0;
  for (i = 0; i < 40; i = i + 1) { s = s + tofloat(i * i) * 0.125; }
  print_float(s);
  return 0;
}
|}

let all_models =
  [
    F.Reg_bit;
    F.Mem_cell;
    F.Instr_image;
    F.Multi_bit { bits = 3; burst = false };
    F.Multi_bit { bits = 4; burst = true };
    F.Opcode;
  ]

(* the tool a model's cell runs on: opcode corruption is PINFI's *)
let tool_for model = if model = F.Opcode then T.Pinfi else T.Refine

(* ---- model string forms ---- *)

let test_model_strings () =
  List.iter
    (fun m ->
      let s = F.string_of_model m in
      Alcotest.(check bool) (s ^ " round-trips") true (F.model_of_string s = m))
    all_models;
  Alcotest.(check string) "reg form" "reg" (F.string_of_model F.Reg_bit);
  Alcotest.(check string) "burst form" "burst:4"
    (F.string_of_model (F.Multi_bit { bits = 4; burst = true }));
  Alcotest.(check int) "multi bits" 3 (F.model_bits (F.Multi_bit { bits = 3; burst = false }));
  Alcotest.(check int) "instr bits" 1 (F.model_bits F.Instr_image);
  Alcotest.(check string) "opcode form" "opcode" (F.string_of_model F.Opcode);
  List.iter
    (fun s ->
      match F.model_of_string s with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "accepted invalid model %S" s)
    [ "bogus"; "multi:0"; "multi:65"; "burst:"; "multi:3:4"; "" ]

(* ---- multi-bit position draws ---- *)

let gen_draw = QCheck.(triple (int_range 1 64) (int_range 1 64) bool)

let prop_draw_bits_shape =
  QCheck.Test.make ~name:"draw_bits: k distinct sorted positions below width" ~count:300 gen_draw
    (fun (width, bits, burst) ->
      let rng = P.create ((width * 67) + (bits * 5) + Bool.to_int burst) in
      let l = B.draw_bits (P.int rng) ~width ~bits ~burst in
      List.length l = min bits width
      && List.for_all (fun b -> b >= 0 && b < width) l
      && List.sort_uniq compare l = l)

let prop_draw_bits_deterministic =
  QCheck.Test.make ~name:"draw_bits: pure function of the PRNG state" ~count:300 gen_draw
    (fun (width, bits, burst) ->
      let seed = (width * 131) + bits in
      let a = B.draw_bits (P.int (P.create seed)) ~width ~bits ~burst in
      let b = B.draw_bits (P.int (P.create seed)) ~width ~bits ~burst in
      a = b)

let prop_draw_bits_burst_contiguous =
  QCheck.Test.make ~name:"draw_bits: burst positions are contiguous" ~count:300 gen_draw
    (fun (width, bits, _) ->
      let rng = P.create ((width * 257) + bits) in
      let l = B.draw_bits (P.int rng) ~width ~bits ~burst:true in
      match l with
      | [] -> false
      | first :: rest ->
        fst (List.fold_left (fun (ok, prev) b -> (ok && b = prev + 1, b)) (true, first) rest))

(* ---- snapshot-safe mutation + reset restoration ---- *)

let prepared_tiny = lazy (T.prepare T.Pinfi src)

let prop_mutate_then_reset_pristine =
  QCheck.Test.make ~name:"model mutations never outlive reset or touch the snapshot" ~count:30
    QCheck.(triple (int_range 0 100_000) (int_range 0 7) bool)
    (fun (off, bit, legal) ->
      let p = Lazy.force prepared_tiny in
      let module L = Refine_backend.Layout in
      let code_before = Array.copy p.T.image.L.code in
      let fresh = X.create_from_snapshot p.T.snap in
      let eng = X.create_from_snapshot p.T.snap in
      let addr = Refine_ir.Memlayout.null_guard + (off mod 4096) in
      X.flip_mem_bit eng ~addr ~bit;
      let pc = p.T.image.L.entry + (off mod 8) in
      X.set_overlay eng ~pc (if legal then Some p.T.image.L.code.(p.T.image.L.entry) else None);
      eng.X.fi_mask <- 0xF0L;
      (* the mutation is engine-local: the shared code image is untouched
         and the sibling engine's memory is unaffected *)
      Array.iteri (fun i instr -> assert (p.T.image.L.code.(i) == instr)) code_before;
      assert (eng.X.mem <> fresh.X.mem);
      assert (fresh.X.mem = (X.create_from_snapshot p.T.snap).X.mem);
      X.reset eng;
      eng.X.mem = fresh.X.mem
      && eng.X.regs = fresh.X.regs
      && eng.X.pc = fresh.X.pc
      && eng.X.fi_mask = 0L
      && eng.X.overlay_pc = -1
      && eng.X.overlay_instr = None)

(* ---- Instr_image decode trap = Crash, never a harness error ---- *)

let test_illegal_instr_classifies_crash () =
  let p = Lazy.force prepared_tiny in
  let eng = X.create_from_snapshot p.T.snap in
  X.set_overlay eng ~pc:eng.X.pc None;
  let r = X.run eng in
  (match r.X.status with
  | X.Trapped (X.Illegal_instr _) -> ()
  | s -> Alcotest.failf "expected Illegal_instr trap, got %s" (match s with
      | X.Trapped t -> X.string_of_trap t
      | X.Exited n -> Printf.sprintf "exit %d" n
      | X.Running -> "running"
      | X.Timed_out -> "timeout"));
  Alcotest.(check bool) "decode trap classifies as Crash" true
    (F.classify p.T.profile r = F.Crash)

let test_instr_image_no_harness_errors () =
  let cells = E.run_matrix ~model:F.Instr_image ~samples:15 ~seed:7 [ ("tiny", src) ] Rep.tools in
  Alcotest.(check int) "3 cells" 3 (List.length cells);
  List.iter
    (fun (c : E.cell) ->
      Alcotest.(check bool) "model stamped on cell" true (c.E.model = F.Instr_image);
      if c.E.quarantined = None then
        Alcotest.(check int)
          ("no tool_error under " ^ T.kind_name c.E.tool)
          0 c.E.counts.E.tool_error)
    cells

(* ---- per-model determinism across domain counts ---- *)

let test_model_domains_deterministic () =
  List.iter
    (fun model ->
      let run domains =
        E.run_cell ~domains ~model ~samples:16 ~seed:11 T.Refine ~program:"tiny" ~source:src ()
      in
      let a = run 1 and b = run 4 in
      Alcotest.(check bool)
        (F.string_of_model model ^ ": domains 1 = domains 4")
        true
        (a.E.counts = b.E.counts && a.E.injection_cost = b.E.injection_cost))
    [ F.Mem_cell; F.Instr_image; F.Multi_bit { bits = 3; burst = false } ]

let test_cell_seed_model_separation () =
  let base = E.cell_seed ~seed:42 ~program:"EP" T.Refine in
  Alcotest.(check int) "explicit reg = default" base
    (E.cell_seed ~model:F.Reg_bit ~seed:42 ~program:"EP" T.Refine);
  let seeds =
    List.map (fun m -> E.cell_seed ~model:m ~seed:42 ~program:"EP" T.Refine) all_models
  in
  Alcotest.(check int) "models draw from distinct streams" (List.length all_models)
    (List.length (List.sort_uniq compare seeds))

(* ---- CSV: the pre-model header + per-model round-trip ---- *)

(* No writer has produced the 17-column pre-model header since the model
   columns were added (DESIGN.md §18): such a file raises like any other
   unknown header, so no row loads under a model it never named *)
let test_csv_pre_model_rejected () =
  let pre_model =
    "program,tool,samples,crash,soc,benign,tool_error,dyn_count,profile_cost,injection_cost,\
     static_sites,instrument_s,compile_s,execute_s,harness_s,quarantined,quarantine_reason\n\
     EP,REFINE,100,30,20,50,0,12345,67890,1000000,42,0.010000,0.020000,0.500000,0.100000,0,\n"
  in
  match Csv.of_string pre_model with
  | cells -> Alcotest.failf "a 17-column CSV loaded %d cells" (List.length cells)
  | exception Csv.Parse_error _ -> ()

let test_csv_model_round_trip () =
  let cells =
    List.map
      (fun model ->
        E.run_cell ~model ~samples:6 ~seed:3 (tool_for model) ~program:"tiny" ~source:src ())
      all_models
  in
  let back = Csv.of_string (Csv.to_string cells) in
  Alcotest.(check int) "same cell count" (List.length cells) (List.length back);
  List.iter2
    (fun (a : E.cell) (b : E.cell) ->
      Alcotest.(check bool)
        (F.string_of_model a.E.model ^ " round-trips")
        true
        (a.E.model = b.E.model && a.E.tool = b.E.tool && a.E.counts = b.E.counts
       && a.E.samples = b.E.samples && a.E.injection_cost = b.E.injection_cost))
    cells back

(* ---- journal: the pre-model shape + v2 round-trip ---- *)

let with_tmp f =
  let tmp = Filename.temp_file "refine_fm" ".journal" in
  Fun.protect ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ()) (fun () -> f tmp)

(* A pre-model journal (no version tag, 6-field records) loads no record:
   every record line, the quarantine included, counts as skipped *)
let test_journal_pre_model_rejected () =
  with_tmp (fun tmp ->
      Out_channel.with_open_bin tmp (fun oc ->
          output_string oc
            "EP\tREFINE\t0\tcrash\t1200\t1\nEP\tREFINE\t1\tbenign\t3400\t1\n\
             Q\tDC\tLLFI\tverify: golden nondeterminism\nEP\tPINFI\t0\ttool-error\t50\t3\n");
      let j = J.create ~resume:true tmp in
      Alcotest.(check (list int)) "entries, quarantines, skipped" [ 0; 0; 4 ]
        [ J.length j; List.length (J.quarantines j); J.skipped j ];
      J.close j)

let test_journal_model_round_trip () =
  with_tmp (fun tmp ->
      let j = J.create tmp in
      J.record j
        {
          J.program = "EP";
          tool = "REFINE";
          model = "multi:3";
          sample = 0;
          outcome = F.Soc;
          cost = 99L;
          attempts = 1;
        };
      J.close j;
      let j2 = J.create ~resume:true tmp in
      Alcotest.(check int) "entry survives" 1 (J.length j2);
      let e = List.hd (J.entries j2) in
      Alcotest.(check string) "model survives" "multi:3" e.J.model;
      Alcotest.(check int) "same-model lookup finds it" 1
        (Hashtbl.length (J.completed ~model:"multi:3" j2 ~program:"EP" ~tool:"REFINE"));
      Alcotest.(check int) "default lookup skips it" 0
        (Hashtbl.length (J.completed j2 ~program:"EP" ~tool:"REFINE"));
      J.close j2)

(* ---- per-model injection metric + lint ---- *)

let test_injection_metric () =
  Obs.Control.enable ();
  Mx.reset ();
  Fun.protect
    ~finally:(fun () ->
      Mx.reset ();
      Obs.Control.disable ())
    (fun () ->
      let _ = E.run_cell ~model:F.Mem_cell ~samples:5 ~seed:2 T.Refine ~program:"tiny" ~source:src () in
      (match Mx.find "refine_injections_total" [ ("tool", "REFINE"); ("model", "mem") ] with
      | Some (Mx.Counter n) ->
        Alcotest.(check bool) "every sample counted" true (Int64.to_int n >= 5)
      | _ -> Alcotest.fail "refine_injections_total{tool,model} not registered");
      Alcotest.(check (list string)) "promlint clean" [] (Promlint.lint (Mx.dump ())))

let qcheck = QCheck_alcotest.to_alcotest

let tests =
  [
    Alcotest.test_case "model strings round-trip, invalid forms rejected" `Quick
      test_model_strings;
    qcheck prop_draw_bits_shape;
    qcheck prop_draw_bits_deterministic;
    qcheck prop_draw_bits_burst_contiguous;
    qcheck prop_mutate_then_reset_pristine;
    Alcotest.test_case "Illegal_instr trap classifies as Crash" `Quick
      test_illegal_instr_classifies_crash;
    Alcotest.test_case "Instr_image campaign: decode traps never harness errors" `Slow
      test_instr_image_no_harness_errors;
    Alcotest.test_case "per-model domains 1 = domains 4" `Slow test_model_domains_deterministic;
    Alcotest.test_case "cell_seed separates models, keeps reg default" `Quick
      test_cell_seed_model_separation;
    Alcotest.test_case "a 17-column CSV raises Parse_error" `Quick test_csv_pre_model_rejected;
    Alcotest.test_case "CSV round-trips every model" `Slow test_csv_model_round_trip;
    Alcotest.test_case "a pre-model journal loads no record" `Quick
      test_journal_pre_model_rejected;
    Alcotest.test_case "journal v2 round-trips the model column" `Quick
      test_journal_model_round_trip;
    Alcotest.test_case "refine_injections_total carries the model label" `Slow
      test_injection_metric;
  ]
