(* Campaign demo: a reduced version of the paper's evaluation on two of
   the 14 benchmark programs — outcome distributions per tool (Figure 4),
   the contingency table (Table 4) and the chi-squared verdicts (Table 5).

   The full evaluation over all programs is
   refinec campaign --programs all --samples 1068 --seed 20170712 --retries 1.

     dune exec examples/campaign_demo.exe *)

module E = Refine_campaign.Experiment
module Rep = Refine_campaign.Report
module Reg = Refine_bench_progs.Registry
module T = Refine_core.Tool

let programs = [ "HPCCG-1.0"; "XSBench" ]
let samples = 150

let () =
  Printf.printf "== campaign demo: %s, %d samples per (program, tool) ==\n\n"
    (String.concat " + " programs) samples;
  let srcs = List.map (fun n -> (n, (Reg.find n).Reg.source)) programs in
  let cells = E.run_matrix ~samples ~seed:42 srcs Rep.tools in
  (* Figure 4 *)
  List.iter
    (fun p ->
      print_string (Rep.figure4_program cells p);
      print_newline ())
    programs;
  (* Table 4-style contingency table *)
  print_endline "Contingency table (HPCCG-1.0, LLFI vs PINFI):";
  let a = E.find_cell cells ~program:"HPCCG-1.0" ~tool:T.Llfi in
  let b = E.find_cell cells ~program:"HPCCG-1.0" ~tool:T.Pinfi in
  print_string (Rep.contingency_table a b);
  print_newline ();
  (* Table 5 *)
  print_string (Rep.table5 (Rep.chi2_rows cells programs));
  (* Figure 5 *)
  print_newline ();
  print_string (Rep.figure5 cells programs);
  Printf.printf
    "\nAt n=%d the margin of error is ±%.1f%%; the paper's n=1068 gives ±3%%\n\
     (run `dune exec bin/refinec.exe -- campaign --programs all --samples 1068 \
     --seed 20170712 --retries 1`\n\
     for the full setting).\n"
    samples
    (100.0 *. Refine_stats.Samplesize.margin_of ~samples ~confidence:0.95 ())
