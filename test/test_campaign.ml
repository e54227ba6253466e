(* Campaign-level tests: determinism, aggregation invariants and report
   rendering. *)

module E = Refine_campaign.Experiment
module Rep = Refine_campaign.Report
module T = Refine_core.Tool

let src =
  {|
int main() {
  int i; float s = 0.0;
  for (i = 0; i < 40; i = i + 1) { s = s + tofloat(i * i) * 0.125; }
  print_float(s);
  return 0;
}
|}

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let run_cell tool = E.run_cell ~samples:40 ~seed:5 tool ~program:"tiny" ~source:src ()

let test_counts_sum () =
  let c = run_cell T.Refine in
  Alcotest.(check int) "outcomes sum to samples" c.E.samples (E.total c.E.counts)

let test_determinism () =
  let a = run_cell T.Pinfi and b = run_cell T.Pinfi in
  Alcotest.(check bool) "same seed same counts" true (a.E.counts = b.E.counts);
  Alcotest.(check int64) "same cost" a.E.injection_cost b.E.injection_cost

let test_seed_changes_results () =
  let a = E.run_cell ~samples:60 ~seed:1 T.Pinfi ~program:"tiny" ~source:src () in
  let b = E.run_cell ~samples:60 ~seed:2 T.Pinfi ~program:"tiny" ~source:src () in
  (* not a hard guarantee, but with 60 samples identical tallies for
     different seeds would be suspicious across all three categories AND
     identical total cost *)
  Alcotest.(check bool) "different seeds differ somewhere" true
    (a.E.counts <> b.E.counts || a.E.injection_cost <> b.E.injection_cost)

let test_matrix_and_reports () =
  let cells = E.run_matrix ~samples:25 ~seed:9 [ ("tiny", src) ] Rep.tools in
  Alcotest.(check int) "3 cells" 3 (List.length cells);
  let fig4 = Rep.figure4_program cells "tiny" in
  Alcotest.(check bool) "figure4 mentions tools" true
    (contains fig4 "LLFI" && contains fig4 "REFINE" && contains fig4 "PINFI");
  let rows = Rep.chi2_rows cells [ "tiny" ] in
  Alcotest.(check int) "one chi2 row" 1 (List.length rows);
  let t5 = Rep.table5 rows in
  Alcotest.(check bool) "table5 rendered" true (contains t5 "tiny");
  let a = E.find_cell cells ~program:"tiny" ~tool:T.Llfi in
  let b = E.find_cell cells ~program:"tiny" ~tool:T.Pinfi in
  let t4 = Rep.contingency_table a b in
  Alcotest.(check bool) "table4 has totals" true (contains t4 "Total")

let test_paper_data_complete () =
  let module PD = Refine_campaign.Paper_data in
  Alcotest.(check int) "table6 has 14 programs" 14 (List.length PD.table6);
  Alcotest.(check int) "figure5 has 14 programs" 14 (List.length PD.figure5);
  (* paper rows each sum to 1068 experiments *)
  List.iter
    (fun (name, (l, r, p)) ->
      List.iter
        (fun (row : PD.row) ->
          Alcotest.(check int)
            (name ^ " row sums to 1068")
            1068
            (row.PD.crash + row.PD.soc + row.PD.benign))
        [ l; r; p ])
    PD.table6

let test_pmf_bars () =
  let cells = E.run_matrix ~samples:20 ~seed:4 [ ("tiny", src) ] Rep.tools in
  let pmf = Rep.figure4_pmf cells "tiny" in
  let lines = String.split_on_char '\n' pmf |> List.filter (fun l -> l <> "") in
  Alcotest.(check int) "header + three bars" 4 (List.length lines);
  (* each bar is exactly 50 cells wide between the brackets *)
  List.iteri
    (fun i l ->
      if i > 0 then begin
        let open_b = String.index l '[' in
        let close_b = String.index l ']' in
        Alcotest.(check int) "bar width" 50 (close_b - open_b - 1)
      end)
    lines

(* a kill mid-append leaves at most one torn final line: the loader must
   drop it (never parse it), count it, and resume from the previous record *)
let test_torn_final_line () =
  let module J = Refine_campaign.Journal in
  let path = Filename.temp_file "refine_torn" ".journal" in
  let j = J.create path in
  let entry i =
    {
      J.program = "tiny";
      tool = "REFINE";
      model = "reg";
      sample = i;
      outcome = Refine_core.Fault.Benign;
      cost = Int64.of_int (100 + i);
      attempts = 1;
    }
  in
  List.iter (fun i -> J.record j (entry i)) [ 0; 1; 2 ];
  J.close j;
  (* simulate the torn write: a valid-looking record cut mid-line, no
     trailing newline *)
  let oc = open_out_gen [ Open_wronly; Open_append ] 0o644 path in
  output_string oc "tiny\tREFINE\t3\tben";
  close_out oc;
  let j2 = J.create ~resume:true path in
  Alcotest.(check int) "torn line counted" 1 (J.skipped j2);
  Alcotest.(check int) "prior records intact" 3 (J.length j2);
  let resolved = J.completed j2 ~program:"tiny" ~tool:"REFINE" in
  Alcotest.(check bool) "torn sample not resolved" false (Hashtbl.mem resolved 3);
  List.iter
    (fun i -> Alcotest.(check bool) (Printf.sprintf "sample %d resolved" i) true (Hashtbl.mem resolved i))
    [ 0; 1; 2 ];
  Sys.remove path

let test_parallel_matches_sequential () =
  let a = E.run_cell ~domains:1 ~samples:30 ~seed:3 T.Refine ~program:"tiny" ~source:src () in
  let b = E.run_cell ~domains:4 ~samples:30 ~seed:3 T.Refine ~program:"tiny" ~source:src () in
  Alcotest.(check bool) "domain count does not change results" true (a.E.counts = b.E.counts)

(* A shard worker's chunk: [~todo] runs exactly those samples, each equal
   to the same index of a full run (every index keeps its PRNG split),
   records each through the callback, and loads nothing as resumed. *)
let test_todo_runs_exactly_its_samples () =
  let module J = Refine_campaign.Journal in
  let module M = Refine_obs.Metrics in
  let resumed () =
    List.fold_left
      (fun acc (n, _, v) ->
        match v with
        | M.Counter c when n = "refine_campaign_resumed_samples_total" -> Int64.add acc c
        | _ -> acc)
      0L (M.snapshot ())
  in
  let cell ?todo record =
    E.run_cell ~domains:1 ?todo ~record ~samples:8 ~seed:5 T.Llfi ~program:"tiny" ~source:src ()
  in
  let full = Hashtbl.create 8 in
  ignore (cell (fun (e : J.entry) -> Hashtbl.replace full e.J.sample e));
  Alcotest.(check int) "a full run records every sample" 8 (Hashtbl.length full);
  Refine_obs.Control.enable ();
  Fun.protect ~finally:Refine_obs.Control.disable (fun () ->
      let before = resumed () in
      let seen = ref [] in
      let c = cell ~todo:[ 2; 5 ] (fun e -> seen := e :: !seen) in
      Alcotest.(check (list int)) "the callback sees exactly the todo" [ 2; 5 ]
        (List.rev_map (fun (e : J.entry) -> e.J.sample) !seen);
      Alcotest.(check int) "the counts total the todo" 2 (E.attempted c.E.counts);
      Alcotest.(check int64) "nothing counted as resumed" before (resumed ());
      List.iter
        (fun (e : J.entry) ->
          let f = Hashtbl.find full e.J.sample in
          Alcotest.(check bool)
            (Printf.sprintf "sample %d equals the full run's (outcome and cost)" e.J.sample)
            true
            (e.J.outcome = f.J.outcome && e.J.cost = f.J.cost))
        !seen);
  Alcotest.check_raises "an index outside [0, samples)"
    (Invalid_argument "Experiment.run_cell: sample 8 is outside [0, 8)") (fun () ->
      ignore (cell ~todo:[ 8 ] ignore))

let tests =
  [
    Alcotest.test_case "counts sum" `Quick test_counts_sum;
    Alcotest.test_case "deterministic" `Quick test_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_changes_results;
    Alcotest.test_case "matrix + reports" `Quick test_matrix_and_reports;
    Alcotest.test_case "paper data complete" `Quick test_paper_data_complete;
    Alcotest.test_case "PMF stacked bars" `Quick test_pmf_bars;
    Alcotest.test_case "torn final journal line" `Quick test_torn_final_line;
    Alcotest.test_case "parallel = sequential" `Quick test_parallel_matches_sequential;
    Alcotest.test_case "run_cell ~todo runs exactly its samples" `Quick
      test_todo_runs_exactly_its_samples;
  ]
