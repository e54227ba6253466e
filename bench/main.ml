(* Evaluation harness: regenerates every table and figure of the paper's
   evaluation section (S5) against this repository's implementation, plus
   the extensions (opcode corruption, double-bit faults, PreFI ablation).
   Wall-clock performance is measured separately by the committed
   benchmark (python3 bench/perf/run.py, declared in BENCHMARK.json).

   Environment knobs:
     REFINE_SAMPLES   experiments per (program, tool) cell
                      (default 1068, the paper's Leveugle sizing for 3%
                      error at 95% confidence; set e.g. 200 for a quick
                      pass — the full default run, 44,856 experiments
                      and the extensions, took 2 min 40 s on a 2-core VM)
     REFINE_SEED      master PRNG seed (default 20170712)
     REFINE_PROGRAMS  comma-separated program filter (default: all 14)
     REFINE_JOURNAL   checkpoint/resume journal path: every resolved sample
                      is recorded (atomic tmp-rename flushes) and an
                      interrupted run resumes from it bit-identically
     REFINE_RETRIES   extra attempts per failing sample before it degrades
                      to a ToolError tally entry (default 1)
     REFINE_SAMPLE_TIMEOUT
                      per-sample modeled-cost watchdog cap (default: none,
                      i.e. only the paper's 10x-profiling timeout)
     REFINE_EXTENSIONS
                      set to 0 to skip the extensions section *)

module T = Refine_core.Tool
module F = Refine_core.Fault
module E = Refine_campaign.Experiment
module Rep = Refine_campaign.Report
module Reg = Refine_bench_progs.Registry
module Tbl = Refine_support.Table
module Prng = Refine_support.Prng

let getenv_default name default =
  match Sys.getenv_opt name with Some v when v <> "" -> v | _ -> default

let samples = int_of_string (getenv_default "REFINE_SAMPLES" "1068")
let seed = int_of_string (getenv_default "REFINE_SEED" "20170712")

let programs =
  match Sys.getenv_opt "REFINE_PROGRAMS" with
  | Some s when s <> "" -> String.split_on_char ',' s |> List.map String.trim
  | _ -> Reg.names

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* ---- Table 3: benchmark programs and their input ----------------------- *)

let print_table3 () =
  section "Table 3 - benchmark programs and their input";
  Tbl.print
    ~header:[ "Program"; "Input (this repro | paper)" ]
    (List.map (fun n -> let b = Reg.find n in [ b.Reg.name; b.Reg.input ]) programs)

(* ---- statistical setting (paper S5.3) ---------------------------------- *)

let print_setting () =
  section "Statistical setting (Leveugle et al. sample sizing)";
  let paper_n = Refine_stats.Samplesize.paper_sample_count in
  Printf.printf "paper sample count (e<=3%%, 95%%): n = %d (paper: 1,068)\n" paper_n;
  let margin = Refine_stats.Samplesize.margin_of ~samples ~confidence:0.95 () in
  Printf.printf "this run: n = %d per (program, tool) -> margin of error <= %.1f%% at 95%%\n"
    samples (100.0 *. margin);
  Printf.printf "total experiments: %d programs x 3 tools x %d = %d\n"
    (List.length programs) samples
    (List.length programs * 3 * samples)

(* ---- Listings 1 & 2: machine-only instructions and LLFI interference --- *)

let static_counts (m : Refine_ir.Ir.modul) =
  let funcs = Refine_passes.Pipeline.to_mir m in
  let module M = Refine_mir.Minstr in
  let count p = List.fold_left (fun acc mf ->
      List.fold_left (fun acc (b : Refine_mir.Mfunc.mblock) ->
          acc + List.length (List.filter p b.code)) acc mf.Refine_mir.Mfunc.blocks)
      0 funcs
  in
  let total = count (fun _ -> true) in
  let stack = count (fun i -> M.classify i = M.Cstack) in
  let spill_slots =
    List.fold_left (fun acc mf -> acc + (mf.Refine_mir.Mfunc.frame_bytes / 8)) 0 funcs
  in
  (total, stack, spill_slots)

let print_listings () =
  section "Listings 1 & 2 - machine-only instructions and codegen interference (HPCCG)";
  let src = (Reg.find "HPCCG-1.0").Reg.source in
  let clean = Refine_minic.Frontend.compile src in
  Refine_passes.Pipeline.optimize Refine_passes.Pipeline.O2 clean;
  let ir_instrs =
    List.fold_left (fun acc f -> acc + Refine_ir.Printer.count_instrs f) 0
      clean.Refine_ir.Ir.funcs
  in
  let t_clean, s_clean, fs_clean = static_counts clean in
  let llfi = Refine_minic.Frontend.compile src in
  Refine_passes.Pipeline.optimize Refine_passes.Pipeline.O2 llfi;
  ignore (Refine_passes.Pipeline.run_ir { Refine_passes.Pipeline.empty with ir = [ "llfi-fi" ] } llfi);
  let t_llfi, s_llfi, fs_llfi = static_counts llfi in
  Printf.printf
    "IR instructions (LLFI's entire view):            %4d\n" ir_instrs;
  Printf.printf
    "machine instructions, clean binary:              %4d (%d stack-class, invisible at IR level)\n"
    t_clean s_clean;
  Printf.printf
    "machine instructions after LLFI instrumentation: %4d (%d stack-class)\n" t_llfi s_llfi;
  Printf.printf
    "frame slots (allocas + spills): clean %d -> LLFI %d (spilling induced by injectFault calls, cf. Listing 2c)\n"
    fs_clean fs_llfi

(* ---- campaign ----------------------------------------------------------- *)

let run_campaign () =
  let progs = List.map (fun n -> (n, (Reg.find n).Reg.source)) programs in
  let journal =
    match Sys.getenv_opt "REFINE_JOURNAL" with
    | Some path when path <> "" ->
      let resume = Sys.file_exists path in
      let j = Refine_campaign.Journal.create ~resume path in
      if resume then
        Printf.printf "[journal: resuming from %s, %d samples already resolved]\n" path
          (Refine_campaign.Journal.length j);
      Some j
    | _ -> None
  in
  let retries = int_of_string (getenv_default "REFINE_RETRIES" "1") in
  let cost_cap =
    match Sys.getenv_opt "REFINE_SAMPLE_TIMEOUT" with
    | Some v when v <> "" -> Some (Int64.of_string v)
    | _ -> None
  in
  let t0 = Unix.gettimeofday () in
  let cells = E.run_matrix ?journal ~retries ?cost_cap ~samples ~seed progs Rep.tools in
  let wall = Unix.gettimeofday () -. t0 in
  Printf.printf "\n[campaign: %d experiments in %.1fs]\n"
    (List.length programs * 3 * samples)
    wall;
  List.iter print_endline (Rep.degradation cells);
  cells

let print_figure4 cells =
  section "Figure 4 - fault-injection outcome distributions";
  List.iter
    (fun p ->
      print_string (Rep.figure4_program cells p);
      print_string (Rep.figure4_pmf cells p);
      print_newline ())
    programs

let print_table4 cells =
  if List.mem "AMG2013" programs then begin
    section "Table 4 - contingency table, LLFI vs PINFI (AMG2013)";
    let a = E.find_cell cells ~program:"AMG2013" ~tool:T.Llfi in
    let b = E.find_cell cells ~program:"AMG2013" ~tool:T.Pinfi in
    print_string (Rep.contingency_table a b)
  end

let print_table5 cells =
  section "Table 5 - chi-squared tests (alpha = 0.05)";
  let rows = Rep.chi2_rows cells programs in
  print_string (Rep.table5 rows);
  let llfi_sig =
    List.length (List.filter (fun r -> r.Rep.llfi_vs_pinfi.Refine_stats.Chi2.significant) rows)
  in
  let refine_sig =
    List.length (List.filter (fun r -> r.Rep.refine_vs_pinfi.Refine_stats.Chi2.significant) rows)
  in
  Printf.printf
    "LLFI significantly different from PINFI: %d/%d programs (paper: 14/14)\n" llfi_sig
    (List.length rows);
  Printf.printf
    "REFINE significantly different from PINFI: %d/%d programs (paper: 0/14)\n" refine_sig
    (List.length rows)

let print_table6 cells =
  section "Table 6 - complete outcome frequencies";
  print_string (Rep.table6 cells programs)

let print_figure5 cells =
  section "Figure 5 - experimentation time";
  print_string (Rep.figure5 cells programs)

(* ---- Figures 8/9: measured wall-clock overhead --------------------------
   Unlike Figure 5's modeled cost units, these are Unix.gettimeofday
   measurements bucketed by Experiment/Tool into the instrument / compile /
   execute / harness phases, with each tool's total normalized to PINFI's
   (the paper's time-overhead presentation). *)

let tool_timing cells tool =
  List.fold_left
    (fun acc program ->
      let t = (E.find_cell cells ~program ~tool).E.timing in
      {
        E.instrument_s = acc.E.instrument_s +. t.E.instrument_s;
        compile_s = acc.E.compile_s +. t.E.compile_s;
        execute_s = acc.E.execute_s +. t.E.execute_s;
        harness_s = acc.E.harness_s +. t.E.harness_s;
      })
    E.zero_timing programs

let print_overhead cells =
  section "Figures 8/9 - wall-clock overhead breakdown";
  print_string (Rep.overhead_table cells programs);
  let pinfi = Rep.timing_total (tool_timing cells T.Pinfi) in
  List.iter
    (fun tool ->
      let total = Rep.timing_total (tool_timing cells tool) in
      Printf.printf "%-7s total %8.3fs  = %.2fx PINFI\n" (T.kind_name tool) total
        (if pinfi > 0.0 then total /. pinfi else nan))
    Rep.tools

(* ---- extensions: §4.5 opcode corruption, cited multi-bit variants,
   and the PreFI state-saving ablation ------------------------------------ *)

(* crash / SOC / benign tally of [n] [model] samples on [cell], each on a
   split of one generator seeded with [seed] *)
let tally n cell model seed =
  let rng = Prng.create seed in
  let t = Array.make 3 0 in
  for _ = 1 to n do
    match (T.run_injection ~model cell (Prng.split rng)).F.outcome with
    | F.Crash -> t.(0) <- t.(0) + 1
    | F.Soc -> t.(1) <- t.(1) + 1
    | F.Benign -> t.(2) <- t.(2) + 1
    | F.Tool_error -> ()
  done;
  t

let extensions_section () =
  section "Extensions - opcode corruption (paper par. 4.5), double-bit faults, PreFI ablation";
  let src = (Reg.find "EP").Reg.source in
  let n = min samples 200 in
  (* opcode corruption, on PINFI's (uninstrumented) binary *)
  let opcode = T.prepare ~model:F.Opcode T.Pinfi src in
  let op = tally n opcode F.Opcode seed in
  Printf.printf
    "opcode corruption on EP (%Ld corruptible dynamic instrs, n=%d):\n  crash %d  SOC %d  benign %d\n"
    opcode.T.profile.F.dyn_count n op.(0) op.(1) op.(2);
  (* double-bit vs single-bit PINFI *)
  let pinfi = T.prepare T.Pinfi src in
  let one = tally n pinfi F.Reg_bit (seed + 1) in
  let two = tally n pinfi (F.Multi_bit { bits = 2; burst = false }) (seed + 2) in
  Printf.printf
    "multi-bit model on EP (n=%d): 1-bit crash/SOC/benign %d/%d/%d ; 2-bit %d/%d/%d\n" n
    one.(0) one.(1) one.(2) two.(0) two.(1) two.(2);
  (* PreFI flags-saving ablation: without it, even profiling diverges *)
  let m2 = Refine_minic.Frontend.compile src in
  Refine_passes.Pipeline.optimize Refine_passes.Pipeline.O2 m2;
  let ctx = { Refine_passes.Pass.default_ctx with Refine_passes.Pass.save_flags = false } in
  let image2 =
    Option.get
      (Refine_passes.Pipeline.run ~ctx
         (Refine_passes.Pipeline.parse "isel,regalloc,frame,peephole,refine-fi,layout") m2)
        .Refine_passes.Pipeline.image
  in
  let ctrl = Refine_core.Runtime.create Refine_core.Runtime.Profile in
  let eng = Refine_machine.Exec.create ~ext_extra:(Refine_core.Runtime.refine_handlers ctrl) image2 in
  let r = Refine_machine.Exec.run ~max_cost:500_000_000L eng in
  let diverged =
    match r.Refine_machine.Exec.status with
    | Refine_machine.Exec.Exited 0 -> r.Refine_machine.Exec.output <> pinfi.T.profile.F.golden_output
    | _ -> true
  in
  Printf.printf
    "PreFI ablation (no FLAGS save/restore): fault-free run %s - Figure 2's state saving is load-bearing\n"
    (if diverged then "DIVERGES from golden output" else "unexpectedly matches")

(* ---- main ---------------------------------------------------------------- *)

let () =
  Printf.printf
    "REFINE reproduction - evaluation harness (paper: SC'17, 10.1145/3126908.3126972)\n";
  Printf.printf "programs: %s\n" (String.concat ", " programs);
  print_table3 ();
  print_setting ();
  print_listings ();
  let cells = run_campaign () in
  print_figure4 cells;
  print_table4 cells;
  print_table5 cells;
  print_table6 cells;
  print_figure5 cells;
  print_overhead cells;
  if getenv_default "REFINE_EXTENSIONS" "1" <> "0" then extensions_section ();
  print_newline ()
