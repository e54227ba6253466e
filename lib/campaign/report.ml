(* Rendering of campaign results in the shape of the paper's tables and
   figure series (text form).  Used by refinec campaign, which prints the
   paper's whole evaluation section, and by the examples. *)

module T = Refine_core.Tool
module Tbl = Refine_support.Table
module E = Experiment
module Pl = Refine_passes.Pipeline

let tools = [ T.Llfi; T.Refine; T.Pinfi ]

(* ---- Campaign header: the statistical setting (paper §5.3) ------------ *)

let header ~seed ~samples ~programs ~models =
  let margin n = 100.0 *. Refine_stats.Samplesize.margin_of ~samples:n ~confidence:0.95 () in
  let paper = Refine_stats.Samplesize.paper_sample_count in
  let plural n word = Printf.sprintf "%d %s%s" n word (if n = 1 then "" else "s") in
  Printf.sprintf
    "Campaign: seed %d; %d samples per cell, margin of error ±%.1f%% at 95%% (the paper's n = \
     %d: ±%.1f%%); %s x %d tools x %s = %d experiments\n"
    seed samples (margin samples) paper (margin paper) (plural programs "program")
    (List.length tools) (plural models "fault model")
    (programs * List.length tools * models * samples)

(* ---- Figure 4: outcome percentages with confidence intervals ---------- *)

let figure4_program (cells : E.cell list) program =
  let buf = Buffer.create 512 in
  Buffer.add_string buf (Printf.sprintf "Figure 4 — %s: sampled outcome probabilities (%%)\n" program);
  let rows =
    List.map
      (fun tool ->
        let c = E.find_cell cells ~program ~tool in
        let n = E.total c.E.counts in
        let ci count =
          (* a fully degraded cell (every sample a tool error) has no
             statistical n; render "--" instead of aborting *)
          if n = 0 then "--"
          else
            let iv = Refine_stats.Ci.wald ~count ~total:n () in
            Printf.sprintf "%5.1f ±%.1f" (100.0 *. iv.Refine_stats.Ci.p)
              (100.0 *. (iv.Refine_stats.Ci.high -. iv.Refine_stats.Ci.p))
        in
        [ T.kind_name tool; ci c.E.counts.E.crash; ci c.E.counts.E.soc; ci c.E.counts.E.benign ])
      tools
  in
  Buffer.add_string buf
    (Tbl.render ~align:[ Tbl.Left; Tbl.Right; Tbl.Right; Tbl.Right ]
       ~header:[ "tool"; "crash"; "SOC"; "benign" ] rows);
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* ---- Figure 4 PMF stacked bars ----------------------------------------
   The fourth panel of each Figure 4 subplot: the probability mass function
   of the outcomes per tool as a stacked bar — "a concise way of
   visualizing diversions and similarities" (paper §5.4.1). *)

let figure4_pmf (cells : E.cell list) program =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "PMF (stacked: # crash, * SOC, . benign) — %s\n" program);
  let width = 50 in
  List.iter
    (fun tool ->
      let c = E.find_cell cells ~program ~tool in
      let n = max 1 (E.total c.E.counts) in
      let seg count = count * width / n in
      let ncr = seg c.E.counts.E.crash in
      let nso = seg c.E.counts.E.soc in
      let nbe = max 0 (width - ncr - nso) in
      Buffer.add_string buf
        (Printf.sprintf "%-7s [%s%s%s]\n" (T.kind_name tool) (String.make ncr '#')
           (String.make nso '*') (String.make nbe '.')))
    tools;
  Buffer.contents buf

(* ---- Table 4-style contingency table ---------------------------------- *)

let contingency_table (a : E.cell) (b : E.cell) =
  let buf = Buffer.create 256 in
  let line (c : E.cell) =
    [
      T.kind_name c.E.tool;
      string_of_int c.E.counts.E.crash;
      string_of_int c.E.counts.E.soc;
      string_of_int c.E.counts.E.benign;
      string_of_int (E.total c.E.counts);
    ]
  in
  let tot f = f a.E.counts + f b.E.counts in
  Buffer.add_string buf
    (Tbl.render
       ~align:[ Tbl.Left; Tbl.Right; Tbl.Right; Tbl.Right; Tbl.Right ]
       ~header:[ "Tool"; "Crash"; "SOC"; "Benign"; "Total" ]
       [
         line a;
         line b;
         [
           "Total";
           string_of_int (tot (fun c -> c.E.crash));
           string_of_int (tot (fun c -> c.E.soc));
           string_of_int (tot (fun c -> c.E.benign));
           "";
         ];
       ]);
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* ---- Table 5: chi-squared verdicts ------------------------------------ *)

type chi2_row = {
  program : string;
  llfi_vs_pinfi : Refine_stats.Chi2.test_result;
  refine_vs_pinfi : Refine_stats.Chi2.test_result;
  quarantined_tools : (string * string) list;
      (* (tool, reason) of this program's quarantined cells: their rows are
         all-zero by construction, so the verdict is trivial — the
         annotation tells the reader why *)
}

let chi2_rows (cells : E.cell list) programs : chi2_row list =
  List.map
    (fun program ->
      let cell tool = E.find_cell cells ~program ~tool in
      let test a b =
        let ra = E.row (cell a) and rb = E.row (cell b) in
        let tot = Array.fold_left ( + ) 0 in
        (* both cells fully degraded or quarantined: no observations, no
           evidence of a difference — report the trivial verdict rather
           than aborting *)
        if tot ra = 0 && tot rb = 0 then
          { Refine_stats.Chi2.statistic = 0.0; df = 1; p_value = 1.0; significant = false }
        else Refine_stats.Chi2.test [| ra; rb |]
      in
      let quarantined_tools =
        List.filter_map
          (fun tool ->
            match (cell tool).E.quarantined with
            | Some r -> Some (T.kind_name tool, r)
            | None -> None)
          tools
      in
      {
        program;
        llfi_vs_pinfi = test T.Llfi T.Pinfi;
        refine_vs_pinfi = test T.Refine T.Pinfi;
        quarantined_tools;
      })
    programs

let table5 (rows : chi2_row list) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "Table 5 — chi-squared tests against PINFI (alpha = 0.05)\n";
  let fmt (t : Refine_stats.Chi2.test_result) =
    ( (if t.Refine_stats.Chi2.p_value < 0.005 then "~0.00"
       else Printf.sprintf "%.2f" t.Refine_stats.Chi2.p_value),
      if t.Refine_stats.Chi2.significant then "yes" else "no" )
  in
  let trows =
    List.map
      (fun r ->
        let lp, ls = fmt r.llfi_vs_pinfi in
        let rp, rs = fmt r.refine_vs_pinfi in
        let mark s = if r.quarantined_tools = [] then s else s ^ " [q]" in
        [ mark r.program; lp; ls; rp; rs ])
      rows
  in
  Buffer.add_string buf
    (Tbl.render
       ~align:[ Tbl.Left; Tbl.Right; Tbl.Left; Tbl.Right; Tbl.Left ]
       ~header:
         [ "program"; "LLFI p-value"; "signif.diff?"; "REFINE p-value"; "signif.diff?" ]
       trows);
  Buffer.add_char buf '\n';
  (* footnotes: quarantined cells contribute all-zero rows, so their
     verdicts above are trivial — say why *)
  List.iter
    (fun r ->
      List.iter
        (fun (tool, reason) ->
          Buffer.add_string buf
            (Printf.sprintf "  [q] %s/%s quarantined (excluded): %s\n" r.program tool reason))
        r.quarantined_tools)
    rows;
  let significant test =
    List.length (List.filter (fun r -> (test r).Refine_stats.Chi2.significant) rows)
  in
  Buffer.add_string buf
    (Printf.sprintf
       "LLFI significantly different from PINFI: %d/%d programs (paper: 14/14)\n\
        REFINE significantly different from PINFI: %d/%d programs (paper: 0/14)\n"
       (significant (fun r -> r.llfi_vs_pinfi))
       (List.length rows)
       (significant (fun r -> r.refine_vs_pinfi))
       (List.length rows));
  Buffer.contents buf

(* ---- Quarantine report (DESIGN.md §13) -------------------------------- *)

let quarantines (cells : E.cell list) =
  List.filter_map
    (fun (c : E.cell) ->
      Option.map (fun r -> (c.E.program, T.kind_name c.E.tool, r)) c.E.quarantined)
    cells

let quarantine_report (cells : E.cell list) =
  match quarantines cells with
  | [] -> ""
  | qs ->
    let buf = Buffer.create 256 in
    Buffer.add_string buf "Quarantined cells (no samples ran; excluded from all statistics)\n";
    List.iter
      (fun (p, t, r) -> Buffer.add_string buf (Printf.sprintf "  %s/%s: %s\n" p t r))
      qs;
    Buffer.add_char buf '\n';
    Buffer.contents buf

(* ---- Table 6: complete outcome counts, paper side-by-side ------------- *)

let table6 (cells : E.cell list) programs =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "Table 6 — outcome frequencies (measured | paper @1068)\n";
  let rows =
    List.concat_map
      (fun program ->
        let paper_l, paper_r, paper_p = Paper_data.find_table6 program in
        List.map2
          (fun tool (paper : Paper_data.row) ->
            let c = E.find_cell cells ~program ~tool in
            [
              program;
              T.kind_name tool;
              Printf.sprintf "%d | %d" c.E.counts.E.crash paper.Paper_data.crash;
              Printf.sprintf "%d | %d" c.E.counts.E.soc paper.Paper_data.soc;
              Printf.sprintf "%d | %d" c.E.counts.E.benign paper.Paper_data.benign;
            ])
          tools
          [ paper_l; paper_r; paper_p ])
      programs
  in
  Buffer.add_string buf
    (Tbl.render
       ~align:[ Tbl.Left; Tbl.Left; Tbl.Right; Tbl.Right; Tbl.Right ]
       ~header:[ "program"; "tool"; "crash"; "SOC"; "benign" ]
       rows);
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* ---- Per-fault-model sections (DESIGN.md §18) -------------------------- *)

(* The distinct fault models present in a cell list, first-seen order —
   a multi-model campaign concatenates its per-model cell lists, so this
   recovers the order the models ran in. *)
let models (cells : E.cell list) =
  List.fold_left
    (fun acc (c : E.cell) -> if List.mem c.E.model acc then acc else c.E.model :: acc)
    [] cells
  |> List.rev

let cells_of_model model (cells : E.cell list) =
  List.filter (fun (c : E.cell) -> c.E.model = model) cells

(* Table 5 + Table 6 per fault model.  For Reg_bit the section reproduces
   the paper's tables verbatim; the other models reuse the same rendering
   (the paper's @1068 column stays as the Reg_bit reference point the
   shifted distributions are read against). *)
let model_sections (cells : E.cell list) programs =
  let buf = Buffer.create 4096 in
  List.iter
    (fun model ->
      let mcells = cells_of_model model cells in
      Buffer.add_string buf
        (Printf.sprintf "==== fault model: %s ====\n\n"
           (Refine_core.Fault.string_of_model model));
      Buffer.add_string buf (table5 (chi2_rows mcells programs));
      Buffer.add_char buf '\n';
      Buffer.add_string buf (table6 mcells programs);
      Buffer.add_char buf '\n')
    (models cells);
  Buffer.contents buf

(* ---- Campaign robustness: degradation warnings ------------------------ *)

(* Samplesize-aware warnings when harness failures (ToolError), a
   quarantine, or an interrupted run drop the achieved n below the
   requested one: the margin of error of every affected cell is recomputed
   so the operator sees what statistical power the degradation actually
   cost.  [journal_skipped] adds a line for resume-journal rows that
   failed to decode (each cost one re-run). *)
let degradation ?(confidence = 0.95) ?(journal_skipped = 0) (cells : E.cell list) =
  let skipped_line =
    if journal_skipped = 0 then []
    else
      [
        Printf.sprintf
          "WARNING resume journal: %d undecodable line%s skipped (each cost one re-run)"
          journal_skipped
          (if journal_skipped = 1 then "" else "s");
      ]
  in
  skipped_line
  @ List.filter_map
    (fun (c : E.cell) ->
      match c.E.quarantined with
      | Some reason ->
        Some
          (Printf.sprintf "QUARANTINED %s/%s: 0 of %d samples ran — %s" c.E.program
             (T.kind_name c.E.tool) c.E.samples reason)
      | None ->
      let n_eff = E.total c.E.counts in
      if c.E.counts.E.tool_error = 0 && n_eff >= c.E.samples then None
      else
        let requested =
          Refine_stats.Samplesize.margin_of ~samples:c.E.samples ~confidence ()
        in
        let achieved =
          if n_eff = 0 then 1.0
          else Refine_stats.Samplesize.margin_of ~samples:n_eff ~confidence ()
        in
        let causes =
          match c.E.failures with
          | [] -> ""
          | fs ->
            "\n    " ^ String.concat "\n    " (List.map Refine_support.Supervisor.string_of_failure fs)
        in
        Some
          (Printf.sprintf
             "WARNING %s/%s: %d of %d samples resolved (%d tool errors) — margin of error \
              ±%.1f%% vs ±%.1f%% requested at %.0f%% confidence%s"
             c.E.program (T.kind_name c.E.tool) n_eff c.E.samples c.E.counts.E.tool_error
             (100.0 *. achieved) (100.0 *. requested) (100.0 *. confidence) causes))
    cells

(* ---- Figures 8/9: wall-clock overhead breakdown ------------------------
   The paper's instrumentation/compilation/execution time-overhead figures:
   per (program, tool), where the harness actually spent its wall time, and
   the per-tool total normalized to PINFI.  Unlike Figure 5 (modeled cost
   units) this table reports measured seconds from Experiment.timing: the
   simulator's own speed, so its ratios are not graded against the paper's
   (Figure 5's modeled ratios are the reproduced speed result). *)

let timing_total (t : E.timing) =
  t.E.instrument_s +. t.E.compile_s +. t.E.execute_s +. t.E.harness_s

let overhead_table (cells : E.cell list) programs =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "Figures 8/9 — wall-clock overhead breakdown (seconds; ratio vs PINFI total)\n";
  let s v = Printf.sprintf "%.3f" v in
  let ratio tool_total pinfi_total =
    if pinfi_total <= 0.0 then "--" else Printf.sprintf "%.2fx" (tool_total /. pinfi_total)
  in
  let per_program =
    List.concat_map
      (fun program ->
        let cell tool = E.find_cell cells ~program ~tool in
        let pinfi_total = timing_total (cell T.Pinfi).E.timing in
        List.map
          (fun tool ->
            let t = (cell tool).E.timing in
            [
              program;
              T.kind_name tool;
              s t.E.instrument_s;
              s t.E.compile_s;
              s t.E.execute_s;
              s t.E.harness_s;
              s (timing_total t);
              ratio (timing_total t) pinfi_total;
            ])
          tools)
      programs
  in
  (* Total block: each tool's timing summed over every program *)
  let sum_tool tool =
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
  in
  let pinfi_grand = timing_total (sum_tool T.Pinfi) in
  let totals =
    List.map
      (fun tool ->
        let t = sum_tool tool in
        [
          "Total";
          T.kind_name tool;
          s t.E.instrument_s;
          s t.E.compile_s;
          s t.E.execute_s;
          s t.E.harness_s;
          s (timing_total t);
          ratio (timing_total t) pinfi_grand;
        ])
      tools
  in
  Buffer.add_string buf
    (Tbl.render
       ~align:
         [ Tbl.Left; Tbl.Left; Tbl.Right; Tbl.Right; Tbl.Right; Tbl.Right; Tbl.Right; Tbl.Right ]
       ~header:
         [ "program"; "tool"; "instrument"; "compile"; "execute"; "harness"; "total"; "vs PINFI" ]
       (per_program @ totals));
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* ---- Figure 5: campaign time normalized to PINFI ---------------------- *)

let figure5 (cells : E.cell list) programs =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "Figure 5 — campaign execution time normalized to PINFI (modeled | paper): the modeled \
     ratio is the reproduced speed result\n";
  let norm program tool =
    let c = E.find_cell cells ~program ~tool in
    let p = E.find_cell cells ~program ~tool:T.Pinfi in
    Int64.to_float c.E.injection_cost /. Int64.to_float (max 1L p.E.injection_cost |> fun x -> x)
  in
  let total tool =
    let sum t =
      List.fold_left
        (fun acc program ->
          Int64.add acc (E.find_cell cells ~program ~tool:t).E.injection_cost)
        0L programs
    in
    Int64.to_float (sum tool) /. Int64.to_float (sum T.Pinfi)
  in
  let rows =
    List.map
      (fun program ->
        let pl, pr = List.assoc program Paper_data.figure5 in
        [
          program;
          Printf.sprintf "%.1f | %.1f" (norm program T.Llfi) pl;
          Printf.sprintf "%.1f | %.1f" (norm program T.Refine) pr;
        ])
      programs
    @ [
        (let pl, pr = Paper_data.figure5_total in
         [
           "Total";
           Printf.sprintf "%.1f | %.1f" (total T.Llfi) pl;
           Printf.sprintf "%.1f | %.1f" (total T.Refine) pr;
         ]);
      ]
  in
  Buffer.add_string buf
    (Tbl.render ~align:[ Tbl.Left; Tbl.Right; Tbl.Right ]
       ~header:[ "program"; "LLFI"; "REFINE" ] rows);
  Buffer.add_char buf '\n';
  Buffer.contents buf

(* ---- Listings 1 & 2: what the IR cannot see, what LLFI adds -------------
   Listing 1: the stack-class machine instructions (prologue, epilogue,
   spills) have no IR counterpart, so an IR-level injector never targets
   them.  Listing 2: LLFI's injectFault calls add machine code and
   spill slots to the binary they instrument.  Static counts per program,
   on the campaign's IR pipeline and the fixed backend. *)

let static_counts (funcs : Refine_mir.Mfunc.t list) =
  let count p =
    List.fold_left
      (fun acc (mf : Refine_mir.Mfunc.t) ->
        List.fold_left
          (fun acc (b : Refine_mir.Mfunc.mblock) -> acc + List.length (List.filter p b.code))
          acc mf.blocks)
      0 funcs
  in
  let frame_slots =
    List.fold_left (fun acc (mf : Refine_mir.Mfunc.t) -> acc + (mf.frame_bytes / 8)) 0 funcs
  in
  ( count (fun _ -> true),
    count (fun i -> Refine_mir.Minstr.classify i = Refine_mir.Minstr.Cstack),
    frame_slots )

let listings ~pipeline (programs : (string * string) list) =
  let compile ~llfi source =
    let m = Refine_minic.Frontend.compile source in
    ignore (Pl.run_ir pipeline m);
    let ir_instrs =
      List.fold_left (fun acc f -> acc + Refine_ir.Printer.count_instrs f) 0 m.Refine_ir.Ir.funcs
    in
    if llfi then ignore (Pl.run_ir { Pl.empty with ir = [ "llfi-fi" ] } m);
    (ir_instrs, static_counts (Pl.to_mir m))
  in
  let rows =
    List.map
      (fun (program, source) ->
        let ir_instrs, (total, stack, slots) = compile ~llfi:false source in
        let _, (llfi_total, llfi_stack, llfi_slots) = compile ~llfi:true source in
        (program :: List.map string_of_int [ ir_instrs; total; stack; llfi_total; llfi_stack ])
        @ [ Printf.sprintf "%d -> %d" slots llfi_slots ])
      programs
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "Listings 1 & 2 — static counts: machine-only instructions and LLFI's codegen interference\n";
  Buffer.add_string buf
    (Tbl.render
       ~align:[ Tbl.Left; Tbl.Right; Tbl.Right; Tbl.Right; Tbl.Right; Tbl.Right; Tbl.Right ]
       ~header:
         [ "program"; "IR instrs"; "machine"; "stack-class"; "LLFI machine"; "LLFI stack-class";
           "frame slots" ]
       rows);
  Buffer.add_string buf
    "\nIR instrs: LLFI's entire view.  stack-class: machine instructions invisible at the IR \
     level.\nframe slots: allocas + spills, clean -> LLFI (the spilling injectFault calls \
     induce, cf. Listing 2c).\n";
  Buffer.contents buf
