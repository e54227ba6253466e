(* Robustness tests for the fault-tolerant campaign engine: supervised
   workers, bounded retry, watchdog kills, checkpoint/resume journal and
   ToolError graceful degradation. *)

module P = Refine_support.Prng
module S = Refine_support.Supervisor
module E = Refine_campaign.Experiment
module J = Refine_campaign.Journal
module Rep = Refine_campaign.Report
module T = Refine_core.Tool
module F = Refine_core.Fault

let src =
  {|
int main() {
  int i; float s = 0.0;
  for (i = 0; i < 40; i = i + 1) { s = s + tofloat(i * i) * 0.125; }
  print_float(s);
  return 0;
}
|}

let tmpfile () = Filename.temp_file "refine_journal" ".log"

(* ---- stable seed derivation (replaces Hashtbl.hash) -------------------- *)

let test_fnv1a_pinned () =
  (* FNV-1a 64 offset basis / known vectors, folded to 63 bits; pinned so a
     change in the hash (or a return to Hashtbl.hash) fails loudly *)
  Alcotest.(check int) "fnv1a(\"\")" 860922984064492325 (P.hash_string "");
  Alcotest.(check int) "fnv1a(HPCCG-1.0)" 404067949972785624 (P.hash_string "HPCCG-1.0");
  Alcotest.(check int) "cell seed pinned" 4201135180414618005
    (E.cell_seed ~seed:1 ~program:"tiny" T.Refine);
  Alcotest.(check int) "cell seed pinned (DC/PINFI)" 2999991401370769998
    (E.cell_seed ~seed:20170712 ~program:"DC" T.Pinfi)

(* ---- supervisor: isolation, retry, watchdog ---------------------------- *)

(* every task's settled outcome by index; a task the pool never reported
   stays [Skipped] *)
let run_all ?token ?policy ?watchdog ~domains n f =
  let out = Array.make n S.Skipped in
  S.run ?token ?policy ?watchdog ~domains n f ~settle:(fun i o -> out.(i) <- o);
  out

let test_retry_then_success () =
  let tries = Array.make 4 0 in
  let out =
    run_all ~policy:{ S.default_policy with S.max_retries = 3 } ~domains:1 4
      (fun ~attempt i ->
        tries.(i) <- tries.(i) + 1;
        if i = 2 && attempt < 2 then failwith "flaky";
        i * 10)
  in
  (match out.(2) with
  | S.Done (v, attempts) ->
    Alcotest.(check int) "value" 20 v;
    Alcotest.(check int) "attempts used" 3 attempts
  | _ -> Alcotest.fail "task 2 should succeed after retries");
  Alcotest.(check int) "task 2 ran 3 times" 3 tries.(2);
  Alcotest.(check int) "task 0 ran once" 1 tries.(0)

let test_retry_exhaustion () =
  let out =
    run_all ~policy:{ S.default_policy with S.max_retries = 2 } ~domains:2 6
      (fun ~attempt:_ i -> if i = 3 then failwith "always broken" else i)
  in
  (match out.(3) with
  | S.Failed f ->
    Alcotest.(check int) "attempts" 3 f.S.attempts;
    Alcotest.(check bool) "error captured" true
      (match f.S.exn with Failure m -> m = "always broken" | _ -> false)
  | _ -> Alcotest.fail "task 3 should exhaust retries");
  (* sibling tasks are unaffected: one failure no longer aborts the pool *)
  List.iter
    (fun i ->
      match out.(i) with
      | S.Done (v, 1) -> Alcotest.(check int) "sibling done" i v
      | _ -> Alcotest.fail (Printf.sprintf "task %d should be Done" i))
    [ 0; 1; 2; 4; 5 ];
  Alcotest.(check int) "one aggregated failure" 1
    (Array.fold_left (fun n -> function S.Failed _ -> n + 1 | _ -> n) 0 out)

let test_watchdog_skips_remaining () =
  let polls = ref 0 in
  let out =
    run_all ~domains:1 ~watchdog:(fun () -> incr polls; !polls > 3) 10
      (fun ~attempt:_ i -> i)
  in
  let done_n =
    Array.fold_left (fun n -> function S.Done _ -> n + 1 | _ -> n) 0 out
  in
  let skipped_n =
    Array.fold_left (fun n -> function S.Skipped -> n + 1 | _ -> n) 0 out
  in
  Alcotest.(check int) "watchdog stopped after 3 tasks" 3 done_n;
  Alcotest.(check int) "rest skipped, not failed" 7 skipped_n

let test_cancelled_inflight () =
  (* a task that polls the token aborts mid-flight and lands as Skipped *)
  let token = S.Cancel.create () in
  let out =
    run_all ~token ~domains:1 3 (fun ~attempt:_ i ->
        if i = 1 then begin
          S.Cancel.cancel ~reason:"test kill" token;
          S.check token
        end;
        i)
  in
  (match (out.(0), out.(1), out.(2)) with
  | S.Done (0, 1), S.Skipped, S.Skipped -> ()
  | _ -> Alcotest.fail "expected Done/Skipped/Skipped");
  Alcotest.(check (option string)) "reason kept" (Some "test kill") (S.Cancel.reason token)

(* ---- per-sample watchdog (modeled-cost budget) ------------------------- *)

let prepared = lazy (T.prepare T.Refine src)

let test_sample_budget_exceeded () =
  let p = Lazy.force prepared in
  let rng = P.create 7 in
  Alcotest.(check bool) "tiny budget kills the sample" true
    (try
       ignore (T.run_injection ~cost_cap:1L p (P.split rng));
       false
     with T.Sample_budget_exceeded _ -> true);
  (* a cap at/above the paper's 10x timeout is inert: never raises *)
  let r2 = P.create 7 in
  ignore (T.run_injection ~cost_cap:Int64.max_int p (P.split r2))

let test_watchdog_expiry_degrades_to_tool_error () =
  let c =
    E.run_cell ~domains:2 ~retries:1 ~cost_cap:1L ~samples:8 ~seed:5 T.Refine
      ~program:"tiny" ~source:src ()
  in
  Alcotest.(check int) "all samples are tool errors" 8 c.E.counts.E.tool_error;
  Alcotest.(check int) "contingency n is zero" 0 (E.total c.E.counts);
  Alcotest.(check int) "attempted includes tool errors" 8 (E.attempted c.E.counts);
  Alcotest.(check (array int)) "chi2 row excludes tool errors" [| 0; 0; 0 |] (E.row c);
  Alcotest.(check int) "failures aggregated" 8 (List.length c.E.failures);
  List.iter
    (fun f -> Alcotest.(check int) "retry budget honoured" 2 f.S.attempts)
    c.E.failures;
  (* watchdog kills still bill their burned budget to campaign time *)
  Alcotest.(check bool) "burned cost accounted" true (c.E.injection_cost > 0L);
  match Rep.degradation [ c ] with
  | [ w ] ->
    Alcotest.(check bool) "warning names the cell" true
      (let has s sub =
         let n = String.length s and m = String.length sub in
         let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
         go 0
       in
       has w "tiny" && has w "margin of error")
  | ws -> Alcotest.fail (Printf.sprintf "expected 1 warning, got %d" (List.length ws))

(* ---- graceful degradation across the matrix ---------------------------- *)

let test_matrix_survives_broken_cell () =
  (* a program whose profiling run exits nonzero: prepare fails, the cell
     degrades, the rest of the matrix completes *)
  let bad = "int main() { return 1; }" in
  let cells =
    E.run_matrix ~domains:2 ~samples:10 ~seed:3
      [ ("bad", bad); ("tiny", src) ]
      [ T.Refine; T.Pinfi ]
  in
  Alcotest.(check int) "all four cells present" 4 (List.length cells);
  let b = E.find_cell cells ~program:"bad" ~tool:T.Refine in
  Alcotest.(check int) "broken cell fully degraded" 10 b.E.counts.E.tool_error;
  Alcotest.(check bool) "prepare failure recorded" true
    (match b.E.failures with [ { S.index = -1; _ } ] -> true | _ -> false);
  let g = E.find_cell cells ~program:"tiny" ~tool:T.Pinfi in
  Alcotest.(check int) "healthy cell complete" 10 (E.total g.E.counts);
  Alcotest.(check int) "healthy cell has no tool errors" 0 g.E.counts.E.tool_error;
  Alcotest.(check int) "two warnings (bad cells only)" 2
    (List.length (Rep.degradation cells))

let test_reports_survive_degraded_matrix () =
  (* every sample killed by the cost cap: the CI, chi-squared and timing
     reports must render placeholders / trivial verdicts, not abort *)
  let cells =
    E.run_matrix ~domains:2 ~retries:0 ~cost_cap:1L ~samples:4 ~seed:2
      [ ("tiny", src) ] Rep.tools
  in
  List.iter
    (fun (c : E.cell) ->
      Alcotest.(check int) "cell fully degraded" 4 c.E.counts.E.tool_error)
    cells;
  let fig4 = Rep.figure4_program cells "tiny" in
  Alcotest.(check bool) "figure 4 renders placeholder" true
    (String.length fig4 > 0
    && (let n = String.length fig4 in
        let rec go i = i + 2 <= n && (String.sub fig4 i 2 = "--" || go (i + 1)) in
        go 0));
  (match Rep.chi2_rows cells [ "tiny" ] with
  | [ r ] ->
    Alcotest.(check bool) "empty-vs-empty chi2 is the trivial verdict" false
      r.Rep.refine_vs_pinfi.Refine_stats.Chi2.significant;
    Alcotest.(check (float 1e-9)) "p-value is 1" 1.0
      r.Rep.refine_vs_pinfi.Refine_stats.Chi2.p_value
  | rs -> Alcotest.fail (Printf.sprintf "expected 1 chi2 row, got %d" (List.length rs)));
  ignore (Rep.table5 (Rep.chi2_rows cells [ "tiny" ]));
  Alcotest.(check int) "one warning per cell" (List.length Rep.tools)
    (List.length (Rep.degradation cells))

(* ---- journal ----------------------------------------------------------- *)

let entry sample outcome cost =
  { J.program = "p"; tool = "REFINE"; model = "reg"; sample; outcome; cost; attempts = 1 }

let test_journal_roundtrip () =
  let path = tmpfile () in
  let j = J.create path in
  J.record j (entry 0 F.Crash 100L);
  J.record j (entry 1 F.Benign 200L);
  J.record j (entry 2 F.Tool_error 5L);
  let j2 = J.create ~resume:true path in
  Alcotest.(check int) "entries survive reopen" 3 (J.length j2);
  let tbl = J.completed j2 ~program:"p" ~tool:"REFINE" in
  Alcotest.(check int) "completed keyed by sample" 3 (Hashtbl.length tbl);
  Alcotest.(check bool) "outcome preserved" true
    ((Hashtbl.find tbl 2).J.outcome = F.Tool_error);
  Alcotest.(check int64) "cost preserved" 200L (Hashtbl.find tbl 1).J.cost;
  let j3 = J.create path in
  Alcotest.(check int) "non-resume truncates" 0 (J.length j3);
  Sys.remove path

let test_journal_skips_garbage () =
  let path = tmpfile () in
  let oc = open_out path in
  output_string oc "# refine-journal v2\np\tREFINE\t0\tcrash\t42\t1\treg\nnot a valid line\n";
  close_out oc;
  let j = J.create ~resume:true path in
  Alcotest.(check int) "good line kept, torn line dropped" 1 (J.length j);
  (* no writer emits the 6-field pre-model shape: under the v2 tag it is
     a 7-field line whose model separator became a newline *)
  let oc = open_out path in
  output_string oc "# refine-journal v2\np\tREFINE\t0\tcrash\t42\t1\nmem\n";
  close_out oc;
  let j = J.create ~resume:true path in
  Alcotest.(check int) "v1 shape under the v2 tag skipped" 0 (J.length j);
  Sys.remove path

(* One rendered entry line with one byte XORed by a nonzero mask, written
   under the v2 magic and resumed: loading must not raise, and every line
   the rewritten journal holds after its magic must occur verbatim in the
   corrupted input — a corrupted line is kept as written or skipped, never
   read as another entry.  Sample and cost have several digits, and half
   the masks turn the byte into a character the numeric readers or the
   line splitter treat specially, so the dangerous corruptions (a digit
   turned into 0, _ or +, a separator into a newline) are frequent. *)
let read_file path = In_channel.with_open_bin path In_channel.input_all

let prop_journal_byte_corruption =
  let specials = [ '0'; '_'; '+'; '-'; 'x'; 'b'; 'o'; 'L'; '\t'; '\n'; '\r'; ' '; '#' ] in
  let gen =
    QCheck.Gen.(
      let* sample = int_range 10 99_999 in
      let* cost = map Int64.of_int (int_range 100 999_999_999) in
      let* attempts = int_range 1 3 in
      let* model = oneofl [ "reg"; "mem"; "instr"; "multi:13"; "burst:2" ] in
      let* outcome = oneofl [ F.Crash; F.Soc; F.Benign; F.Tool_error ] in
      let* pos = int_bound 1023 in
      let* mask =
        oneof [ map (fun m -> `Mask m) (int_range 1 255); map (fun c -> `Into c) (oneofl specials) ]
      in
      return ({ J.program = "CG"; tool = "REFINE"; model; sample; outcome; cost; attempts }, pos, mask))
  in
  let print (e, pos, mask) =
    Printf.sprintf "sample %d, cost %Ld, model %s, byte %d %s" e.J.sample e.J.cost e.J.model pos
      (match mask with `Mask m -> Printf.sprintf "xor 0x%02x" m | `Into c -> Printf.sprintf "into %C" c)
  in
  QCheck.Test.make ~name:"journal: a corrupted byte never decodes as another entry" ~count:300
    (QCheck.make ~print gen)
    (fun (e, pos, mask) ->
      let path = tmpfile () in
      let j = J.create path in
      J.record j e;
      J.close j;
      let line = List.nth (String.split_on_char '\n' (read_file path)) 1 in
      let pos = pos mod String.length line in
      let orig = Char.code line.[pos] in
      let mask =
        match mask with
        | `Mask m -> m
        | `Into c -> if Char.code c = orig then 0xff else Char.code c lxor orig
      in
      let corrupted = Bytes.of_string line in
      Bytes.set corrupted pos (Char.chr (orig lxor mask));
      let input = "# refine-journal v2\n" ^ Bytes.to_string corrupted ^ "\n" in
      Out_channel.with_open_bin path (fun oc -> output_string oc input);
      ignore (J.create ~resume:true path);
      let kept = List.tl (String.split_on_char '\n' (read_file path)) in
      Sys.remove path;
      let input_lines = String.split_on_char '\n' input in
      List.for_all (fun l -> l = "" || List.mem l input_lines) kept)

(* A journal not tagged v2 loads no records, though its lines have the
   pre-model and v2 shapes: untagged, tagged v1 (the pre-model format) or
   tagged with a version this loader does not know, each record line
   (quarantine too) counts as skipped, and the canonical rewrite keeps
   none of them.  Under the v2 tag the v2 line and the quarantine load
   and the pre-model line is skipped. *)
let test_journal_unknown_version () =
  let records =
    [ "p\tREFINE\t0\tcrash\t42\t1"; "p\tREFINE\t1\tbenign\t43\t1\tmem"; "Q\tp\tLLFI\tbad splice" ]
  in
  let load header =
    let path = tmpfile () in
    Out_channel.with_open_bin path (fun oc ->
        output_string oc (String.concat "\n" (header @ records) ^ "\n"));
    let j = J.create ~resume:true path in
    let kept = List.tl (String.split_on_char '\n' (read_file path)) in
    Sys.remove path;
    (J.length j, List.length (J.quarantines j), J.skipped j, kept)
  in
  List.iter
    (fun (what, header) ->
      let entries, quarantines, skipped, kept = load header in
      Alcotest.(check (list int))
        (what ^ ": nothing loads, every record line skipped")
        [ 0; 0; 3 ] [ entries; quarantines; skipped ];
      Alcotest.(check (list string)) (what ^ ": the rewrite keeps no record") [ "" ] kept)
    [ ("untagged", []); ("v1", [ "# refine-journal v1" ]); ("v3", [ "# refine-journal v3" ]) ];
  let entries, quarantines, skipped, _ = load [ "# refine-journal v2" ] in
  Alcotest.(check (list int)) "v2: the v2 line and the quarantine load" [ 1; 1; 1 ]
    [ entries; quarantines; skipped ]

(* The same byte corruption on a rendered CSV file: loading must either
   raise [Csv.Parse_error] or return cells whose render is the corrupted
   file line for line — a corrupted row never loads as another cell.
   Counts, costs and sites have several digits, some cells are
   quarantined (their reason is free text), and half the masks turn the
   byte into a character the number readers or the field and line
   splitters treat specially. *)
let prop_csv_byte_corruption =
  let specials = [ '0'; '_'; '+'; '-'; 'x'; 'b'; 'o'; 'e'; '.'; ','; '\t'; '\n'; '\r'; ' ' ] in
  let cell =
    QCheck.Gen.(
      let* program = oneofl [ "CG"; "HPCCG-1.0"; "lulesh" ] in
      let* tool = oneofl [ T.Refine; T.Llfi; T.Pinfi ] in
      let* model = oneofl [ "reg"; "mem"; "instr"; "multi:13"; "burst:2"; "opcode" ] in
      let* crash = int_range 10 999 and* soc = int_range 10 999 and* benign = int_range 10 999 in
      let* tool_error = int_bound 20 and* sites = int_range 10 99_999 in
      let* dyn = int_range 100 999_999_999 and* pcost = int_range 100 999_999_999 in
      let* icost = int_range 100 999_999_999 in
      let* secs = list_repeat 4 (map (fun k -> float_of_int k /. 1e6) (int_bound 99_999_999)) in
      let* quarantined = opt (oneofl [ "mir-verifier: bad splice"; "nondeterministic-golden" ]) in
      let timing =
        match secs with
        | [ instrument_s; compile_s; execute_s; harness_s ] ->
          { E.instrument_s; compile_s; execute_s; harness_s }
        | _ -> E.zero_timing
      in
      return
        {
          E.program;
          tool;
          model = F.model_of_string model;
          samples = crash + soc + benign + tool_error;
          counts = { E.crash; soc; benign; tool_error };
          injection_cost = Int64.of_int icost;
          profile =
            {
              F.golden_output = "";
              golden_exit = 0;
              dyn_count = Int64.of_int dyn;
              profile_cost = Int64.of_int pcost;
            };
          static_instrumented = sites;
          failures = [];
          timing;
          quarantined;
        })
  in
  let gen =
    QCheck.Gen.(
      let* cells = list_size (int_range 1 3) cell in
      let* pos = int_bound 4095 in
      let* mask =
        oneof [ map (fun m -> `Mask m) (int_range 1 255); map (fun c -> `Into c) (oneofl specials) ]
      in
      return (Refine_campaign.Csv.to_string cells, pos, mask))
  in
  let print (csv, pos, mask) =
    Printf.sprintf "byte %d of %S %s" (pos mod String.length csv) csv
      (match mask with `Mask m -> Printf.sprintf "xor 0x%02x" m | `Into c -> Printf.sprintf "into %C" c)
  in
  let lines s = List.filter (fun l -> l <> "") (String.split_on_char '\n' s) in
  QCheck.Test.make ~name:"csv: a corrupted byte never loads as another cell" ~count:500
    (QCheck.make ~print gen)
    (fun (csv, pos, mask) ->
      let pos = pos mod String.length csv in
      let orig = Char.code csv.[pos] in
      let mask =
        match mask with
        | `Mask m -> m
        | `Into c -> if Char.code c = orig then 0xff else Char.code c lxor orig
      in
      let corrupted = Bytes.of_string csv in
      Bytes.set corrupted pos (Char.chr (orig lxor mask));
      let corrupted = Bytes.to_string corrupted in
      match Refine_campaign.Csv.of_string corrupted with
      | exception Refine_campaign.Csv.Parse_error _ -> true
      | cells -> lines (Refine_campaign.Csv.to_string cells) = lines corrupted)

(* The same byte corruption on a rendered span trace: every event
   [Tracefile.load] returns must render to one of the corrupted file's
   lines, in file order, and every other non-empty line must count as
   skipped or, for a final line without its newline, torn.  Times, costs
   and span ids have several digits, attribute values carry characters
   the string reader unescapes, some files hold a whitespace-only line,
   and half the masks turn the byte into a character the number or
   string readers or the line splitter treat specially. *)
let prop_trace_byte_corruption =
  let module Span = Refine_obs.Span in
  let specials =
    [ '0'; '+'; '-'; '.'; 'e'; 'E'; ' '; '\t'; '\n'; '"'; '\\'; ','; ':'; '}'; 'u' ]
  in
  let event =
    QCheck.Gen.(
      let* name = oneofl [ "sample"; "prepare"; "campaign.cell" ] in
      let* attrs =
        oneofl [ []; [ ("program", "CG"); ("tool", "REFINE") ]; [ ("note", "a\"b\\c\td") ] ]
      in
      let* secs = int_range 1_000_000_000 1_999_999_999 and* usecs = int_bound 999_999 in
      let* dur = int_bound 99_999_999 and* depth = int_bound 12 and* domain = int_bound 3 in
      let* span_id = int_range 1 (1 lsl 40) and* parent = int_bound (1 lsl 40) in
      let* cost = int_bound 999_999_999 and* ok = bool in
      let* trace = oneofl [ ""; "t-4242" ] in
      return
        {
          Span.name;
          attrs;
          t_start = float_of_int secs +. (float_of_int usecs /. 1e6);
          dur_s = float_of_int dur /. 1e6;
          depth;
          domain;
          cost = Int64.of_int cost;
          ok;
          trace;
          span_id;
          parent;
        })
  in
  let gen =
    QCheck.Gen.(
      let* events = list_size (int_range 1 3) event in
      let* blank = opt (oneofl [ " "; "\t"; "  " ]) in
      let lines = List.map Span.to_json events in
      let lines = match blank with Some b -> b :: lines | None -> lines in
      let* pos = int_bound 4095 in
      let* mask =
        oneof [ map (fun m -> `Mask m) (int_range 1 255); map (fun c -> `Into c) (oneofl specials) ]
      in
      return (String.concat "" (List.map (fun l -> l ^ "\n") lines), pos, mask))
  in
  let print (file, pos, mask) =
    Printf.sprintf "byte %d of %S %s" (pos mod String.length file) file
      (match mask with `Mask m -> Printf.sprintf "xor 0x%02x" m | `Into c -> Printf.sprintf "into %C" c)
  in
  (* [sub] occurs in [l] in order, each element matching a distinct line *)
  let rec ordered_in sub l =
    match (sub, l) with
    | [], _ -> true
    | _, [] -> false
    | x :: sub', y :: l' -> if x = y then ordered_in sub' l' else ordered_in sub l'
  in
  QCheck.Test.make ~name:"trace: a corrupted byte never loads as another event" ~count:500
    (QCheck.make ~print gen)
    (fun (file, pos, mask) ->
      let pos = pos mod String.length file in
      let orig = Char.code file.[pos] in
      let mask =
        match mask with
        | `Mask m -> m
        | `Into c -> if Char.code c = orig then 0xff else Char.code c lxor orig
      in
      let corrupted = Bytes.of_string file in
      Bytes.set corrupted pos (Char.chr (orig lxor mask));
      let corrupted = Bytes.to_string corrupted in
      let path = Filename.temp_file "refine_trace" ".jsonl" in
      Out_channel.with_open_bin path (fun oc -> output_string oc corrupted);
      let r = Refine_obs.Tracefile.load path in
      Sys.remove path;
      (* the pieces before the last newline are whole lines; the piece
         after it is empty or the torn tail *)
      let pieces = String.split_on_char '\n' corrupted in
      let last = List.length pieces - 1 in
      let whole = List.filteri (fun i l -> i < last && l <> "") pieces in
      let torn = corrupted.[String.length corrupted - 1] <> '\n' in
      let rendered = List.map Span.to_json r.Refine_obs.Tracefile.events in
      r.Refine_obs.Tracefile.torn = torn
      && ordered_in rendered whole
      && List.length rendered + r.Refine_obs.Tracefile.skipped = List.length whole)

(* ---- kill / resume determinism ----------------------------------------- *)

let counts_equal (a : E.cell) (b : E.cell) =
  a.E.counts = b.E.counts && a.E.injection_cost = b.E.injection_cost

let test_watchdog_kill_then_resume () =
  let samples = 12 and seed = 3 in
  let run ?journal ?watchdog ~domains () =
    E.run_cell ~domains ?journal ?watchdog ~samples ~seed T.Pinfi ~program:"tiny"
      ~source:src ()
  in
  let path = tmpfile () in
  let j = J.create path in
  let polls = ref 0 in
  let partial = run ~journal:j ~watchdog:(fun () -> incr polls; !polls > 5) ~domains:2 () in
  Alcotest.(check bool) "interrupted run is partial" true
    (E.attempted partial.E.counts < samples);
  let j2 = J.create ~resume:true path in
  let resumed = run ~journal:j2 ~domains:2 () in
  let fresh = run ~domains:1 () in
  Alcotest.(check bool) "resume == uninterrupted (counts + cost)" true
    (counts_equal resumed fresh);
  Sys.remove path

let prop_resume_deterministic =
  QCheck.Test.make ~name:"resume from any k-sample prefix is bit-identical" ~count:8
    QCheck.(triple (int_bound 1000) (int_bound 9) (int_range 1 3))
    (fun (seed, k, domains) ->
      let samples = 10 in
      let path_full = tmpfile () and path_part = tmpfile () in
      let j_full = J.create path_full in
      let full =
        E.run_cell ~domains ~journal:j_full ~samples ~seed T.Refine ~program:"tiny"
          ~source:src ()
      in
      (* simulate a crash after k checkpoints: keep only a k-entry prefix *)
      let kept = List.filteri (fun i _ -> i < k) (J.entries j_full) in
      let j_part = J.create path_part in
      List.iter (J.record j_part) kept;
      let j_resumed = J.create ~resume:true path_part in
      let resumed =
        E.run_cell ~domains:1 ~journal:j_resumed ~samples ~seed T.Refine ~program:"tiny"
          ~source:src ()
      in
      Sys.remove path_full;
      Sys.remove path_part;
      counts_equal full resumed)

(* ---- a resume loads only its own campaign's records -------------------- *)

let test_journal_identity () =
  let path = tmpfile () in
  let read () = In_channel.with_open_bin path In_channel.input_all in
  let refused what identity =
    match J.create ~identity ~resume:true path with
    | _ -> Alcotest.failf "%s: resumed" what
    | exception J.Other_campaign msg -> msg
  in
  (* an empty file records nothing to merge *)
  J.close (J.create ~identity:[ ("seed", "1") ] ~resume:true path);
  let j = J.create ~identity:[ ("seed", "1"); ("retries", "0") ] path in
  J.record j (entry 0 F.Crash 100L);
  J.close j;
  let before = read () in
  let msg = refused "other seed" [ ("seed", "2"); ("retries", "0") ] in
  Alcotest.(check bool) ("names the field: " ^ msg) true
    (String.ends_with ~suffix:"seed=1; this one has seed=2" msg);
  ignore (refused "a field the journal lacks" [ ("seed", "1"); ("retries", "0"); ("x", "1") ]);
  ignore (refused "a field the run lacks" [ ("seed", "1") ]);
  Alcotest.(check string) "a refused resume leaves the file as it was" before (read ());
  let j = J.create ~identity:[ ("seed", "1"); ("retries", "0") ] ~resume:true path in
  Alcotest.(check int) "the same identity resumes" 1 (J.length j);
  J.close j;
  (* a scratch journal records no identity, which no campaign resumes *)
  let j = J.create path in
  J.record j (entry 0 F.Crash 100L);
  J.close j;
  ignore (refused "no identity" [ ("seed", "1") ]);
  Alcotest.(check int) "record lines" 1 (J.record_lines path);
  Sys.remove path;
  Alcotest.(check int) "no file, no record lines" 0 (J.record_lines path)

let test_matrix_refuses_repeated_program () =
  let programs = [ ("tiny", src); ("other", src); ("tiny", src) ] in
  let raises name f =
    match f () with
    | _ -> Alcotest.failf "%s ran a repeated program" name
    | exception Invalid_argument msg ->
      if not (String.ends_with ~suffix:"program tiny is listed twice" msg) then
        Alcotest.failf "%s: %s" name msg
  in
  raises "Experiment.run_matrix" (fun () ->
      E.run_matrix ~samples:1 ~seed:1 programs [ T.Pinfi ]);
  raises "Coordinator.run_matrix" (fun () ->
      Refine_campaign.Coordinator.run_matrix ~samples:1 ~seed:1 programs [ T.Pinfi ])

(* [refinec campaign] on EP with [args]: exit code, stdout and stderr *)
let campaign args =
  let out = tmpfile () and err = tmpfile () in
  let code =
    Sys.command
      (Printf.sprintf "%s campaign --programs EP %s >%s 2>%s"
         (Filename.quote Test_integration.refinec) args
         (Filename.quote out) (Filename.quote err))
  in
  let read f =
    let s = In_channel.with_open_bin f In_channel.input_all in
    Sys.remove f;
    s
  in
  let stdout = read out in
  (code, stdout, read err)

(* the report without its wall-clock parts: the Figures 8/9 block and the
   bracketed progress lines *)
let deterministic_report out =
  let rec go skipping = function
    | [] -> []
    | l :: rest when String.starts_with ~prefix:"Figures 8/9" l -> go true rest
    | l :: rest when skipping -> go (l <> "") rest
    | l :: rest when String.starts_with ~prefix:"[" l -> go false rest
    | l :: rest -> l :: go false rest
  in
  String.concat "\n" (go false (String.split_on_char '\n' out))

let test_resume_refuses_other_campaign () =
  let j = tmpfile () in
  let code, _, _ = campaign (Printf.sprintf "--samples 4 --seed 3 --journal %s" j) in
  Alcotest.(check int) "recorded" 0 code;
  List.iter
    (fun (args, says) ->
      let code, _, err = campaign (Printf.sprintf "%s --journal %s --resume" args j) in
      Alcotest.(check int) args 2 code;
      if not (String.starts_with ~prefix:"bad --resume" err && Test_integration.contains err says)
      then Alcotest.failf "%s: stderr %S" args err)
    [ ("--samples 4 --seed 4", "seed=3; this one has seed=4"); ("--samples 4 --seed 3 -O O1", "pipeline=") ];
  (* more samples only add keys: the resume loads the journal's 12 and
     prints what a fresh run at 8 prints *)
  let m = tmpfile () in
  let code, resumed, _ =
    campaign (Printf.sprintf "--samples 8 --seed 3 --journal %s --resume --metrics-out %s" j m)
  in
  Alcotest.(check int) "more samples resume" 0 code;
  let metrics = In_channel.with_open_bin m In_channel.input_all in
  if not (Test_integration.contains metrics "refine_campaign_resumed_samples_total 12") then
    Alcotest.failf "the resume did not load the journal's samples: %s" metrics;
  let code, fresh, _ = campaign "--samples 8 --seed 3" in
  Alcotest.(check int) "fresh run" 0 code;
  Alcotest.(check string) "tables equal a fresh run's" (deterministic_report fresh)
    (deterministic_report resumed);
  Sys.remove j;
  Sys.remove m

let tests =
  [
    Alcotest.test_case "stable seed pinned" `Quick test_fnv1a_pinned;
    Alcotest.test_case "retry then success" `Quick test_retry_then_success;
    Alcotest.test_case "retry exhaustion" `Quick test_retry_exhaustion;
    Alcotest.test_case "watchdog skips remaining" `Quick test_watchdog_skips_remaining;
    Alcotest.test_case "in-flight cancellation" `Quick test_cancelled_inflight;
    Alcotest.test_case "sample budget watchdog" `Quick test_sample_budget_exceeded;
    Alcotest.test_case "watchdog -> ToolError" `Quick test_watchdog_expiry_degrades_to_tool_error;
    Alcotest.test_case "matrix survives broken cell" `Quick test_matrix_survives_broken_cell;
    Alcotest.test_case "reports survive degraded matrix" `Quick
      test_reports_survive_degraded_matrix;
    Alcotest.test_case "journal roundtrip" `Quick test_journal_roundtrip;
    Alcotest.test_case "journal skips garbage" `Quick test_journal_skips_garbage;
    QCheck_alcotest.to_alcotest prop_journal_byte_corruption;
    Alcotest.test_case "journal: an unknown version tag loads no records" `Quick
      test_journal_unknown_version;
    QCheck_alcotest.to_alcotest prop_csv_byte_corruption;
    QCheck_alcotest.to_alcotest prop_trace_byte_corruption;
    Alcotest.test_case "kill + resume determinism" `Quick test_watchdog_kill_then_resume;
    QCheck_alcotest.to_alcotest prop_resume_deterministic;
    Alcotest.test_case "journal: a resume needs the campaign's identity" `Quick
      test_journal_identity;
    Alcotest.test_case "matrix refuses a repeated program" `Quick
      test_matrix_refuses_repeated_program;
    Alcotest.test_case "refinec refuses a resume into another campaign" `Quick
      test_resume_refuses_other_campaign;
  ]
