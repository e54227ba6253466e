(* End-to-end integration scenarios across the whole stack: language
   feature combinations, runtime traps surfacing through compiled code,
   exit-code classification, inlining of stack-allocating callees,
   printing format guarantees, and the exit codes of the refinec CLI. *)

module F = Refine_minic.Frontend
module E = Refine_machine.Exec
module T = Refine_core.Tool
module Fa = Refine_core.Fault

let run ?(opt = Refine_passes.Pipeline.O2) src =
  let m = F.compile src in
  Refine_passes.Pipeline.optimize ~verify:true opt m;
  let image = Refine_passes.Pipeline.compile m in
  let eng = E.create image in
  E.run ~max_steps:200_000_000L eng

let check_output ?(opt = Refine_passes.Pipeline.O2) name src expected =
  let r = run ~opt src in
  (match r.E.status with
  | E.Exited 0 -> ()
  | E.Exited c -> Alcotest.fail (Printf.sprintf "%s: exit %d" name c)
  | E.Trapped tr -> Alcotest.fail (name ^ ": " ^ E.string_of_trap tr)
  | _ -> Alcotest.fail (name ^ ": did not finish"));
  Alcotest.(check string) name expected r.E.output

let test_deep_recursion_overflows () =
  (* unbounded recursion must hit the machine's stack guard, not loop *)
  let r =
    run {|
int down(int n) { return down(n + 1); }
int main() { return down(0); }
|}
  in
  match r.E.status with
  | E.Trapped E.Stack_overflow -> ()
  | _ -> Alcotest.fail "expected stack overflow"

let test_bounded_recursion_ok () =
  check_output "ackermann-ish recursion"
    {|
int ack(int m, int n) {
  if (m == 0) { return n + 1; }
  if (n == 0) { return ack(m - 1, 1); }
  return ack(m - 1, ack(m, n - 1));
}
int main() { print_int(ack(2, 3)); return 0; }
|}
    "9\n"

let test_exit_code_propagates () =
  let r = run {|int main() { exit(7); return 0; }|} in
  (match r.E.status with
  | E.Exited 7 -> ()
  | _ -> Alcotest.fail "expected exit 7");
  (* and a nonzero exit classifies as a crash *)
  let profile =
    { Fa.golden_output = ""; golden_exit = 0; dyn_count = 1L; profile_cost = 1L }
  in
  Alcotest.(check bool) "nonzero exit = crash" true
    (Fa.classify profile { E.status = r.E.status; output = r.E.output; steps = 0L; cost = 0L; truncated = false; detached = false; drain_steps = 0 }
     = Fa.Crash)

let test_division_trap_end_to_end () =
  let r = run {|
global int zero;
int main() { print_int(10 / zero); return 0; }
|} in
  match r.E.status with
  | E.Trapped E.Div_by_zero -> ()
  | _ -> Alcotest.fail "expected division trap through compiled code"

let test_heap_exhaustion () =
  let r =
    run
      {|
int main() {
  int i;
  for (i = 0; i < 100000; i = i + 1) {
    float[] chunk = alloc_float(65536);
    chunk[0] = 1.0;
  }
  return 0;
}
|}
  in
  match r.E.status with
  | E.Trapped (E.Extern_fault _) -> () (* alloc reports out of heap *)
  | _ -> Alcotest.fail "expected heap exhaustion"

let test_inlined_callee_with_local_array () =
  (* the inlined callee's array alloca is hoisted to the caller's entry;
     repeated calls must not leak stack or corrupt values *)
  check_output "inlined local array"
    {|
int table_sum(int k) {
  int t[4];
  int i;
  for (i = 0; i < 4; i = i + 1) { t[i] = k * (i + 1); }
  return t[0] + t[1] + t[2] + t[3];
}
int main() {
  int i; int acc = 0;
  for (i = 0; i < 2000; i = i + 1) { acc = acc + table_sum(i % 5); }
  print_int(acc);
  return 0;
}
|}
    (* 2000 calls, k cycles 0..4: 10 * 400 * (0+1+2+3+4) *)
    "40000\n"

let test_print_formats () =
  check_output "float formats"
    {|
int main() {
  print_float(0.1);
  print_float_full(0.1);
  print_float(1.0 / 0.0);
  print_float(0.0 / 0.0);
  print_int(-9223372036854775807 - 1);
  return 0;
}
|}
    (* 0.0/0.0 yields the negative quiet NaN on x86; printf renders "-nan" *)
    "0.1\n0.10000000000000001\ninf\n-nan\n-9223372036854775808\n"

let test_global_init_values () =
  check_output "global initializers"
    {|
global int a = -42;
global float b = 2.5;
global int c;
int main() { print_int(a); print_float(b); print_int(c); return 0; }
|}
    "-42\n2.5\n0\n"

let test_mixed_recursion_and_arrays () =
  check_output "quicksort"
    {|
global int data[16];
void qsort_(int lo, int hi) {
  if (lo >= hi) { return; }
  int pivot = data[(lo + hi) / 2];
  int i = lo; int j = hi;
  while (i <= j) {
    while (data[i] < pivot) { i = i + 1; }
    while (data[j] > pivot) { j = j - 1; }
    if (i <= j) {
      int t = data[i]; data[i] = data[j]; data[j] = t;
      i = i + 1; j = j - 1;
    }
  }
  qsort_(lo, j);
  qsort_(i, hi);
}
int main() {
  int i;
  int seed = 99;
  for (i = 0; i < 16; i = i + 1) {
    seed = (seed * 1103515245 + 12345) & 2147483647;
    data[i] = seed % 100;
  }
  qsort_(0, 15);
  for (i = 1; i < 16; i = i + 1) {
    if (data[i - 1] > data[i]) { print_str("UNSORTED"); }
  }
  int cksum = 0;
  for (i = 0; i < 16; i = i + 1) { cksum = cksum + data[i] * (i + 1); }
  print_int(cksum);
  return 0;
}
|}
    (* golden value; the absence of "UNSORTED" proves the order *)
    "9488\n"

let test_fi_on_trap_prone_program () =
  (* a program that indexes through memory: injections must never hang the
     harness and must produce all three outcome kinds across seeds *)
  let src =
    {|
global int idx[32];
global float v[32];
int main() {
  int i;
  for (i = 0; i < 32; i = i + 1) { idx[i] = (i * 7) % 32; v[i] = tofloat(i) * 0.5; }
  float s = 0.0;
  for (i = 0; i < 32; i = i + 1) { s = s + v[idx[i]]; }
  print_float_full(s);
  return 0;
}
|}
  in
  List.iter
    (fun kind ->
      let p = T.prepare kind src in
      for seed = 1 to 25 do
        ignore (T.run_injection p (Refine_support.Prng.create seed))
      done)
    [ T.Refine; T.Llfi; T.Pinfi ];
  Alcotest.(check pass) "no hangs" () ()

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let refinec = Filename.concat (Filename.dirname Sys.executable_name) "../bin/refinec.exe"

(* refinec's exit codes: 2 for a bad flag value (a numeric one outside
   its range too, rejected before any domain, process or socket exists),
   an unknown benchmark or an unreadable program, a name listed twice, a
   journal that would be overwritten or resumed into another campaign,
   1 for a quarantined cell, 124 (cmdliner's usage error) for an unknown
   option *)
let test_refinec_exit_codes () =
  (* a journal recorded at seed 1, and one that records no campaign
     identity *)
  let journal = Filename.temp_file "refinec" ".journal" in
  let code =
    Sys.command
      (Printf.sprintf "%s campaign --programs EP --samples 1 --seed 1 --journal %s >/dev/null"
         (Filename.quote refinec) (Filename.quote journal))
  in
  Alcotest.(check int) "journal recorded" 0 code;
  let anonymous = Filename.temp_file "refinec" ".journal" in
  Out_channel.with_open_bin anonymous (fun oc ->
      output_string oc "# refine-journal v2\nEP\tLLFI\t0\tSOC\t1\t1\treg\n");
  List.iter
    (fun (args, expected, says) ->
      let err = Filename.temp_file "refinec" ".err" in
      let code =
        Sys.command
          (Printf.sprintf "%s %s >/dev/null 2>%s" (Filename.quote refinec) args (Filename.quote err))
      in
      let stderr = In_channel.with_open_bin err In_channel.input_all in
      Sys.remove err;
      Alcotest.(check int) args expected code;
      if not (contains stderr says) then Alcotest.failf "%s: stderr %S" args stderr)
    [
      ("fi EP --fi-instrs bogus", 2, "bad --fi-instrs");
      ("fi EP --fault-model bogus", 2, "bad --fault-model");
      ("fi EP --fi-tool refine --fault-model opcode", 2, "bad --fault-model");
      ("fi EP --fi-tool pinfi --fi-funcs nosuch --samples 1", 1, "quarantined: empty-population");
      ("campaign --programs EP --samples 1 --no-verify-mir", 124, "no-verify-mir");
      ("campaign --programs NOSUCH --samples 1", 2, "bad --programs");
      ("fi nosuch.minc", 2, "cannot read");
      ("fi EP --samples 1 --no-artifact-cache", 124, "no-artifact-cache");
      ("campaign --programs EP --samples 1 --no-artifact-cache", 124, "no-artifact-cache");
      ("fi EP --samples=-3", 2, "bad --samples");
      ("fi EP --samples 0", 2, "bad --samples");
      ("campaign --programs EP --samples=-2", 2, "bad --samples");
      ("campaign --programs EP --samples 1 --workers=0", 2, "bad --workers");
      ("campaign --programs EP --samples 1 --workers=-1", 2, "bad --workers");
      ("campaign --programs EP --samples 1 --workers 65", 2, "bad --workers");
      ("campaign --programs EP --samples 1 --domains=0", 2, "bad --domains");
      ("campaign --programs EP --samples 1 --domains=-1", 2, "bad --domains");
      ("campaign --programs EP --samples 1 --domains 65", 2, "bad --domains");
      ("campaign --programs EP --samples 1 --status-port 70000", 2, "bad --status-port");
      ("campaign --programs EP --samples 1 --status-port=-1", 2, "bad --status-port");
      ("campaign --programs EP --samples 1 --output-quota=-5", 2, "bad --output-quota");
      ("campaign --programs EP --samples 1 --wall-clock=-1", 2, "bad --wall-clock");
      ("campaign --programs EP --samples 1 --wall-clock nan", 2, "bad --wall-clock");
      ("campaign --programs EP --samples 1 --livelock 0", 2, "bad --livelock");
      ("campaign --programs EP --samples 1 --retries=-1", 2, "bad --retries");
      ("campaign --programs EP --samples 1 --sample-timeout 0", 2, "bad --sample-timeout");
      ("campaign --programs EP,EP --samples 1", 2, "bad --programs: EP is listed twice");
      ("campaign --programs EP,DC,EP --samples 1 --workers 2", 2, "bad --programs");
      ("campaign --programs EP --samples 1 --fault-model reg,mem,reg", 2, "bad --fault-model");
      ("campaign --programs EP --samples 1 --resume", 2, "bad --resume");
      ( Printf.sprintf "campaign --programs EP --samples 1 --seed 1 --journal %s" journal,
        2,
        "bad --journal" );
      ( Printf.sprintf "campaign --programs EP --samples 1 --seed 2 --journal %s --resume" journal,
        2,
        "seed=1; this one has seed=2" );
      ( Printf.sprintf
          "campaign --programs EP --samples 1 --seed 1 --retries 1 --journal %s --resume \
           --workers 2"
          journal,
        2,
        "retries=0; this one has retries=1" );
      ( Printf.sprintf "campaign --programs EP --samples 1 --journal %s --resume" anonymous,
        2,
        "records no campaign identity" );
      ("campaign --programs EP --samples 1 --journal /nonexistent/j", 2, "bad --journal");
    ];
  Sys.remove journal;
  Sys.remove anonymous

(* the body of a plain HTTP/1.0 GET against the loopback status server *)
let http_get port path =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path in
      ignore (Unix.write_substring fd req 0 (String.length req));
      let buf = Buffer.create 1024 and b = Bytes.create 4096 in
      let rec go () =
        match Unix.read fd b 0 4096 with
        | 0 -> Buffer.contents buf
        | n ->
          Buffer.add_subbytes buf b 0 n;
          go ()
      in
      go ())

(* An in-process campaign (no --workers) answers /status while it runs:
   the progress JSON has the grid's sample total and no workers array,
   and the campaign still exits 0 with its report *)
let test_inprocess_status () =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Unix.create_process refinec
      [|
        refinec; "campaign"; "--programs"; "DC,EP"; "--samples"; "150"; "--seed"; "7";
        "--domains"; "1"; "--status-port"; "0";
      |]
      Unix.stdin out_w devnull
  in
  Unix.close out_w;
  Unix.close devnull;
  let ic = Unix.in_channel_of_descr out_r in
  let status =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let first = input_line ic in
        let port =
          try Scanf.sscanf first "[status: http://127.0.0.1:%d/status]" Fun.id
          with Scanf.Scan_failure _ | End_of_file -> Alcotest.failf "no status line: %S" first
        in
        let body = http_get port "/status" in
        (* drain the report so the campaign never blocks on a full pipe *)
        let report = In_channel.input_all ic in
        if not (contains report "Figure 5") then Alcotest.failf "no report: %S" report;
        body)
  in
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> Alcotest.fail "the campaign did not exit 0");
  List.iter
    (fun says ->
      if not (contains status says) then Alcotest.failf "/status lacks %s: %S" says status)
    [ "HTTP/1.0 200"; "\"finished\":false"; "\"samples_total\":900"; "\"cells_total\":6" ];
  if contains status "workers" then Alcotest.failf "an in-process /status lists workers: %S" status

(* [refinec campaign] prints the paper's whole evaluation section, in the
   paper's order, and its Table 6 counts are the CSV's *)
let test_campaign_report () =
  let csv = Filename.temp_file "refinec" ".csv" and out = Filename.temp_file "refinec" ".out" in
  let code =
    Sys.command
      (Printf.sprintf "%s campaign --programs DC,EP --samples 8 --seed 7 --csv %s >%s"
         (Filename.quote refinec) (Filename.quote csv) (Filename.quote out))
  in
  Alcotest.(check int) "exit code" 0 code;
  let report = In_channel.with_open_bin out In_channel.input_all in
  let rec index_from i sub =
    if i + String.length sub > String.length report then None
    else if String.sub report i (String.length sub) = sub then Some i
    else index_from (i + 1) sub
  in
  ignore
    (List.fold_left
       (fun from says ->
         match index_from from says with
         | Some i -> i + String.length says
         | None -> Alcotest.failf "no %S after byte %d of the report:\n%s" says from report)
       0
       [
         "Campaign: seed 7; 8 samples per cell, margin of error ±34.6% at 95%";
         "Figure 4 — DC";
         "PMF (stacked";
         "Figure 4 — EP";
         "PMF (stacked";
         "Table 4 — contingency table, LLFI vs PINFI (DC)";
         "Table 5";
         "LLFI significantly different from PINFI: ";
         "REFINE significantly different from PINFI: ";
         "Table 6";
         "Figure 5";
         "Listings 1 & 2";
         "\nDC ";
         "\nEP ";
       ]);
  (* Table 6's rows, "program tool crash | paper SOC | paper benign | paper",
     run from under its header and rule to the next blank line *)
  let rec after_table6 = function
    | l :: _header :: _rule :: rows when String.starts_with ~prefix:"Table 6" l -> rows
    | _ :: rest -> after_table6 rest
    | [] -> []
  in
  let rec until_blank = function "" :: _ | [] -> [] | l :: rest -> l :: until_blank rest in
  let rows =
    List.map
      (fun l ->
        match String.split_on_char ' ' l |> List.filter (( <> ) "") with
        | [ p; t; c; "|"; _; s; "|"; _; b; "|"; _ ] -> (p, t, List.map int_of_string [ c; s; b ])
        | _ -> Alcotest.failf "not a Table 6 row: %S" l)
      (until_blank (after_table6 (String.split_on_char '\n' report)))
  in
  Alcotest.(check int) "Table 6 rows" 6 (List.length rows);
  let cells = Refine_campaign.Csv.load csv in
  List.iter
    (fun (program, tool, counts) ->
      let c =
        Refine_campaign.Experiment.find_cell cells ~program
          ~tool:(Option.get (T.kind_of_name tool))
      in
      let n = c.Refine_campaign.Experiment.counts in
      Alcotest.(check (list int))
        (program ^ "/" ^ tool) counts
        Refine_campaign.Experiment.[ n.crash; n.soc; n.benign ])
    rows;
  Sys.remove csv;
  Sys.remove out

let tests =
  [
    Alcotest.test_case "deep recursion overflows" `Quick test_deep_recursion_overflows;
    Alcotest.test_case "bounded recursion" `Quick test_bounded_recursion_ok;
    Alcotest.test_case "exit code propagates" `Quick test_exit_code_propagates;
    Alcotest.test_case "division trap end-to-end" `Quick test_division_trap_end_to_end;
    Alcotest.test_case "heap exhaustion" `Quick test_heap_exhaustion;
    Alcotest.test_case "inlined callee with array" `Quick test_inlined_callee_with_local_array;
    Alcotest.test_case "print formats" `Quick test_print_formats;
    Alcotest.test_case "global initializers" `Quick test_global_init_values;
    Alcotest.test_case "quicksort" `Quick test_mixed_recursion_and_arrays;
    Alcotest.test_case "FI on trap-prone program" `Quick test_fi_on_trap_prone_program;
    Alcotest.test_case "refinec exit codes" `Quick test_refinec_exit_codes;
    Alcotest.test_case "in-process campaign answers /status" `Quick test_inprocess_status;
    Alcotest.test_case "campaign prints the paper's evaluation section" `Quick
      test_campaign_report;
  ]
