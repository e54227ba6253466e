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

(* refinec's exit codes: 2 for a bad flag value, 1 for a quarantined
   cell, 124 (cmdliner's usage error) for an unknown option *)
let test_refinec_exit_codes () =
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  let refinec = Filename.concat (Filename.dirname Sys.executable_name) "../bin/refinec.exe" in
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
    ]

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
  ]
