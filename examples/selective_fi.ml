(* Selective fault injection: the compiler-flag interface of the paper's
   Table 2 — -fi-funcs restricts instrumentation to given functions,
   -fi-instrs to instruction classes (stack / arithm / mem / all).

   The example shows how the selection changes the dynamic FI population
   and the outcome distribution, and demonstrates the structural gap at the
   IR level: LLFI has *zero* stack-class targets.

     dune exec examples/selective_fi.exe *)

module T = Refine_core.Tool
module F = Refine_core.Fault
module Sel = Refine_passes.Selection
module P = Refine_support.Prng
module Tbl = Refine_support.Table

let source =
  {|
global int n = 48;
global float xs[48];
global float ws[48];

float reduce(int m) {
  float s = 0.0;
  int i;
  for (i = 0; i < m; i = i + 1) { s = s + xs[i] * ws[i]; }
  return s;
}

void setup(int m) {
  int i;
  for (i = 0; i < m; i = i + 1) {
    xs[i] = tofloat(i % 11) * 0.3;
    ws[i] = 1.0 / tofloat(i + 1);
  }
}

int main() {
  int r;
  setup(n);
  float total = 0.0;
  for (r = 0; r < 6; r = r + 1) { total = total + reduce(n); }
  print_float(total);
  return 0;
}
|}

(* -O1: the -O2 inliner folds reduce and setup into main, which would
   leave -fi-funcs=reduce and -fi-funcs=setup with no target to run *)
let pipeline = Refine_passes.Pipeline.of_level Refine_passes.Pipeline.O1

let run_config name sel =
  let prepared = T.prepare ~pipeline ~sel T.Refine source in
  let rng = P.create 7 in
  let tally = ref (0, 0, 0) in
  let samples = 120 in
  for _ = 1 to samples do
    let e = T.run_injection prepared (P.split rng) in
    let c, s, b = !tally in
    tally :=
      (match e.F.outcome with
      | F.Crash -> (c + 1, s, b)
      | F.Soc -> (c, s + 1, b)
      | F.Benign -> (c, s, b + 1)
      | F.Tool_error -> (c, s, b))
  done;
  let c, s, b = !tally in
  [
    name;
    Int64.to_string prepared.T.profile.F.dyn_count;
    string_of_int prepared.T.static_instrumented;
    Printf.sprintf "%d/%d/%d" c s b;
  ]

let () =
  print_endline "== selective fault injection (Table 2 flags) ==";
  print_endline "tool: REFINE; 120 injections per configuration\n";
  let rows =
    [
      run_config "-fi-funcs=* -fi-instrs=all" Sel.default;
      run_config "-fi-funcs=reduce" Sel.{ funcs = [ "reduce" ]; instrs = All };
      run_config "-fi-funcs=setup" Sel.{ funcs = [ "setup" ]; instrs = All };
      run_config "-fi-instrs=arithm" Sel.{ funcs = [ "*" ]; instrs = Arith };
      run_config "-fi-instrs=mem" Sel.{ funcs = [ "*" ]; instrs = Mem };
      run_config "-fi-instrs=stack" Sel.{ funcs = [ "*" ]; instrs = Stack };
    ]
  in
  Tbl.print
    ~align:[ Tbl.Left; Tbl.Right; Tbl.Right; Tbl.Right ]
    ~header:[ "configuration"; "dyn targets"; "static sites"; "crash/SOC/benign" ]
    rows;
  (* the IR-level structural gap *)
  print_newline ();
  let llfi_stack =
    match T.prepare ~pipeline ~sel:Sel.{ funcs = [ "*" ]; instrs = Stack } T.Llfi source with
    | exception T.Quarantine (category, _) -> "quarantined as " ^ category
    | p -> Printf.sprintf "%Ld dynamic targets" p.T.profile.F.dyn_count
  in
  Printf.printf
    "LLFI with -fi-instrs=stack: %s — the IR has no stack\n\
     management instructions at all (paper §3.3.1 / Table 1).\n"
    llfi_stack
