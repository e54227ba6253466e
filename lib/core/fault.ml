(* Fault records and outcome classification (paper §4.3.2, Figure 3b).

   A fault log entry records which dynamic instruction, output operand and
   bit were hit — "for reference and repeatability".  Outcomes:

   - Crash: the run trapped (segfault, illegal pc, ...), returned a nonzero
     exit code, or exceeded 10x the profiled execution time (timeout);
   - SOC (silent output corruption): final output differs from the golden
     output of the fault-free profiling run;
   - Benign: the fault had no observable effect. *)

type record = {
  dyn_index : int64; (* 1-based dynamic index of the faulted instruction *)
  op_index : int; (* which output operand *)
  reg_name : string;
  bit : int;
}

(* Fault models (DESIGN.md §18): what state the transient fault strikes at
   the chosen dynamic trigger instance.  [Reg_bit] is the paper's model
   (one bit of one output operand); the others bring the gpuFI-4/InjectV
   fault-target dimension into the campaign matrix: data-memory cells,
   the loaded code image, and multi-bit register upsets (k independent
   bits, or a contiguous burst).  [Opcode] is the paper's §4.5 valid-opcode
   corruption; unlike the others it has a population of its own. *)
type model =
  | Reg_bit
  | Mem_cell
  | Instr_image
  | Multi_bit of { bits : int; burst : bool }
  | Opcode

let string_of_model = function
  | Reg_bit -> "reg"
  | Mem_cell -> "mem"
  | Instr_image -> "instr"
  | Opcode -> "opcode"
  | Multi_bit { bits; burst } ->
    Printf.sprintf "%s:%d" (if burst then "burst" else "multi") bits

let model_of_string s =
  let bad () = invalid_arg ("Fault.model_of_string: " ^ s) in
  match String.split_on_char ':' s with
  | [ "reg" ] -> Reg_bit
  | [ "mem" ] -> Mem_cell
  | [ "instr" ] -> Instr_image
  | [ "opcode" ] -> Opcode
  | [ ("multi" | "burst") as kind; k ] -> (
    match int_of_string_opt k with
    | Some bits when bits >= 1 && bits <= 64 -> Multi_bit { bits; burst = kind = "burst" }
    | _ -> bad ())
  | _ -> bad ()

(* the [bits] column of the campaign CSV: flipped bits per fault *)
let model_bits = function
  | Multi_bit { bits; _ } -> bits
  | Reg_bit | Mem_cell | Instr_image | Opcode -> 1

(* Tool_error is not part of the paper's outcome taxonomy: it marks a
   harness-side failure (worker exception, retry exhaustion, watchdog
   kill), so the sample degrades the achieved n instead of polluting the
   crash/SOC/benign contingency rows. *)
type outcome = Crash | Soc | Benign | Tool_error

let string_of_outcome = function
  | Crash -> "crash"
  | Soc -> "SOC"
  | Benign -> "benign"
  | Tool_error -> "tool-error"

let outcome_of_string = function
  | "crash" -> Crash
  | "SOC" -> Soc
  | "benign" -> Benign
  | "tool-error" -> Tool_error
  | s -> invalid_arg ("Fault.outcome_of_string: " ^ s)

let string_of_record r =
  Printf.sprintf "dyn=%Ld op=%d reg=%s bit=%d" r.dyn_index r.op_index r.reg_name r.bit

type profile = {
  golden_output : string;
  golden_exit : int;
  dyn_count : int64; (* size of the tool's injection population *)
  profile_cost : int64; (* modeled time of the profiling run *)
}

type experiment = {
  outcome : outcome;
  run_cost : int64;
  fault : record option; (* None when the target was never reached *)
}

(* Quota traps (Output_quota/Heap_quota/Wall_clock/Livelock) fall under
   Trapped and classify as Crash deterministically, like the paper's own
   10x timeout.  A truncated output can never certify a golden match:
   even if the run somehow exits cleanly after the cut, the sample is a
   Crash (the sandbox, not the program, ended its output). *)
let classify (p : profile) (r : Refine_machine.Exec.result) : outcome =
  if r.truncated then Crash
  else
    match r.status with
    | Refine_machine.Exec.Trapped _ | Refine_machine.Exec.Timed_out -> Crash
    | Refine_machine.Exec.Exited code ->
      if code <> p.golden_exit then Crash
      else if r.output <> p.golden_output then Soc
      else Benign
    | Refine_machine.Exec.Running -> Crash
