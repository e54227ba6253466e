(* CSV export/import of campaign results, so long campaigns can be archived
   and re-analyzed without re-running (the paper's 44,856-experiment matrix
   took cluster time; ours persists to a file).

   The current schema appends the fault-model columns ([fault_model],
   [bits], DESIGN.md §18); [of_string] also accepts the pre-model 17-column
   header, loading such rows as Reg_bit cells, so archived campaigns stay
   readable forever.

   A row loads only if it renders back to exactly itself.  OCaml's number
   readers accept more than this writer emits ([1_], [+7], [0x5], [01],
   [0x1p3], ...), so one corrupted byte could otherwise load as another
   count; requiring the render makes every loaded cell the one that wrote
   its line, and anything else a [Parse_error]. *)

module E = Experiment
module T = Refine_core.Tool
module F = Refine_core.Fault

let header =
  "program,tool,fault_model,bits,samples,crash,soc,benign,tool_error,dyn_count,profile_cost,injection_cost,static_sites,instrument_s,compile_s,execute_s,harness_s,quarantined,quarantine_reason"

(* the pre-model schema (v1): no fault_model/bits columns *)
let legacy_header =
  "program,tool,samples,crash,soc,benign,tool_error,dyn_count,profile_cost,injection_cost,static_sites,instrument_s,compile_s,execute_s,harness_s,quarantined,quarantine_reason"

(* reasons must stay a single CSV field; Journal.record_quarantine already
   sanitized journaled ones, but cells can also arrive directly *)
let sanitize_reason s =
  String.map (function ',' | '\n' | '\r' | '\t' -> ' ' | c -> c) s

(* one row, in the current schema or (without the model columns) the
   legacy one *)
let render ~legacy (c : E.cell) =
  let secs = Printf.sprintf "%.6f" in
  String.concat ","
    ([ c.E.program; T.kind_name c.E.tool ]
    @ (if legacy then []
       else [ F.string_of_model c.E.model; string_of_int (F.model_bits c.E.model) ])
    @ [
        string_of_int c.E.samples;
        string_of_int c.E.counts.E.crash;
        string_of_int c.E.counts.E.soc;
        string_of_int c.E.counts.E.benign;
        string_of_int c.E.counts.E.tool_error;
        Int64.to_string c.E.profile.Refine_core.Fault.dyn_count;
        Int64.to_string c.E.profile.Refine_core.Fault.profile_cost;
        Int64.to_string c.E.injection_cost;
        string_of_int c.E.static_instrumented;
        secs c.E.timing.E.instrument_s;
        secs c.E.timing.E.compile_s;
        secs c.E.timing.E.execute_s;
        secs c.E.timing.E.harness_s;
        (match c.E.quarantined with Some _ -> "1" | None -> "0");
        (match c.E.quarantined with Some r -> sanitize_reason r | None -> "");
      ])

let row_of_cell = render ~legacy:false

let to_string (cells : E.cell list) =
  String.concat "\n" (header :: List.map row_of_cell cells) ^ "\n"

let save path cells =
  let oc = open_out path in
  output_string oc (to_string cells);
  close_out oc

exception Parse_error of string

(* [kind_of_name] ignores case; the render check in [of_string] still
   rejects any spelling but [kind_name]'s *)
let tool_of_name s =
  match T.kind_of_name s with Some kind -> kind | None -> raise (Parse_error ("unknown tool " ^ s))

let model_of_name s =
  try F.model_of_string s
  with Invalid_argument _ -> raise (Parse_error ("unknown fault model " ^ s))

(* Parses rows back into cells.  The golden output is not persisted (it can
   be arbitrarily large); reloaded profiles carry an empty golden output and
   are suitable for statistics, not for re-running injections. *)
let of_string (s : string) : E.cell list =
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
  match lines with
  | [] -> []
  | hdr :: rows ->
    let legacy =
      if hdr = header then false
      else if hdr = legacy_header then true
      else raise (Parse_error "unexpected CSV header")
    in
    let cell ~program ~tool ~model ~samples ~crash ~soc ~benign ~tool_error ~dyn ~pcost
        ~icost ~sites ~instr_s ~comp_s ~exec_s ~harn_s ~quarantined ~reason =
      {
        E.program;
        tool = tool_of_name tool;
        model;
        samples = int_of_string samples;
        counts =
          {
            E.crash = int_of_string crash;
            soc = int_of_string soc;
            benign = int_of_string benign;
            tool_error = int_of_string tool_error;
          };
        injection_cost = Int64.of_string icost;
        profile =
          {
            Refine_core.Fault.golden_output = "";
            golden_exit = 0;
            dyn_count = Int64.of_string dyn;
            profile_cost = Int64.of_string pcost;
          };
        static_instrumented = int_of_string sites;
        failures = [];
        timing =
          {
            E.instrument_s = float_of_string instr_s;
            compile_s = float_of_string comp_s;
            execute_s = float_of_string exec_s;
            harness_s = float_of_string harn_s;
          };
        quarantined = (if int_of_string quarantined <> 0 then Some reason else None);
      }
    in
    let parse line =
      match (legacy, String.split_on_char ',' line) with
      | ( false,
          [
            program; tool; model; _bits; samples; crash; soc; benign; tool_error; dyn; pcost;
            icost; sites; instr_s; comp_s; exec_s; harn_s; quarantined; reason;
          ] ) ->
        (* [bits] is derivable from the model string; the render check
           below validates it *)
        cell ~program ~tool ~model:(model_of_name model) ~samples ~crash ~soc ~benign
          ~tool_error ~dyn ~pcost ~icost ~sites ~instr_s ~comp_s ~exec_s ~harn_s ~quarantined
          ~reason
      | ( true,
          [
            program; tool; samples; crash; soc; benign; tool_error; dyn; pcost; icost; sites;
            instr_s; comp_s; exec_s; harn_s; quarantined; reason;
          ] ) ->
        cell ~program ~tool ~model:F.Reg_bit ~samples ~crash ~soc ~benign ~tool_error ~dyn
          ~pcost ~icost ~sites ~instr_s ~comp_s ~exec_s ~harn_s ~quarantined ~reason
      | _ -> raise (Parse_error ("bad CSV row: " ^ line))
    in
    List.map
      (fun line ->
        match parse line with
        | exception Failure _ -> raise (Parse_error ("bad CSV field: " ^ line))
        | c when render ~legacy c = line -> c
        | _ -> raise (Parse_error ("CSV row does not render back to itself: " ^ line)))
      rows

let load path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  of_string s
