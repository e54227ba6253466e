(* refinec — command-line driver for the REFINE toolchain.

   Mirrors the paper's user-level workflow (§4.3/§4.4): the compiler flags
   of Table 2 select what gets instrumented, profiling produces the dynamic
   instruction count and golden output, and injection runs classify
   outcomes.

     refinec run prog.minc                         compile and execute
     refinec emit prog.minc --stage ir|asm         print IR or assembly
     refinec fi prog.minc --fi-tool refine \
        --fi-funcs '*' --fi-instrs all \
        --samples 100 --seed 7                      an FI campaign cell
     refinec campaign --programs all --samples 1068 \
        --seed 20170712 --retries 1                 the paper's whole evaluation
     refinec passes --list                          dump the pass registry
     refinec bench                                  list Table 3 programs *)

open Cmdliner
module Pl = Refine_passes.Pipeline

(* when spawned by a shard coordinator this process IS the worker: serve
   frames on stdin/stdout and exit before cmdliner ever parses argv *)
let () = Refine_campaign.Worker.maybe_exec ()

(* a PROG that is neither a benchmark nor a readable file is a usage
   error *)
let read_source path =
  match Refine_bench_progs.Registry.all
        |> List.find_opt (fun b -> b.Refine_bench_progs.Registry.name = path)
  with
  | Some b -> b.Refine_bench_progs.Registry.source
  | None -> (
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error msg ->
      Printf.eprintf "cannot read %s\n" msg;
      exit 2)

(* A numeric flag outside its range is a usage error, rejected before the
   command creates any domain, process or socket. *)
let in_range flag ~lo ~hi v =
  if v < lo || v > hi then begin
    if hi = max_int then Printf.eprintf "bad --%s: %d is below %d\n" flag v lo
    else Printf.eprintf "bad --%s: %d is outside [%d, %d]\n" flag v lo hi;
    exit 2
  end

(* ceilings for the campaign's parallelism: OCaml 5.1 runs at most 128
   domains in a process, and every worker is a forked process *)
let max_domains = 64
let max_workers = 64

(* common args *)
let src_arg =
  Arg.(required & pos 0 (some string) None
       & info [] ~docv:"PROG" ~doc:"MinC source file, or a Table 3 benchmark name (e.g. HPCCG-1.0).")

let opt_arg =
  Arg.(value & opt string "O2" & info [ "O" ] ~docv:"LEVEL" ~doc:"Optimization level: O0, O1 or O2.")

let parse_opt s = Pl.level_of_string s

let passes_arg =
  Arg.(value & opt (some string) None
       & info [ "passes" ] ~docv:"PIPELINE"
           ~doc:"Explicit compile pipeline as a comma-separated pass list (e.g. \
                 $(b,mem2reg,sccp,dce,isel,regalloc,frame,peephole,layout)); overrides $(b,-O).  \
                 See $(b,refinec passes --list) for the registry.")

let verify_each_arg =
  Arg.(value & flag
       & info [ "verify-each" ]
           ~doc:"Interleave verification after every pipeline pass: the IR verifier after each \
                 IR pass, the MIR verifier after each MIR pass (including the instrumented-code \
                 check once an FI splice is in place).")

(* -O alias unless --passes overrides; parse errors are usage errors *)
let spec_of opt passes =
  match passes with
  | None -> Pl.of_level (parse_opt opt)
  | Some s -> (
    try Pl.parse s
    with Pl.Parse_error msg ->
      Printf.eprintf "bad --passes: %s\n" msg;
      exit 2)

(* ---- run ---- *)

let run_cmd =
  let trace_flag =
    Arg.(value & flag
         & info [ "trace" ] ~doc:"Keep a ring buffer of executed instructions and print it on exit.")
  in
  let action src opt passes verify_each trace =
    let m = Refine_minic.Frontend.compile (read_source src) in
    let out = Pl.run ~verify_each (Pl.ensure_layout (spec_of opt passes)) m in
    let image = Option.get out.Pl.image in
    let eng = Refine_machine.Exec.create image in
    Refine_machine.Exec.install_decoded eng (Some (Refine_machine.Exec.decode image));
    let tracer =
      if trace then begin
        let t = Refine_machine.Trace.create ~capacity:24 () in
        Refine_machine.Trace.attach t eng;
        Some t
      end
      else None
    in
    let r = Refine_machine.Exec.run eng in
    print_string r.Refine_machine.Exec.output;
    (match tracer with
    | Some t -> prerr_string (Refine_machine.Trace.render t)
    | None -> ());
    match r.Refine_machine.Exec.status with
    | Refine_machine.Exec.Exited c ->
      Printf.eprintf "[exit %d; %Ld instructions]\n" c r.Refine_machine.Exec.steps;
      exit c
    | Refine_machine.Exec.Trapped tr ->
      Printf.eprintf "[trap: %s]\n" (Refine_machine.Exec.string_of_trap tr);
      exit 139
    | _ ->
      Printf.eprintf "[did not finish]\n";
      exit 124
  in
  Cmd.v (Cmd.info "run" ~doc:"Compile a MinC program and execute it on the SX64 simulator.")
    Term.(const action $ src_arg $ opt_arg $ passes_arg $ verify_each_arg $ trace_flag)

(* ---- emit ---- *)

let emit_cmd =
  let stage =
    Arg.(value & opt string "asm"
         & info [ "stage" ] ~docv:"STAGE" ~doc:"What to print: ir, asm, or asm-fi (REFINE-instrumented).")
  in
  let action src opt passes verify_each stage =
    let m = Refine_minic.Frontend.compile (read_source src) in
    let spec = { (spec_of opt passes) with Pl.layout = false } in
    let mir_of spec =
      (Pl.run ~verify_each { spec with Pl.isel = true; layout = false } m).Pl.funcs
    in
    match stage with
    | "ir" ->
      ignore (Pl.run_ir ~verify_each spec m);
      print_string (Refine_ir.Printer.string_of_module m)
    | "asm" ->
      List.iter (fun f -> print_string (Refine_mir.Mprinter.string_of_func f)) (mir_of spec)
    | "asm-fi" ->
      let out = Pl.run ~verify_each { (Pl.append_mir spec "refine-fi") with Pl.layout = false } m in
      Printf.printf "; REFINE: %d instrumented sites\n" out.Pl.fi_sites;
      List.iter (fun f -> print_string (Refine_mir.Mprinter.string_of_func f)) out.Pl.funcs
    | s -> Printf.eprintf "unknown stage %s (use ir, asm, asm-fi)\n" s; exit 2
  in
  Cmd.v (Cmd.info "emit" ~doc:"Print the IR or the SX64 assembly of a program.")
    Term.(const action $ src_arg $ opt_arg $ passes_arg $ verify_each_arg $ stage)

(* ---- fi ---- *)

let fi_cmd =
  let tool =
    Arg.(value & opt string "refine"
         & info [ "fi-tool" ] ~docv:"TOOL"
             ~doc:"Fault injector: refine, llfi or pinfi.")
  in
  let funcs =
    Arg.(value & opt string "*"
         & info [ "fi-funcs" ] ~docv:"NAMES"
             ~doc:"Comma-separated function names to instrument ('*' = all); paper Table 2.")
  in
  let instrs =
    Arg.(value & opt string "all"
         & info [ "fi-instrs" ] ~docv:"CLASS"
             ~doc:"Instruction classes: stack, arithm, mem or all; paper Table 2.")
  in
  let samples =
    Arg.(value & opt int 100 & info [ "samples" ] ~docv:"N" ~doc:"Number of FI experiments.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.") in
  let fault_model =
    Arg.(value & opt string "reg"
         & info [ "fault-model" ] ~docv:"MODEL"
             ~doc:"What state each fault strikes: $(b,reg) (single register bit, the paper's \
                   model), $(b,mem) (one bit of a data memory cell), $(b,instr) (the in-flight \
                   instruction image), $(b,multi:K) (K independent register bits per fault), \
                   $(b,burst:K) (K adjacent register bits) or $(b,opcode) (a valid alternative \
                   opcode for the rest of the run, the paper's par. 4.5 extension; PINFI only).")
  in
  let action src tool funcs instrs samples seed fault_model opt passes verify_each =
    in_range "samples" ~lo:1 ~hi:max_int samples;
    let model =
      try Refine_core.Fault.model_of_string fault_model
      with Invalid_argument msg -> Printf.eprintf "bad --fault-model: %s\n" msg; exit 2
    in
    let kind =
      match Refine_core.Tool.kind_of_name tool with
      | Some kind -> kind
      | None -> Printf.eprintf "unknown tool %s\n" tool; exit 2
    in
    Option.iter
      (fun reason -> Printf.eprintf "bad --fault-model: %s\n" reason; exit 2)
      (Refine_core.Tool.model_unsupported kind model);
    let module Sel = Refine_core.Tool.Selection in
    let instrs =
      try Sel.instr_class_of_string instrs
      with Invalid_argument msg -> Printf.eprintf "bad --fi-instrs: %s\n" msg; exit 2
    in
    let sel = { Sel.funcs = String.split_on_char ',' funcs |> List.map String.trim; instrs } in
    let cell =
      (* a golden run that traps or exits non-zero leaves nothing to
         classify against *)
      try
        Refine_campaign.Experiment.run_cell ~sel ~model ~pipeline:(spec_of opt passes)
          ~verify_each ~samples ~seed kind ~program:src ~source:(read_source src) ()
      with Refine_core.Tool.Prepare_error reason ->
        Printf.eprintf "cannot profile: %s\n" reason;
        exit 1
    in
    let module E = Refine_campaign.Experiment in
    Option.iter
      (fun reason -> Printf.eprintf "quarantined: %s\n" reason; exit 1)
      cell.E.quarantined;
    Printf.printf "tool: %s   program: %s   fault model: %s\n"
      (Refine_core.Tool.kind_name kind) src
      (Refine_core.Fault.string_of_model model);
    Printf.printf "dynamic FI targets: %Ld   static sites: %d\n"
      cell.E.profile.Refine_core.Fault.dyn_count cell.E.static_instrumented;
    Printf.printf "samples: %d   (margin of error ±%.1f%% at 95%%)\n" samples
      (100.0 *. Refine_stats.Samplesize.margin_of ~samples ~confidence:0.95 ());
    Printf.printf "crash: %d   SOC: %d   benign: %d\n" cell.E.counts.E.crash cell.E.counts.E.soc
      cell.E.counts.E.benign;
    if cell.E.counts.E.tool_error > 0 then
      Printf.printf "tool errors (excluded from contingency rows): %d\n"
        cell.E.counts.E.tool_error;
    Printf.printf "campaign cost: %Ld units\n" cell.E.injection_cost
  in
  Cmd.v
    (Cmd.info "fi"
       ~doc:"Run a fault-injection campaign cell (profiling + N classified injections).")
    Term.(const action $ src_arg $ tool $ funcs $ instrs $ samples $ seed $ fault_model
          $ opt_arg $ passes_arg $ verify_each_arg)

(* ---- passes ---- *)

let passes_cmd =
  let list_flag =
    Arg.(value & flag
         & info [ "list" ]
             ~doc:"List the registered passes and the effective pipeline of each $(b,-O) level \
                   (the default action).")
  in
  let action _list =
    print_endline "registered passes (usable in --passes):";
    List.iter
      (fun (p : Refine_passes.Pass.t) ->
        Printf.printf "  %-16s %-4s %s%s\n" p.Refine_passes.Pass.name
          (Refine_passes.Pass.layer_name p.Refine_passes.Pass.layer)
          p.Refine_passes.Pass.descr
          (if p.Refine_passes.Pass.fi then "  [FI]" else ""))
      (Refine_passes.Pass.all ());
    print_endline "  isel             --   lower IR to machine code (structural, always available)";
    print_endline "  layout           --   emit the executable image (structural, must be last)";
    print_endline "";
    print_endline "effective pipeline per -O level:";
    List.iter
      (fun level ->
        Printf.printf "  -%-3s %s\n" (Pl.string_of_level level) (Pl.print (Pl.of_level level)))
      [ Pl.O0; Pl.O1; Pl.O2 ];
    print_endline "";
    print_endline "FI placement per tool (at -O2; paper Figure 1):";
    List.iter
      (fun kind ->
        Printf.printf "  %-7s %s\n"
          (Refine_core.Tool.kind_name kind)
          (Pl.print (Refine_core.Tool.pipeline_for kind (Pl.of_level Pl.O2))))
      [ Refine_core.Tool.Refine; Refine_core.Tool.Llfi; Refine_core.Tool.Pinfi ]
  in
  Cmd.v
    (Cmd.info "passes"
       ~doc:"Dump the pass registry: every registered pass with its layer and description, the \
             effective pipeline of each $(b,-O) level, and where each tool's FI pass plugs in.")
    Term.(const action $ list_flag)

(* ---- bench ---- *)

let bench_cmd =
  let action () =
    print_endline "Table 3 benchmark programs (usable as PROG in run/emit/fi):";
    List.iter
      (fun (b : Refine_bench_progs.Registry.bench) ->
        Printf.printf "  %-10s %s\n" b.Refine_bench_progs.Registry.name
          b.Refine_bench_progs.Registry.input)
      Refine_bench_progs.Registry.all
  in
  Cmd.v (Cmd.info "bench" ~doc:"List the built-in Table 3 benchmark programs.")
    Term.(const action $ const ())

(* ---- campaign ---- *)

let campaign_cmd =
  let programs =
    Arg.(value & opt string "all"
         & info [ "programs" ] ~docv:"NAMES"
             ~doc:"Comma-separated Table 3 benchmark names, or 'all'.")
  in
  let samples =
    Arg.(value & opt int 200 & info [ "samples" ] ~docv:"N" ~doc:"Experiments per cell.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.") in
  let fault_models =
    Arg.(value & opt string "reg"
         & info [ "fault-model" ] ~docv:"MODELS"
             ~doc:"Comma-separated fault models to run the matrix under: $(b,reg) (single \
                   register bit, the paper's model), $(b,mem) (memory-cell bit), $(b,instr) \
                   (instruction-image corruption), $(b,multi:K) and $(b,burst:K) (K-bit \
                   register faults).  Each model runs the full (program, tool) grid; the \
                   report renders one Table 5/6 section per model and the CSV tags every \
                   row with its model.  $(b,opcode) runs on PINFI only, so it is rejected \
                   here; use $(b,refinec fi --fi-tool pinfi --fault-model opcode).")
  in
  let csv =
    Arg.(value & opt (some string) None
         & info [ "csv" ] ~docv:"FILE" ~doc:"Also write the cells to a CSV file.")
  in
  let journal =
    Arg.(value & opt (some string) None
         & info [ "journal" ] ~docv:"FILE"
             ~doc:"Checkpoint every resolved sample to FILE (atomic tmp-rename flushes), so an \
                   interrupted campaign can be resumed with $(b,--resume).  FILE's header records \
                   the campaign's identity; a FILE that already holds records is refused \
                   without $(b,--resume).")
  in
  let resume =
    Arg.(value & flag
         & info [ "resume" ]
             ~doc:"Resume from an existing $(b,--journal) file: samples already recorded are \
                   loaded instead of re-run.  Counts are bit-identical to an uninterrupted run \
                   with the same seed.  The journal must record this campaign's identity: the \
                   same $(b,--seed), pipeline ($(b,-O)/$(b,--passes)), $(b,--verify-each), \
                   $(b,--output-quota), $(b,--sample-timeout) and $(b,--retries).  \
                   $(b,--samples), $(b,--programs) and $(b,--fault-model) may change.")
  in
  let retries =
    Arg.(value & opt int 0
         & info [ "retries" ] ~docv:"N"
             ~doc:"Retry a failing sample up to N extra times with a fresh deterministic PRNG \
                   split before recording it as a tool error.")
  in
  let sample_timeout =
    Arg.(value & opt (some int64) None
         & info [ "sample-timeout" ] ~docv:"COST"
             ~doc:"Watchdog: kill any sample exceeding COST modeled-cost units (below the \
                   paper's 10x timeout) and record it as a tool error after the retry budget.")
  in
  let domains =
    Arg.(value & opt (some int) None
         & info [ "domains" ] ~docv:"D"
             ~doc:(Printf.sprintf "Worker domains, 1 to %d (default: cores - 1)." max_domains))
  in
  let workers =
    Arg.(value & opt (some int) None
         & info [ "workers" ] ~docv:"W"
             ~doc:(Printf.sprintf
                     "Shard the campaign over W worker processes, 1 to %d (this executable \
                      re-exec'd), with heartbeats, crash recovery and work stealing instead of \
                      in-process domains.  Results are bit-identical to $(b,--domains) for the \
                      same seed."
                     max_workers))
  in
  let metrics_out =
    Arg.(value & opt (some string) None
         & info [ "metrics-out" ] ~docv:"FILE"
             ~doc:"Enable observability and write the merged metrics registry to FILE in \
                   Prometheus text exposition format when the campaign finishes.")
  in
  let trace_out =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
             ~doc:"Enable observability and stream span/phase trace events to FILE as \
                   append-only JSONL (one event object per line).")
  in
  let output_quota =
    Arg.(value & opt (some int) None
         & info [ "output-quota" ] ~docv:"BYTES"
             ~doc:"Sandbox: absolute per-sample output cap in bytes (default: 16x the golden \
                   output, 4 KiB floor).  A tripped quota classifies as a crash.")
  in
  let status_port =
    Arg.(value & opt (some int) None
         & info [ "status-port" ] ~docv:"PORT"
             ~doc:"Serve live campaign status on 127.0.0.1:PORT for the duration of the run \
                   (0 = kernel-assigned, printed at startup): $(b,/status) (progress JSON with \
                   per-worker liveness, rolling samples/s and ETA), $(b,/metrics) (Prometheus \
                   text) and $(b,/healthz).  Implies observability.")
  in
  let action programs samples seed fault_models csv journal resume retries sample_timeout
      domains workers metrics_out trace_out status_port output_quota opt passes verify_each =
    let module Rep = Refine_campaign.Report in
    let module E = Refine_campaign.Experiment in
    let module J = Refine_campaign.Journal in
    in_range "samples" ~lo:1 ~hi:max_int samples;
    in_range "retries" ~lo:0 ~hi:max_int retries;
    Option.iter
      (fun c ->
        if c < 1L then begin
          Printf.eprintf "bad --sample-timeout: %Ld is below 1\n" c;
          exit 2
        end)
      sample_timeout;
    Option.iter (in_range "domains" ~lo:1 ~hi:max_domains) domains;
    Option.iter (in_range "workers" ~lo:1 ~hi:max_workers) workers;
    Option.iter (in_range "status-port" ~lo:0 ~hi:65535) status_port;
    Option.iter (in_range "output-quota" ~lo:1 ~hi:max_int) output_quota;
    (* a name listed twice would run its cells twice, and with a journal
       the copy would resume from the original's records *)
    let rec no_repeats flag show = function
      | [] -> ()
      | x :: rest ->
        if List.mem x rest then begin
          Printf.eprintf "bad --%s: %s is listed twice\n" flag (show x);
          exit 2
        end;
        no_repeats flag show rest
    in
    let models =
      String.split_on_char ',' fault_models |> List.map String.trim
      |> List.filter (fun s -> s <> "")
      |> List.map (fun s ->
             try Refine_core.Fault.model_of_string s
             with Invalid_argument msg ->
               Printf.eprintf "bad --fault-model: %s\n" msg;
               exit 2)
    in
    let models = if models = [] then [ Refine_core.Fault.Reg_bit ] else models in
    no_repeats "fault-model" Refine_core.Fault.string_of_model models;
    (* the grid runs every tool under every model *)
    List.iter
      (fun model ->
        List.iter
          (fun kind ->
            Option.iter
              (fun reason ->
                Printf.eprintf "bad --fault-model: %s; the campaign grid runs all three tools\n"
                  reason;
                exit 2)
              (Refine_core.Tool.model_unsupported kind model))
          Rep.tools)
      models;
    let names =
      if programs = "all" then Refine_bench_progs.Registry.names
      else String.split_on_char ',' programs |> List.map String.trim
    in
    no_repeats "programs" Fun.id names;
    let srcs =
      List.map
        (fun n ->
          match Refine_bench_progs.Registry.find n with
          | b -> (n, b.Refine_bench_progs.Registry.source)
          | exception Invalid_argument _ ->
            Printf.eprintf "bad --programs: unknown benchmark %s (see refinec bench)\n" n;
            exit 2)
        names
    in
    let pipeline = spec_of opt passes in
    (* every setting that changes a recorded sample's outcome or cost: a
       journal resumes only into the campaign that recorded it *)
    let identity =
      let or_none f = function Some v -> f v | None -> "none" in
      [
        ("seed", string_of_int seed);
        ("pipeline", Pl.print pipeline);
        ("verify-each", string_of_bool verify_each);
        ("output-quota", or_none string_of_int output_quota);
        ("sample-timeout", or_none Int64.to_string sample_timeout);
        ("retries", string_of_int retries);
      ]
    in
    if resume && journal = None then begin
      prerr_endline "bad --resume: there is no --journal FILE to resume";
      exit 2
    end;
    (* every output destination is checked before the header prints or the
       journal opens, so a path that cannot be written or a port in use
       fails at once rather than after the campaign has run *)
    List.iter
      (fun (flag, path) ->
        Option.iter
          (fun path ->
            try close_out (open_out_gen [ Open_wronly; Open_creat ] 0o666 path)
            with Sys_error msg ->
              Printf.eprintf "bad --%s: %s\n" flag msg;
              exit 2)
          path)
      [ ("csv", csv); ("metrics-out", metrics_out); ("trace-out", trace_out) ];
    let server =
      Option.map
        (fun port ->
          try Refine_obs.Serve.create ~port ()
          with Unix.Unix_error (e, _, _) ->
            Printf.eprintf "bad --status-port: %d: %s\n" port (Unix.error_message e);
            exit 2)
        status_port
    in
    let journal =
      Option.map
        (fun path ->
          try
            let held = J.record_lines path in
            if held > 0 && not resume then begin
              Printf.eprintf
                "bad --journal: %s already holds %d record lines; add --resume to continue its \
                 campaign, or remove the file\n"
                path held;
              exit 2
            end;
            J.create ~identity ~resume path
          with
          | J.Other_campaign msg ->
            Printf.eprintf "bad --resume: %s\n" msg;
            exit 2
          | Sys_error msg ->
            Printf.eprintf "bad --journal: %s\n" msg;
            exit 2)
        journal
    in
    if metrics_out <> None || trace_out <> None || status_port <> None then
      Refine_obs.Control.enable ();
    (match trace_out with
    | Some path -> Refine_obs.Span.set_file_sink path
    | None -> ());
    Option.iter J.note_skipped_metric journal;
    Option.iter
      (fun s -> Printf.printf "[status: http://127.0.0.1:%d/status]\n%!" (Refine_obs.Serve.port s))
      server;
    (* each block of the report is followed by a blank line *)
    let section s =
      print_string s;
      print_newline ()
    in
    section (Rep.header ~seed ~samples ~programs:(List.length names) ~models:(List.length models));
    let t0 = Unix.gettimeofday () in
    let cells =
      match workers with
      | Some w ->
        (* the coordinator polls the status server from its select loop *)
        let options =
          { Refine_campaign.Coordinator.default_options with workers = w; status = server }
        in
        List.concat_map
          (fun model ->
            Refine_campaign.Coordinator.run_matrix ~options ?journal ~retries
              ?cost_cap:sample_timeout ?output_quota ~model ~pipeline ~verify_each ~samples
              ~seed srcs Rep.tools)
          models
      | _ ->
        (* in-process path: a systhread of this domain serves the
           endpoint, asleep in select until a request arrives, and the
           /status provider reads the campaign's own progress counters.
           A second domain would have to join every minor collection. *)
        let stop = Atomic.make false in
        let serving =
          Option.map
            (fun s ->
              let total = List.length srcs * List.length Rep.tools * List.length models in
              let sum name =
                List.fold_left
                  (fun acc (n, _, v) ->
                    match v with
                    | Refine_obs.Metrics.Counter c when n = name -> acc + Int64.to_int c
                    | _ -> acc)
                  0
                  (Refine_obs.Metrics.snapshot ())
              in
              Refine_obs.Serve.set_status s (fun () ->
                  let quarantined = sum "refine_quarantined_cells_total" in
                  {
                    Refine_obs.Serve.p_samples_done =
                      sum "refine_campaign_samples_total"
                      + sum "refine_campaign_resumed_samples_total";
                    p_samples_total = total * samples;
                    p_cells_done = sum "refine_campaign_cells_total" + quarantined;
                    p_cells_total = total;
                    p_cells_quarantined = quarantined;
                    p_workers = None;
                    p_finished = Atomic.get stop;
                  });
              Thread.create
                (fun () ->
                  while not (Atomic.get stop) do
                    (try ignore (Unix.select (Refine_obs.Serve.fds s) [] [] 0.05)
                     with Unix.Unix_error (Unix.EINTR, _, _) -> ());
                    Refine_obs.Serve.poll s
                  done)
                ())
            server
        in
        Fun.protect
          ~finally:(fun () ->
            Atomic.set stop true;
            Option.iter Thread.join serving)
          (fun () ->
            List.concat_map
              (fun model ->
                E.run_matrix ?domains ?journal ~retries ?cost_cap:sample_timeout ?output_quota
                  ~model ~pipeline ~verify_each ~samples ~seed srcs Rep.tools)
              models)
    in
    Printf.printf "[campaign: %d experiments in %.1fs]\n\n"
      (List.length names * List.length Rep.tools * List.length models * samples)
      (Unix.gettimeofday () -. t0);
    (* Figures 4 and 5, Table 4 and the overhead table read the paper's
       reg-bit shape: render them over the first model's cells; the
       Table 5/6 sections cover every model in the run *)
    let first_cells =
      match Rep.models cells with [] -> cells | m :: _ -> Rep.cells_of_model m cells
    in
    List.iter
      (fun p -> section (Rep.figure4_program first_cells p ^ Rep.figure4_pmf first_cells p))
      names;
    (* Table 4: the paper shows AMG2013, the first program of the grid *)
    (match names with
    | p :: _ ->
      section
        (Printf.sprintf "Table 4 — contingency table, LLFI vs PINFI (%s)\n" p
        ^ Rep.contingency_table
            (E.find_cell first_cells ~program:p ~tool:Refine_core.Tool.Llfi)
            (E.find_cell first_cells ~program:p ~tool:Refine_core.Tool.Pinfi))
    | [] -> ());
    (match models with
    | [ _ ] ->
      section (Rep.table5 (Rep.chi2_rows cells names));
      section (Rep.table6 cells names)
    | _ -> print_string (Rep.model_sections cells names));
    section (Rep.figure5 first_cells names);
    section (Rep.overhead_table first_cells names);
    section (Rep.listings ~pipeline srcs);
    print_string (Rep.quarantine_report cells);
    let journal_skipped = match journal with Some j -> J.skipped j | None -> 0 in
    List.iter print_endline (Rep.degradation ~journal_skipped cells);
    (match journal with
    | Some j -> Printf.printf "[journal: %d samples checkpointed]\n" (J.length j)
    | None -> ());
    (match csv with
    | Some path ->
      Refine_campaign.Csv.save path cells;
      Printf.printf "[cells written to %s]\n" path
    | None -> ());
    (match metrics_out with
    | Some path ->
      Refine_obs.Metrics.save path;
      Printf.printf "[metrics written to %s]\n" path
    | None -> ());
    (match trace_out with
    | Some path ->
      Refine_obs.Span.close_sink ();
      Printf.printf "[trace written to %s]\n" path
    | None -> ());
    (* flush any in-flight status requests, then release the port *)
    Option.iter
      (fun s ->
        for _ = 1 to 10 do
          Refine_obs.Serve.poll s;
          Unix.sleepf 0.01
        done;
        Refine_obs.Serve.close s)
      server
  in
  Cmd.v
    (Cmd.info "campaign"
       ~doc:"Run the evaluation matrix on benchmark programs and print the paper's evaluation \
             section: the statistical setting, Figure 4 with its PMFs, Tables 4-6, Figure 5, the \
             Figure 8/9 overhead breakdown and Listings 1 & 2's static counts \
             ($(b,--programs all --samples 1068 --seed 20170712 --retries 1) is the paper's \
             scale). Supports checkpoint/resume \
             ($(b,--journal)/$(b,--resume)), bounded retries, a per-sample watchdog, \
             observability exports ($(b,--metrics-out)/$(b,--trace-out)), a live status \
             endpoint ($(b,--status-port)), and a sandbox output cap ($(b,--output-quota)).")
    Term.(const action $ programs $ samples $ seed $ fault_models $ csv $ journal $ resume
          $ retries $ sample_timeout $ domains $ workers $ metrics_out $ trace_out
          $ status_port $ output_quota $ opt_arg $ passes_arg $ verify_each_arg)

let main =
  let doc = "REFINE: realistic fault injection via compiler-based instrumentation (SC'17 reproduction)" in
  Cmd.group (Cmd.info "refinec" ~version:"1.0.0" ~doc)
    [ run_cmd; emit_cmd; fi_cmd; passes_cmd; bench_cmd; campaign_cmd ]

let () = exit (Cmd.eval main)
