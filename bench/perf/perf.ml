(* The committed performance benchmark (README.md in this directory).

   One process runs one workload: cold preparation passes over the
   workload's cells (the set-up), the correctness gate, then campaign
   rounds until the wall budget is spent.  Round 0 uses the seed itself;
   every later round draws fresh inputs from (seed, round).  Round 0's
   cells feed the exact metrics and the outcome digest, so those do not
   depend on how many rounds the budget allowed.

   With [--trace FILE], round 0 runs a second time with observability on,
   the remaining rounds stay traced, each layer's public entry points are
   then timed in benchmark-owned spans, and every span is written to FILE
   as JSON lines.  The per-layer metrics are read from those spans and
   from counters the library already publishes; nothing in the library is
   instrumented for the benchmark.

   The benchmark never sets GC parameters and never flips a kill switch:
   it measures the production path as [refinec] runs it.  The last line of
   standard output is one JSON record with every metric; the process exits
   1 when the correctness gate fails. *)

module T = Refine_core.Tool
module F = Refine_core.Fault
module Ex = Refine_campaign.Experiment
module C = Refine_campaign.Coordinator
module J = Refine_campaign.Journal
module Rep = Refine_campaign.Report
module Reg = Refine_bench_progs.Registry
module Pl = Refine_passes.Pipeline
module X = Refine_machine.Exec
module Obs = Refine_obs

(* a shard coordinator re-executes this binary as its workers *)
let () = Refine_campaign.Worker.maybe_exec ()

let tools = [ T.Refine; T.Llfi; T.Pinfi ]
let tool_index = function T.Refine -> 0 | T.Llfi -> 1 | T.Pinfi -> 2
let tool_key t = String.lowercase_ascii (T.kind_name t)
let now = Unix.gettimeofday
let workers = min 2 (Domain.recommended_domain_count ())

(* ---- workloads ------------------------------------------------------------ *)

type shape =
  | In_process  (** warm artifact caches; a round is one campaign over every cell *)
  | Cold_start  (** a round re-prepares each program's cells from empty caches *)
  | Sharded  (** a round is a workers=2 and then a workers=1 coordinator campaign *)

type workload = {
  name : string;
  shape : shape;
  programs : string list;
  models : F.model list;
  samples : int;  (** per (program, tool, model) cell and round *)
}

(* Why each workload exists is recorded in README.md. *)
let workloads =
  [
    {
      name = "paper-grid";
      shape = In_process;
      programs = Reg.names;
      models = [ F.Reg_bit ];
      samples = 16;
    };
    {
      name = "fault-models";
      shape = In_process;
      programs = [ "DC"; "EP"; "CG" ];
      models = [ F.Mem_cell; F.Instr_image ];
      samples = 8;
    };
    {
      name = "cold-start";
      shape = Cold_start;
      programs = Reg.names;
      models = [ F.Reg_bit ];
      samples = 4;
    };
    {
      name = "sharded";
      shape = Sharded;
      programs = [ "DC"; "EP"; "XSBench"; "UA" ];
      models = [ F.Reg_bit ];
      samples = 32;
    };
  ]

(* the smoke size: first two programs, two samples per cell *)
let toy w = { w with programs = List.filteri (fun i _ -> i < 2) w.programs; samples = 2 }

(* ---- statistics ----------------------------------------------------------- *)

let sum = List.fold_left ( +. ) 0.0

(* nearest-rank percentile; 0 for an empty list *)
let percentile p xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
    let n = List.length sorted in
    List.nth sorted (max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let median = percentile 0.5
let ratio a b = if b = 0.0 then 0.0 else a /. b

(* ---- set-up: cold preparation passes --------------------------------------- *)

type prep = { program : string; tool : T.kind; ms : float; golden : F.profile }

let prepare_cell ~program ~source tool =
  let attrs = [ ("program", program); ("tool", T.kind_name tool) ] in
  let phases = Obs.Phase.create () in
  let t0 = now () in
  let prepared = Obs.Span.with_ ~attrs "core.prepare" (fun () -> T.prepare ~phases tool source) in
  let ms = 1e3 *. (now () -. t0) in
  (* the two golden profiling runs inside [prepare], as a sibling leaf *)
  Obs.Span.emit ~attrs ~name:"core.profile" ~dur_s:(Obs.Phase.get phases "execute") ();
  { program; tool; ms; golden = prepared.T.profile }

(* One cold pass over the cells: every artifact tier starts empty, and the
   previous pass's artifacts are collected first so that each pass (and
   the campaign after the last one) starts from the same heap. *)
let prepare_pass srcs =
  T.reset_artifact_caches ();
  Gc.full_major ();
  let t0 = now () in
  let preps =
    List.concat_map (fun (program, source) -> List.map (prepare_cell ~program ~source) tools) srcs
  in
  (preps, now () -. t0)

(* At least three passes, and more (up to nine) until they add up to
   [budget] seconds: on a small workload one pass takes a quarter second,
   and the median of a few more passes keeps a transient host slowdown out
   of [setup_s]. *)
let setup_passes ~budget srcs =
  let rec go acc spent =
    let n = List.length acc in
    if n >= 9 || (n >= 3 && spent >= budget) then List.rev acc
    else
      let preps, s = prepare_pass srcs in
      go ((preps, s) :: acc) (spent +. s)
  in
  go [] 0.0

(* Correctness oracle independent of the compiler: each golden run must
   print what the IR interpreter prints for the unoptimised IR, and exit
   the same way.  Returns the number of mismatching (program, tool) cells. *)
let oracle_mismatches srcs (preps : prep list) =
  List.fold_left
    (fun wrong (program, source) ->
      let o = Refine_ir.Interp.run (Refine_minic.Frontend.compile source) in
      List.fold_left
        (fun wrong p ->
          let g = p.golden in
          if p.program <> program then wrong
          else if
            g.F.golden_output = o.Refine_ir.Interp.output && g.F.golden_exit = o.exit_code
          then wrong
          else begin
            Printf.printf "WRONG: %s/%s golden run differs from the IR interpreter\n" program
              (T.kind_name p.tool);
            wrong + 1
          end)
        wrong preps)
    0 srcs

(* ---- rounds -------------------------------------------------------------- *)

type round = {
  seed : int;
  traced : bool;
  cells : Ex.cell list;  (** the campaign's cells (the workers=2 campaign when sharded) *)
  wall : float;  (** seconds spent in the campaign calls measured for throughput *)
  tool_wall : float array;  (** seconds per tool, by [tool_index] *)
  cold_ms : float list;  (** per-cell cold preparation latencies (cold-start) *)
  serial : (Ex.cell list * float) option;  (** sharded: the workers=1 campaign *)
}

let round_seed seed r =
  if r = 0 then seed else Refine_support.Prng.hash_string (Printf.sprintf "%d/%d" seed r)

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

let run_cells w srcs ~seed ~tool_wall =
  List.concat_map
    (fun model ->
      List.concat_map
        (fun (program, source) ->
          List.map
            (fun tool ->
              let cell, dt =
                timed (fun () ->
                    Ex.run_cell ~domains:1 ~model ~samples:w.samples ~seed tool ~program ~source ())
              in
              let i = tool_index tool in
              tool_wall.(i) <- tool_wall.(i) +. dt;
              cell)
            tools)
        srcs)
    w.models

let run_round w srcs ~seed =
  let tool_wall = Array.make 3 0.0 in
  let traced = Obs.Control.enabled () in
  match w.shape with
  | In_process ->
    let cells, wall = timed (fun () -> run_cells w srcs ~seed ~tool_wall) in
    { seed; traced; cells; wall; tool_wall; cold_ms = []; serial = None }
  | Cold_start ->
    let cold_ms = ref [] in
    let cells, wall =
      timed (fun () ->
          List.concat_map
            (fun (program, source) ->
              T.reset_artifact_caches ();
              List.iter
                (fun tool ->
                  let p = prepare_cell ~program ~source tool in
                  cold_ms := p.ms :: !cold_ms;
                  let i = tool_index tool in
                  tool_wall.(i) <- tool_wall.(i) +. (p.ms /. 1e3))
                tools;
              run_cells w [ (program, source) ] ~seed ~tool_wall)
            srcs)
    in
    { seed; traced; cells; wall; tool_wall; cold_ms = List.rev !cold_ms; serial = None }
  | Sharded ->
    let campaign n =
      timed (fun () ->
          let options = { C.default_options with C.workers = n } in
          List.concat_map
            (fun model -> C.run_matrix ~options ~model ~samples:w.samples ~seed srcs tools)
            w.models)
    in
    let cells, wall = campaign workers in
    let serial = campaign 1 in
    (* worker-side wall per tool: the chunks' phase attribution *)
    List.iter
      (fun (c : Ex.cell) ->
        let i = tool_index c.Ex.tool in
        tool_wall.(i) <- tool_wall.(i) +. Rep.timing_total c.Ex.timing)
      cells;
    { seed; traced; cells; wall; tool_wall; cold_ms = []; serial = Some serial }

(* the cells of every campaign a round ran *)
let round_cells r = r.cells @ match r.serial with Some (cells, _) -> cells | None -> []

let resolved (cells : Ex.cell list) =
  List.fold_left (fun n (c : Ex.cell) -> n + Ex.attempted c.Ex.counts) 0 cells

(* samples that did not produce an outcome: tool errors, samples of
   quarantined cells and samples a campaign lost *)
let failed (cells : Ex.cell list) =
  List.fold_left
    (fun n (c : Ex.cell) ->
      if c.Ex.quarantined <> None then n + c.Ex.samples
      else n + c.Ex.counts.Ex.tool_error + (c.Ex.samples - Ex.attempted c.Ex.counts))
    0 cells

(* Canonical outcome digest: sorted (program, tool, model, counts,
   injection cost) of every cell. *)
let cell_keys (cells : Ex.cell list) =
  List.sort compare
    (List.map
       (fun (c : Ex.cell) ->
         let k = c.Ex.counts in
         Printf.sprintf "%s|%s|%s|%d/%d/%d/%d|%Ld" c.Ex.program (T.kind_name c.Ex.tool)
           (F.string_of_model c.Ex.model) k.Ex.crash k.Ex.soc k.Ex.benign k.Ex.tool_error
           c.Ex.injection_cost)
       cells)

let digest cells = Digest.to_hex (Digest.string (String.concat "\n" (cell_keys cells)))

(* ---- metrics ------------------------------------------------------------- *)

type metric = {
  name : string;
  unit_ : string;
  value : float;
  n : int;  (** observations behind the value *)
  exact : bool;  (** deterministic for a seed: compared for equality, not against a bound *)
  higher : bool;  (** a larger value is better *)
}

let metric ?(n = 1) ?(exact = false) ?(higher = false) name unit_ value =
  { name; unit_; value; n; exact; higher }

(* VmHWM of this process (Linux procfs) *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         if String.starts_with ~prefix:"VmHWM:" line then Scanf.sscanf line "VmHWM: %d" Option.some
         else None)
  |> Option.fold ~none:0.0 ~some:(fun kb -> float_of_int kb /. 1024.0)

(* workers=1 wall over workers=2 wall, per sharded round *)
let scaling rounds =
  List.filter_map (fun r -> Option.map (fun (_, w1) -> ratio w1 r.wall) r.serial) rounds

let tool_sum f (cells : Ex.cell list) tool =
  List.fold_left (fun acc (c : Ex.cell) -> if c.Ex.tool = tool then acc +. f c else acc) 0.0 cells

let cost_of (c : Ex.cell) = Int64.to_float c.Ex.injection_cost

let end_to_end w ~(setup : float list) ~(cold_ms : float list) ~(measured : round list)
    ~(r0 : round) ~rss_mb ~attempted ~failed_n ~wrong =
  let samples = List.fold_left (fun n r -> n + resolved r.cells) 0 measured in
  (* the median round: one slow stretch of the host, or one round whose
     seed drew several 10x-timeout samples, does not move it *)
  let throughput =
    median (List.map (fun r -> ratio (float_of_int (resolved r.cells)) r.wall) measured)
  in
  let tw i = sum (List.map (fun r -> r.tool_wall.(i)) measured) in
  let cost_ratio tool =
    ratio (tool_sum cost_of r0.cells tool) (tool_sum cost_of r0.cells T.Pinfi)
  in
  let n_cold = List.length cold_ms in
  [
    metric ~higher:true ~n:samples "samples_per_s" "1/s" throughput;
    metric ~n:(List.length setup) "setup_s" "s" (median setup);
    metric ~n:n_cold "prepare_ms_p50" "ms" (percentile 0.5 cold_ms);
    metric ~n:n_cold "prepare_ms_p95" "ms" (percentile 0.95 cold_ms);
    metric ~n:samples "refine_vs_pinfi_wall" "ratio" (ratio (tw 0) (tw 2));
    metric ~n:samples "llfi_vs_pinfi_wall" "ratio" (ratio (tw 1) (tw 2));
    metric ~n:(resolved r0.cells) ~exact:true "refine_vs_pinfi_cost" "ratio" (cost_ratio T.Refine);
    metric ~n:(resolved r0.cells) ~exact:true "llfi_vs_pinfi_cost" "ratio" (cost_ratio T.Llfi);
    metric ~n:attempted ~exact:true "failed_share" "fraction"
      (ratio (float_of_int failed_n) (float_of_int attempted));
    metric ~exact:true "wrong_outputs" "count" (float_of_int wrong);
    metric "peak_rss_mb" "MB" rss_mb;
  ]
  @
  match w.shape with
  | Sharded ->
    let s = scaling measured in
    [ metric ~higher:true ~n:(List.length s) "worker_scaling" "ratio" (median s) ]
  | In_process | Cold_start -> []

(* ---- per-layer probes (traced runs only) ------------------------------------ *)

let copy_module (m : Refine_ir.Ir.modul) : Refine_ir.Ir.modul =
  Marshal.from_string (Marshal.to_string m []) 0

let resets_per_probe = 200

(* Time each layer's public entry point on every program of the workload,
   outside the campaign: front end, IR optimisation, each tool's MIR
   pipeline, layout, decode, the correspondence map, a clean decoded
   golden run and engine resets.  Returns the exact static counts. *)
let probe_compile srcs =
  let counts = Hashtbl.create 16 in
  let bump k n =
    Hashtbl.replace counts k (n + Option.value ~default:0 (Hashtbl.find_opt counts k))
  in
  let ctx = { Refine_passes.Pass.sel = T.Selection.default; save_flags = true } in
  List.iter
    (fun (program, source) ->
      let attrs = [ ("program", program) ] in
      let m =
        Obs.Span.with_ ~attrs "minic.compile" (fun () -> Refine_minic.Frontend.compile source)
      in
      ignore (Obs.Span.with_ ~attrs "ir.optimize" (fun () -> Pl.run_ir T.default_pipeline m));
      bump "ir.instrs"
        (List.fold_left (fun n f -> n + Refine_ir.Printer.count_instrs f) 0 m.Refine_ir.Ir.funcs);
      let build tool =
        let attrs = ("tool", T.kind_name tool) :: attrs in
        let key = tool_key tool in
        let full = T.pipeline_for tool T.default_pipeline in
        (* the tool's pipeline after the shared IR prefix, stopping before layout *)
        let rest =
          {
            full with
            Pl.ir = List.filter (fun p -> not (List.mem p T.default_pipeline.Pl.ir)) full.Pl.ir;
            layout = false;
          }
        in
        let m = copy_module m in
        let out =
          Obs.Span.with_ ~attrs "passes.mir" (fun () -> Pl.run ~ctx ~verify_fi:true rest m)
        in
        if tool <> T.Pinfi then bump ("passes.fi_sites." ^ key) out.Pl.fi_sites;
        List.iter
          (fun (mf : Refine_mir.Mfunc.t) ->
            bump ("passes.machine_instrs." ^ key) (Refine_mir.Mfunc.instr_count mf);
            bump ("passes.frame_slots." ^ key) (mf.Refine_mir.Mfunc.frame_bytes / 8))
          out.Pl.funcs;
        let image = Obs.Span.with_ ~attrs "backend.layout" (fun () -> Pl.emit m out.Pl.funcs) in
        let dp = Obs.Span.with_ ~attrs "machine.decode" (fun () -> X.decode image) in
        bump "machine.superinstrs" (Array.fold_left ( + ) 0 (X.superinstr_counts dp));
        (image, dp)
      in
      let refine_image, _ = build T.Refine in
      ignore (build T.Llfi);
      let golden, golden_dp = build T.Pinfi in
      bump "backend.map_eligible" (Bool.to_int (Refine_backend.Fimap.map_eligible refine_image));
      ignore
        (Obs.Span.with_ ~attrs "backend.fimap" (fun () ->
             Refine_backend.Fimap.build ~lib_call_cost:Refine_core.Fi_cost.refine_lib_call
               refine_image golden));
      let eng = X.create_from_snapshot (X.snapshot golden) in
      X.install_decoded eng (Some golden_dp);
      let r, dt = timed (fun () -> X.run eng) in
      Obs.Span.emit
        ~attrs:(("steps", Int64.to_string r.X.steps) :: attrs)
        ~name:"machine.golden_run" ~dur_s:dt ();
      let (), dt =
        timed (fun () ->
            for _ = 1 to resets_per_probe do
              X.reset eng
            done)
      in
      Obs.Span.emit
        ~attrs:(("n", string_of_int resets_per_probe) :: attrs)
        ~name:"machine.reset" ~dur_s:dt ())
    srcs;
  counts

(* one synthetic journal entry per resolved sample of the cells, with each
   cell's outcome counts and mean sample cost *)
let entries_of_cells (cells : Ex.cell list) =
  List.concat_map
    (fun (c : Ex.cell) ->
      let k = c.Ex.counts in
      let outcomes =
        List.concat
          [
            List.init k.Ex.crash (fun _ -> F.Crash);
            List.init k.Ex.soc (fun _ -> F.Soc);
            List.init k.Ex.benign (fun _ -> F.Benign);
            List.init k.Ex.tool_error (fun _ -> F.Tool_error);
          ]
      in
      let cost = Int64.div c.Ex.injection_cost (Int64.of_int (max 1 (List.length outcomes))) in
      List.mapi
        (fun sample outcome ->
          {
            J.program = c.Ex.program;
            tool = T.kind_name c.Ex.tool;
            model = F.string_of_model c.Ex.model;
            sample;
            outcome;
            cost;
            attempts = 1;
          })
        outcomes)
    cells

(* A record takes a few ticks of the float wall clock (0.24 us apart at
   the current epoch), so records are timed in batches: the percentiles
   are over batches, reported per record. *)
let journal_batches = 100
let journal_batch = 10
let chi2_repeats = 200

(* Time the campaign layer's persistence, reporting, wire and statistics
   entry points on round 0's cells. *)
let probe_campaign ~scratch programs (cells : Ex.cell list) =
  let entries = entries_of_cells cells in
  let ring = Array.of_list entries in
  let j = J.create scratch in
  for b = 0 to journal_batches - 1 do
    Obs.Span.with_
      ~attrs:[ ("n", string_of_int journal_batch) ]
      "campaign.journal_record"
      (fun () ->
        for i = 0 to journal_batch - 1 do
          J.record j ring.(((b * journal_batch) + i) mod Array.length ring)
        done)
  done;
  J.close j;
  Sys.remove scratch;
  Obs.Span.with_ "campaign.csv_roundtrip" (fun () ->
      ignore (Refine_campaign.Csv.of_string (Refine_campaign.Csv.to_string cells)));
  Obs.Span.with_ "campaign.report" (fun () ->
      List.iter
        (fun model ->
          let cs = Rep.cells_of_model model cells in
          ignore (Rep.table5 (Rep.chi2_rows cs programs));
          ignore (Rep.table6 cs programs))
        (Rep.models cells));
  let module S = Refine_campaign.Shard in
  let module W = Refine_support.Wire in
  let n = string_of_int (List.length entries) in
  let frames = List.map (fun entry -> S.Outcome { chunk = 0; entry }) entries in
  let payloads, dt = timed (fun () -> List.map S.encode frames) in
  Obs.Span.emit ~attrs:[ ("n", n) ] ~name:"campaign.frame_encode" ~dur_s:dt ();
  let (), dt = timed (fun () -> List.iter (fun p -> ignore (S.decode p)) payloads) in
  Obs.Span.emit ~attrs:[ ("n", n) ] ~name:"campaign.frame_decode" ~dur_s:dt ();
  let stream = Bytes.of_string (String.concat "" (List.map W.frame payloads)) in
  let (), dt =
    timed (fun () ->
        (* fed in pipe-read sized chunks, as the coordinator does *)
        let s = W.stream () and buf = Bytes.create 4096 in
        let off = ref 0 in
        while !off < Bytes.length stream do
          let len = min (Bytes.length buf) (Bytes.length stream - !off) in
          Bytes.blit stream !off buf 0 len;
          W.feed s buf len;
          off := !off + len;
          while W.next s <> None do
            ()
          done
        done)
  in
  Obs.Span.emit
    ~attrs:[ ("bytes", string_of_int (Bytes.length stream)) ]
    ~name:"support.wire" ~dur_s:dt ();
  let tables =
    List.concat_map
      (fun program ->
        match
          List.map
            (fun tool ->
              List.filter (fun (c : Ex.cell) -> c.Ex.program = program && c.Ex.tool = tool) cells
              |> List.map Ex.row)
            tools
        with
        | [ refine :: _; llfi :: _; pinfi :: _ ] -> [ [| refine; pinfi |]; [| llfi; pinfi |] ]
        | _ -> [])
      programs
  in
  let (), dt =
    timed (fun () ->
        for _ = 1 to chi2_repeats do
          List.iter (fun t -> ignore (Refine_stats.Chi2.test t)) tables
        done)
  in
  Obs.Span.emit
    ~attrs:[ ("n", string_of_int (chi2_repeats * List.length tables)) ]
    ~name:"stats.chi2" ~dur_s:dt ()

(* ---- per-layer metrics from the trace --------------------------------------- *)

type snapshot = (string * Obs.Metrics.labels * Obs.Metrics.value) list

type traced = {
  setup_evs : Obs.Span.event list;  (** the set-up passes *)
  r0_evs : Obs.Span.event list;  (** round 0, traced *)
  round_evs : Obs.Span.event list;  (** every traced round, round 0 included *)
  probe_evs : Obs.Span.event list;  (** the layer probes *)
  r0_snap : snapshot;  (** registry after traced round 0 *)
  run_snap : snapshot;  (** registry after the last traced round *)
  counts : (string, int) Hashtbl.t;  (** exact static counts from the probes *)
  r0_traced : round;
  rounds : round list;  (** traced rounds, round 0 included *)
  tax : float;  (** sharded: workers=1 wall over in-process wall on round 0's cells; 0 elsewhere *)
}

let attr k (e : Obs.Span.event) = Option.value ~default:"" (List.assoc_opt k e.Obs.Span.attrs)

let events ?tool name evs =
  List.filter
    (fun (e : Obs.Span.event) ->
      e.Obs.Span.name = name
      && match tool with None -> true | Some t -> attr "tool" e = T.kind_name t)
    evs

let durations evs = List.map (fun (e : Obs.Span.event) -> e.Obs.Span.dur_s) evs

(* Σ over programs of each program's median span duration, in ms: one
   number per layer that does not depend on how often a span repeated *)
let per_program_ms ?tool name evs =
  let evs = events ?tool name evs in
  let programs = List.sort_uniq compare (List.map (attr "program") evs) in
  let program_median p = median (durations (List.filter (fun e -> attr "program" e = p) evs)) in
  1e3 *. sum (List.map program_median programs)

let attr_total key evs =
  List.fold_left (fun n e -> n + Option.value ~default:0 (int_of_string_opt (attr key e))) 0 evs

(* microseconds per item of batch leaf events carrying their item count *)
let per_item_us name evs =
  let evs = events name evs in
  ratio (1e6 *. sum (durations evs)) (float_of_int (attr_total "n" evs))

let counter (snap : snapshot) name pred =
  List.fold_left
    (fun acc (n, labels, v) ->
      match v with
      | Obs.Metrics.Counter c when n = name && pred labels -> acc + Int64.to_int c
      | _ -> acc)
    0 snap

let label k v labels = List.assoc_opt k labels = Some v

(* upper bound of the histogram bucket holding the median observation *)
let histogram_p50 (snap : snapshot) name =
  List.fold_left
    (fun acc (n, _, v) ->
      match v with
      | Obs.Metrics.Histogram h when n = name && h.Obs.Metrics.count > 0L ->
        let half = Int64.div (Int64.add h.Obs.Metrics.count 1L) 2L in
        let bounds = h.Obs.Metrics.bounds in
        let rec find i cum =
          let cum = Int64.add cum h.Obs.Metrics.counts.(i) in
          if cum >= half || i = Array.length bounds then
            if i < Array.length bounds then bounds.(i) else infinity
          else find (i + 1) cum
        in
        find 0 0L
      | _ -> acc)
    0.0 snap

let per_layer ~(r0 : round) (t : traced) =
  let exact ?higher name unit_ v = metric ~exact:true ?higher name unit_ v in
  let count_of name = float_of_int (Option.value ~default:0 (Hashtbl.find_opt t.counts name)) in
  let count name = exact name "count" (count_of name) in
  let per_tool ?(only = tools) f = List.map (fun tool -> f tool (tool_key tool)) only in
  let compiled = [ T.Refine; T.Llfi ] in
  (* the detach counters of a sharded round cover both of its campaigns *)
  let per_sample n tool =
    ratio (float_of_int n)
      (tool_sum (fun c -> float_of_int (Ex.attempted c.Ex.counts)) (round_cells t.r0_traced) tool)
  in
  let profile_cost program tool =
    List.find_map
      (fun (c : Ex.cell) ->
        if c.Ex.program = program && T.kind_name c.Ex.tool = tool then
          Some (Int64.to_float c.Ex.profile.F.profile_cost)
        else None)
      r0.cells
  in
  let sample_ms tool =
    List.map (fun d -> 1e3 *. d) (durations (events ~tool "sample" t.round_evs))
  in
  let cache_rate tier =
    let hits = counter t.run_snap "refine_artifact_cache_hits_total" (label "cache" tier) in
    let misses = counter t.run_snap "refine_artifact_cache_misses_total" (label "cache" tier) in
    ratio (float_of_int hits) (float_of_int (hits + misses))
  in
  let golden = events "machine.golden_run" t.probe_evs in
  let journal_us =
    List.map
      (fun e -> ratio (1e6 *. e.Obs.Span.dur_s) (float_of_int (attr_total "n" [ e ])))
      (events "campaign.journal_record" t.probe_evs)
  in
  let wire = events "support.wire" t.probe_evs in
  let worker_scaling = scaling t.rounds in
  let harness =
    List.map
      (fun r -> sum (List.map (fun (c : Ex.cell) -> c.Ex.timing.Ex.harness_s) r.cells))
      t.rounds
  in
  let span_ms name = 1e3 *. sum (durations (events name t.probe_evs)) in
  [
    metric "minic.compile_ms" "ms" (per_program_ms "minic.compile" t.probe_evs);
    metric "ir.optimize_ms" "ms" (per_program_ms "ir.optimize" t.probe_evs);
    count "ir.instrs";
  ]
  @ per_tool (fun tool k ->
        metric ("passes.mir_ms." ^ k) "ms" (per_program_ms ~tool "passes.mir" t.probe_evs))
  @ per_tool ~only:compiled (fun _ k -> count ("passes.fi_sites." ^ k))
  @ per_tool (fun _ k -> count ("passes.machine_instrs." ^ k))
  @ per_tool (fun _ k -> count ("passes.frame_slots." ^ k))
  @ [
      metric "backend.layout_ms" "ms" (span_ms "backend.layout");
      metric "backend.fimap_ms" "ms" (span_ms "backend.fimap");
      exact ~higher:true "backend.map_eligible" "count" (count_of "backend.map_eligible");
      metric "machine.decode_ms" "ms" (span_ms "machine.decode");
      exact ~higher:true "machine.superinstrs" "count" (count_of "machine.superinstrs");
      metric ~higher:true "machine.golden_minstr_per_s" "Minstr/s"
        (ratio (float_of_int (attr_total "steps" golden) /. 1e6) (sum (durations golden)));
      metric "machine.reset_us" "us" (per_item_us "machine.reset" t.probe_evs);
    ]
  @ per_tool (fun tool k ->
        metric ("core.prepare_ms." ^ k) "ms" (per_program_ms ~tool "core.prepare" t.setup_evs))
  @ per_tool (fun tool k ->
        metric ("core.profile_ms." ^ k) "ms" (per_program_ms ~tool "core.profile" t.setup_evs))
  @ per_tool (fun tool k ->
        let d = sample_ms tool in
        metric ~n:(List.length d) ("core.sample_ms_p50." ^ k) "ms" (percentile 0.5 d))
  @ per_tool (fun tool k ->
        let d = sample_ms tool in
        metric ~n:(List.length d) ("core.sample_ms_p90." ^ k) "ms" (percentile 0.9 d))
  @ per_tool (fun tool k ->
        (* mean sample cost in golden-run units *)
        let golden_units =
          tool_sum
            (fun c ->
              float_of_int (Ex.attempted c.Ex.counts) *. Int64.to_float c.Ex.profile.F.profile_cost)
            r0.cells tool
        in
        exact ("core.cost_per_sample." ^ k) "ratio"
          (ratio (tool_sum cost_of r0.cells tool) golden_units))
  @ per_tool (fun tool k ->
        let evs = events ~tool "sample" t.r0_evs in
        let timeout_factor = Int64.to_float Refine_core.Fi_cost.timeout_factor in
        let timed_out (e : Obs.Span.event) =
          match profile_cost (attr "program" e) (attr "tool" e) with
          | Some pc -> Int64.to_float e.Obs.Span.cost >= timeout_factor *. pc
          | None -> false
        in
        let share = List.length (List.filter timed_out evs) in
        exact ("core.timeout_share." ^ k) "fraction"
          (ratio (float_of_int share) (float_of_int (List.length evs))))
  @ per_tool ~only:compiled (fun tool k ->
        let n = counter t.r0_snap "refine_detach_total" (label "tool" (T.kind_name tool)) in
        exact ~higher:true ("core.detach_rate." ^ k) "fraction" (per_sample n tool))
  @ per_tool ~only:compiled (fun tool k ->
        let n =
          counter t.r0_snap "refine_detach_declined_total" (label "tool" (T.kind_name tool))
        in
        exact ("core.detach_declined." ^ k) "fraction" (per_sample n tool))
  @ [
      exact "core.drain_steps_p50" "steps" (histogram_p50 t.r0_snap "refine_detach_drain_steps");
      metric ~higher:true "core.cache_hit_rate.ir" "fraction" (cache_rate "ir");
      metric ~higher:true "core.cache_hit_rate.prepared" "fraction" (cache_rate "prepared");
      metric ~higher:true "core.cache_hit_rate.decoded" "fraction" (cache_rate "decoded");
      metric ~higher:true "core.cache_hit_rate.detach" "fraction" (cache_rate "detach-golden");
      metric ~n:(List.length harness) "campaign.harness_s" "s" (median harness);
      metric ~n:(List.length journal_us) "campaign.journal_record_us_p50" "us"
        (percentile 0.5 journal_us);
      metric ~n:(List.length journal_us) "campaign.journal_record_us_p90" "us"
        (percentile 0.9 journal_us);
      metric "campaign.csv_roundtrip_ms" "ms" (span_ms "campaign.csv_roundtrip");
      metric "campaign.report_ms" "ms" (span_ms "campaign.report");
      metric "campaign.frame_encode_us" "us" (per_item_us "campaign.frame_encode" t.probe_evs);
      metric "campaign.frame_decode_us" "us" (per_item_us "campaign.frame_decode" t.probe_evs);
      metric "campaign.coordinator_tax" "ratio" t.tax;
      metric "campaign.steals" "count"
        (float_of_int (counter t.run_snap "refine_shard_steals_total" (fun _ -> true)));
      metric ~higher:true ~n:(List.length worker_scaling) "campaign.worker_scaling" "ratio"
        (median worker_scaling);
      metric ~higher:true "support.wire_mb_per_s" "MB/s"
        (ratio (float_of_int (attr_total "bytes" wire) /. 1048576.0) (sum (durations wire)));
      metric "stats.chi2_us" "us" (per_item_us "stats.chi2" t.probe_evs);
      metric "obs.trace_overhead_pct" "%" (100.0 *. (ratio t.r0_traced.wall r0.wall -. 1.0));
    ]

(* ---- one benchmark run -------------------------------------------------------- *)

type result = {
  rounds : round list;  (** every round, traced or not *)
  metrics : metric list;
  digest : string;
  wrong : int;
  attempted : int;  (** samples requested over every campaign call *)
  failed : int;
  trace : (string * Obs.Tracefile.result) option;
}

let write_trace path evs =
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun e -> output_string oc (Obs.Span.to_json e ^ "\n")) evs);
  Obs.Tracefile.load path

let run w ~seed ~seconds ~setup_budget ~trace ~expect_digest =
  let srcs = List.map (fun p -> (p, (Reg.find p).Reg.source)) w.programs in
  if trace <> None then begin
    Obs.Span.set_memory_sink ();
    Obs.Control.enable ()
  end;
  (* set-up: cold passes; the last leaves every cache tier warm *)
  let passes = setup_passes ~budget:setup_budget srcs in
  let setup_evs = Obs.Span.drain () in
  Obs.Control.disable ();
  let wrong = ref (oracle_mismatches srcs (fst (List.hd (List.rev passes)))) in
  let fail fmt = Printf.ksprintf (fun msg -> Printf.printf "WRONG: %s\n" msg; incr wrong) fmt in
  let check r =
    match r.serial with
    | Some (cells, _) when cell_keys cells <> cell_keys r.cells ->
      fail "workers=1 and workers=%d disagree" workers
    | _ -> ()
  in
  if w.shape = Sharded then
    (* unmeasured: the first worker fleet pays the exec and page-cache warm-up *)
    ignore
      (C.run_matrix
         ~options:{ C.default_options with C.workers }
         ~samples:4 ~seed [ List.hd srcs ] tools);
  let t_start = now () in
  let t_end = t_start +. seconds in
  let round s =
    let r = run_round w srcs ~seed:s in
    check r;
    r
  in
  (* further rounds while at least half of a mean round fits in the budget,
     so the measured time lands within half a round of it *)
  let rec more acc k =
    let mean = (now () -. t_start) /. float_of_int k in
    if now () +. (mean /. 2.0) > t_end then List.rev acc
    else more (round (round_seed seed k) :: acc) (k + 1)
  in
  let r0 = round seed in
  (* the footprint of fixed work: how many later rounds fit depends on the
     host's speed, and each one lets the heap grow a little further *)
  let rss_mb = peak_rss_mb () in
  let digest = digest r0.cells in
  (match expect_digest with
  | Some d when d <> digest -> fail "outcome digest %s, committed %s" digest d
  | _ -> ());
  let measured, traced =
    match trace with
    | None -> (r0 :: more [] 1, None)
    | Some path ->
      Obs.Control.enable ();
      Obs.Metrics.reset ();
      let r0_traced = round seed in
      if cell_keys r0_traced.cells <> cell_keys r0.cells then
        fail "tracing changed round 0's outcomes";
      let r0_evs = Obs.Span.drain () and r0_snap = Obs.Metrics.snapshot () in
      let later = more [] 2 in
      let later_evs = Obs.Span.drain () and run_snap = Obs.Metrics.snapshot () in
      let tax =
        match (w.shape, r0.serial) with
        | Sharded, Some (_, serial_wall) ->
          Obs.Control.disable ();
          T.reset_artifact_caches ();
          let _, in_process =
            timed (fun () ->
                List.concat_map
                  (fun model -> Ex.run_matrix ~domains:1 ~model ~samples:w.samples ~seed srcs tools)
                  w.models)
          in
          Obs.Control.enable ();
          ratio serial_wall in_process
        | _ -> 0.0
      in
      let counts = probe_compile srcs in
      probe_campaign ~scratch:(path ^ ".journal") w.programs r0.cells;
      let probe_evs = Obs.Span.drain () in
      Obs.Control.disable ();
      let t =
        {
          setup_evs;
          r0_evs;
          round_evs = r0_evs @ later_evs;
          probe_evs;
          r0_snap;
          run_snap;
          counts;
          r0_traced;
          rounds = r0_traced :: later;
          tax;
        }
      in
      ([ r0 ], Some (path, t))
  in
  let rounds = measured @ (match traced with Some (_, t) -> t.rounds | None -> []) in
  let all_cells = List.concat_map round_cells rounds in
  let attempted = List.fold_left (fun n (c : Ex.cell) -> n + c.Ex.samples) 0 all_cells in
  let cold_ms =
    List.concat_map (fun (ps, _) -> List.map (fun (p : prep) -> p.ms) ps) passes
    @ List.concat_map (fun r -> r.cold_ms) measured
  in
  let failed = failed all_cells in
  let e2e () =
    end_to_end w ~setup:(List.map snd passes) ~cold_ms ~measured ~r0 ~rss_mb ~attempted
      ~failed_n:failed ~wrong:!wrong
  in
  match traced with
  | None -> { rounds; metrics = e2e (); digest; wrong = !wrong; attempted; failed; trace = None }
  | Some (path, t) ->
    let layers = per_layer ~r0 t in
    let loaded = write_trace path (t.setup_evs @ t.round_evs @ t.probe_evs) in
    if loaded.Obs.Tracefile.skipped > 0 || loaded.Obs.Tracefile.torn then
      fail "trace %s reloads with %d skipped lines" path loaded.Obs.Tracefile.skipped;
    {
      rounds;
      metrics = e2e () @ layers;
      digest;
      wrong = !wrong;
      attempted;
      failed;
      trace = Some (path, loaded);
    }

(* ---- output ------------------------------------------------------------------ *)

let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"
let json_string s = "\"" ^ String.escaped s ^ "\""
let json_list f xs = "[" ^ String.concat "," (List.map f xs) ^ "]"

let json_obj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> json_string k ^ ":" ^ v) fields) ^ "}"

let record (w : workload) ~seed ~seconds ~smoke (r : result) =
  let metric m =
    ( m.name,
      json_obj
        [
          ("value", json_float m.value);
          ("unit", json_string m.unit_);
          ("n", string_of_int m.n);
          ("exact", string_of_bool m.exact);
          ("better", json_string (if m.higher then "higher" else "lower"));
        ] )
  in
  let round (x : round) =
    json_obj
      ([
         ("seed", string_of_int x.seed);
         ("traced", string_of_bool x.traced);
         ("samples", string_of_int (resolved x.cells));
         ("wall_s", json_float x.wall);
       ]
      @ match x.serial with Some (_, w1) -> [ ("workers1_wall_s", json_float w1) ] | None -> [])
  in
  let env =
    [
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", json_string Sys.ocaml_version);
      ("workers", string_of_int workers);
      ("programs", json_list json_string w.programs);
      ("tools", string_of_int (List.length tools));
      ("models", json_list (fun m -> json_string (F.string_of_model m)) w.models);
      ("samples_per_cell", string_of_int w.samples);
    ]
  in
  let trace =
    match r.trace with
    | None -> []
    | Some (path, l) ->
      [
        ( "trace",
          json_obj
            [
              ("path", json_string path);
              ("events", string_of_int (List.length l.Obs.Tracefile.events));
              ("skipped", string_of_int l.Obs.Tracefile.skipped);
              ("torn", string_of_bool l.Obs.Tracefile.torn);
            ] );
      ]
  in
  json_obj
    ([
       ("workload", json_string w.name);
       ("seed", string_of_int seed);
       ("seconds", json_float seconds);
       ("smoke", string_of_bool smoke);
       ("env", json_obj env);
       ("rounds", json_list round r.rounds);
       ("digest", json_string r.digest);
       ("correct", string_of_bool (r.wrong = 0));
       ("wrong_outputs", string_of_int r.wrong);
       ("attempted", string_of_int r.attempted);
       ("failed", string_of_int r.failed);
     ]
    @ trace
    @ [ ("metrics", json_obj (List.map metric r.metrics)) ])

let () =
  let workload = ref "" and seed = ref 20170712 and seconds = ref 15.0 in
  let trace = ref None and smoke = ref false and expect_digest = ref None in
  let names = String.concat ", " (List.map (fun (w : workload) -> w.name) workloads) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " one of: " ^ names);
      ("--seed", Arg.Set_int seed, " input seed (default 20170712)");
      ("--seconds", Arg.Set_float seconds, " wall budget for the campaign rounds (default 15)");
      ( "--trace",
        Arg.String (fun f -> trace := Some f),
        "FILE trace run: per-layer metrics, spans to FILE" );
      ("--smoke", Arg.Set smoke, " toy size: two programs, two samples per cell");
      ( "--expect-digest",
        Arg.String (fun d -> expect_digest := Some d),
        "HEX committed round-0 digest" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perf.exe --workload NAME [--seed N] [--seconds S] [--trace FILE] [--smoke]";
  match List.find_opt (fun (w : workload) -> w.name = !workload) workloads with
  | None ->
    prerr_endline ("perf.exe: --workload must be one of: " ^ names);
    exit 2
  | Some w ->
    let w = if !smoke then toy w else w in
    let setup_budget = if !smoke then 0.0 else 3.0 in
    let r =
      run w ~seed:!seed ~seconds:!seconds ~setup_budget ~trace:!trace ~expect_digest:!expect_digest
    in
    print_endline (record w ~seed:!seed ~seconds:!seconds ~smoke:!smoke r);
    exit (if r.wrong = 0 then 0 else 1)
