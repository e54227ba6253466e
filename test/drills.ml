(* End-to-end drills: the cross-layer scenarios that need whole campaigns,
   worker processes or signals.  One named drill runs per process, so the
   observability switch, the metrics registry and the artifact caches
   never leak from one drill into the next.  Each has a dune alias:

     dune build @NAME-smoke          (runs: drills.exe NAME)

   campaign  in-process kill + journal resume, bit-identical to a fresh run
   obs       metrics + JSONL trace + overhead attribution on a 2x2 campaign
   quota     output cap, chaos quarantine, kill + resume, identical CSV
   pass      verify-each campaign with the artifact cache: hits, no trips
   shard     worker SIGKILL / SIGSTOP and coordinator crash + resume
   live      live /status + /metrics over a crash-recovering sharded run
   fault     every fault model: sequential = 4 domains, CSV round-trip
             (opcode corruption on PINFI only)
   detach    detach armed, reg and mem faults: outcome tables = the
             step-loop oracle's, REFINE hands off and LLFI never does
   mem       all 14 programs x 3 tools prepared in one process stay under
             40 MB peak RSS *)

module C = Refine_campaign.Coordinator
module E = Refine_campaign.Experiment
module J = Refine_campaign.Journal
module Csv = Refine_campaign.Csv
module Rep = Refine_campaign.Report
module F = Refine_core.Fault
module T = Refine_core.Tool
module AC = Refine_passes.Artifact_cache
module Reg = Refine_bench_progs.Registry
module Obs = Refine_obs
module M = Obs.Metrics

(* the sharded drills' coordinator re-execs this very binary as workers *)
let () = Refine_campaign.Worker.maybe_exec ()

(* ---- shared helpers ---------------------------------------------------- *)

let tag = ref "drills"

let say fmt = Printf.ksprintf (fun s -> Printf.printf "[%s] %s\n%!" !tag s) fmt

let fail fmt =
  Printf.ksprintf
    (fun s ->
      say "FAIL: %s" s;
      exit 1)
    fmt

let check name cond = if not cond then fail "%s" name

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let counter_total name =
  List.fold_left
    (fun acc (n, _, v) -> match v with M.Counter c when n = name -> Int64.add acc c | _ -> acc)
    0L (M.snapshot ())

let sources names = List.map (fun n -> (n, (Reg.find n).Reg.source)) names

let cell_summary (c : E.cell) =
  Printf.sprintf "%s/%s crash=%d soc=%d benign=%d err=%d cost=%Ld" c.E.program
    (T.kind_name c.E.tool) c.E.counts.E.crash c.E.counts.E.soc c.E.counts.E.benign
    c.E.counts.E.tool_error c.E.injection_cost

let summary cells = String.concat " | " (List.map cell_summary cells)

let fully_resolved samples cells =
  List.for_all (fun (c : E.cell) -> E.total c.E.counts = samples) cells

(* dump the metrics registry in Prometheus text format, require every
   needle in it and a lint-clean exposition; returns the dump *)
let prom_dump_and_lint needles =
  let path = Filename.temp_file "refine_drill" ".prom" in
  M.save path;
  let dump = read_file path in
  Sys.remove path;
  List.iter (fun n -> if not (contains dump n) then fail "prometheus dump lacks %s" n) needles;
  (match Promlint.lint dump with
  | [] -> say "promlint: dump is clean"
  | errs -> fail "promlint: %s" (String.concat "; " errs));
  dump

let temp_journal () = Filename.temp_file "refine_drill" ".journal"

(* A matrix over a fresh journal at [path] (after [before] ran on it),
   interrupted by a watchdog after [polls] supervisor polls — the
   in-process stand-in for kill -9: only the journal survives.  Returns
   the journal reopened for resume and the thunk that resumes the matrix
   from it. *)
let kill_and_resume ?quotas ?(before = ignore) ~polls ~samples ~seed srcs tools path =
  let j = J.create path in
  before j;
  let n = ref 0 in
  let watchdog () =
    incr n;
    !n > polls
  in
  ignore (E.run_matrix ~journal:j ~watchdog ?quotas ~samples ~seed srcs tools);
  let total = List.length srcs * List.length tools * samples in
  say "interrupted: %d/%d samples checkpointed" (J.length j) total;
  check "watchdog fired, something was interrupted" (J.length j < total);
  let j2 = J.create ~resume:true path in
  check "clean journal has no skipped lines" (J.skipped j2 = 0);
  (j2, fun () -> E.run_matrix ~journal:j2 ?quotas ~samples ~seed srcs tools)

(* ---- campaign: in-process kill + resume --------------------------------- *)

let campaign () =
  let srcs = sources [ "DC"; "EP" ] and tools = [ T.Refine; T.Pinfi ] in
  let samples = 20 and seed = 11 in
  let path = temp_journal () in
  let _, resume = kill_and_resume ~polls:8 ~samples ~seed srcs tools path in
  let resumed = resume () in
  let fresh = E.run_matrix ~samples ~seed srcs tools in
  Sys.remove path;
  check "resumed campaign bit-identical to uninterrupted run" (summary resumed = summary fresh);
  check "fresh run healthy" (fully_resolved samples fresh && Rep.degradation fresh = []);
  say "PASS: resumed campaign bit-identical to uninterrupted run"

(* ---- obs: metrics + trace + overhead attribution ------------------------ *)

(* minimal JSON validator (objects, arrays, strings, numbers, atoms): an
   oracle independent of the trace writer and loader *)
let json_valid (s : string) =
  let n = String.length s and pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c = if peek () = Some c then advance () else raise Exit in
  let literal l =
    let ln = String.length l in
    if !pos + ln <= n && String.sub s !pos ln = l then pos := !pos + ln else raise Exit
  in
  let digits () =
    let start = !pos in
    while match peek () with Some '0' .. '9' -> true | _ -> false do
      advance ()
    done;
    if !pos = start then raise Exit
  in
  (* comma-separated items up to [close], after the opening bracket *)
  let seq close item =
    skip_ws ();
    if peek () = Some close then advance ()
    else
      let rec go () =
        item ();
        skip_ws ();
        match peek () with
        | Some ',' -> advance (); go ()
        | Some c when c = close -> advance ()
        | _ -> raise Exit
      in
      go ()
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
      advance ();
      seq '}' (fun () ->
          skip_ws ();
          string_lit ();
          skip_ws ();
          expect ':';
          value ())
    | Some '[' ->
      advance ();
      seq ']' value
    | Some '"' -> string_lit ()
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | Some ('-' | '0' .. '9') ->
      if peek () = Some '-' then advance ();
      digits ();
      if peek () = Some '.' then (advance (); digits ());
      (match peek () with
      | Some ('e' | 'E') ->
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
      | _ -> ())
    | _ -> raise Exit
  and string_lit () =
    expect '"';
    let rec go () =
      match peek () with
      | None -> raise Exit
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> advance ()
        | Some 'u' ->
          advance ();
          for _ = 1 to 4 do
            match peek () with
            | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
            | _ -> raise Exit
          done
        | _ -> raise Exit);
        go ()
      | Some _ ->
        advance ();
        go ()
    in
    go ()
  in
  try
    value ();
    skip_ws ();
    !pos = n
  with Exit -> false

let obs () =
  let tools = [ T.Refine; T.Pinfi ] and samples = 12 and seed = 5 in
  let trace = Filename.temp_file "refine_drill" ".trace.jsonl" in
  Obs.Control.enable ();
  Obs.Span.set_file_sink trace;
  let cells = E.run_matrix ~samples ~seed (sources [ "DC"; "EP" ]) tools in
  Obs.Span.close_sink ();
  check "every cell resolved every sample" (fully_resolved samples cells);

  (* every trace line is valid JSON and the expected span names appear *)
  let lines =
    String.split_on_char '\n' (read_file trace) |> List.filter (fun l -> String.trim l <> "")
  in
  Sys.remove trace;
  if lines = [] then fail "trace is empty";
  List.iteri
    (fun i l -> if not (json_valid l) then fail "trace line %d is not valid JSON: %s" (i + 1) l)
    lines;
  List.iter
    (fun s ->
      let needle = Printf.sprintf "\"name\":\"%s\"" s in
      if not (List.exists (fun l -> contains l needle) lines) then fail "no '%s' span in trace" s)
    [ "prepare"; "inject"; "sample"; "execute" ];
  say "trace: %d valid JSONL events" (List.length lines);

  List.iter
    (fun name ->
      let v = counter_total name in
      if v <= 0L then fail "counter %s is %Ld" name v;
      say "%s = %Ld" name v)
    [
      "refine_campaign_samples_total";
      "refine_campaign_cells_total";
      "refine_exec_steps_total";
      "refine_fi_site_hits_total";
      "refine_run_cost_units_total";
      "refine_supervisor_tasks_total";
    ];
  ignore
    (prom_dump_and_lint
       [
         "# TYPE refine_campaign_samples_total counter";
         "refine_span_duration_seconds_bucket";
         "le=\"+Inf\"";
       ]);

  (* overhead attribution reached the cells *)
  List.iter
    (fun (c : E.cell) ->
      if c.E.timing.E.execute_s <= 0.0 then
        fail "%s/%s has no execute time attributed" c.E.program (T.kind_name c.E.tool))
    cells;
  say "PASS: metrics + trace + overhead attribution all live"

(* ---- quota: output cap, chaos quarantine, kill + resume ----------------- *)

(* output amplification: a flipped bit in the loop bound or counter makes
   the program print orders of magnitude more than its golden run *)
let amp_src =
  {|
int main() {
  int i;
  int n;
  n = 48;
  for (i = 0; i < n; i = i + 1) { print_int(i); }
  return 0;
}
|}

let quota () =
  let programs = [ ("AMP", amp_src) ] and tools = [ T.Llfi; T.Refine; T.Pinfi ] in
  let samples = 24 and seed = 3 in
  (* an absolute output cap, a few x golden *)
  let quotas = { T.no_quotas with T.output_bytes = Some 512 } in
  let break_mir = { T.break_mir = true; flaky_golden = false } in
  (* a second program whose REFINE cell is chaos-quarantined *)
  let run_adv ?journal ?chaos () =
    List.map
      (fun tool ->
        let chaos = if tool = T.Refine then chaos else None in
        E.run_cell ?journal ?chaos ~quotas ~samples ~seed tool ~program:"ADV" ~source:amp_src ())
      [ T.Refine; T.Llfi; T.Pinfi ]
  in
  Obs.Control.enable ();
  let path = temp_journal () in

  (* phase 1: quarantine the chaos cell, then kill the campaign mid-run;
     phase 2: resume — the quarantined cell must short-circuit from the
     journal (no chaos this time), the rest must complete *)
  let quarantine j =
    match (List.hd (run_adv ~journal:j ~chaos:break_mir ())).E.quarantined with
    | Some r when contains r "mir-verifier" -> ()
    | _ -> fail "chaos cell was not quarantined"
  in
  let j2, resume =
    kill_and_resume ~quotas ~before:quarantine ~polls:6 ~samples ~seed programs tools path
  in
  let adv_resumed = run_adv ~journal:j2 () in
  check "journaled quarantine short-circuits the resume"
    ((List.hd adv_resumed).E.quarantined <> None);
  let resumed = resume () in
  Sys.remove path;

  (* phase 3: uninterrupted reference; CSVs must match byte-for-byte once
     the wall-clock timing attribution columns are zeroed *)
  let fresh = E.run_matrix ~quotas ~samples ~seed programs tools in
  let adv_fresh = run_adv ~chaos:break_mir () in
  let csv cells = Csv.to_string (List.map (fun c -> { c with E.timing = E.zero_timing }) cells) in
  check "resumed CSV identical to uninterrupted run"
    (csv (resumed @ adv_resumed) = csv (fresh @ adv_fresh));
  ignore (Csv.of_string (csv (resumed @ adv_resumed)));

  (* every non-quarantined cell resolved every sample: quota trips are
     experimental Crash outcomes, not harness failures *)
  let all = fresh @ adv_fresh in
  List.iter
    (fun (c : E.cell) ->
      if c.E.quarantined = None && E.total c.E.counts <> samples then
        fail "%s/%s resolved %d of %d samples" c.E.program (T.kind_name c.E.tool)
          (E.total c.E.counts) samples)
    all;
  let trips = counter_total "refine_quota_trips_total" in
  check "quota trips recorded under a 512-byte output cap" (trips > 0L);
  let quarantined = counter_total "refine_quarantined_cells_total" in
  check "quarantine counted" (quarantined > 0L);
  say "quota trips = %Ld, quarantined cells = %Ld" trips quarantined;

  (* chi-squared excludes the quarantined cell and the reports flag it *)
  let rows = Rep.chi2_rows all [ "AMP"; "ADV" ] in
  let adv_row = List.find (fun (r : Rep.chi2_row) -> r.Rep.program = "ADV") rows in
  check "chi2 row excludes the quarantined REFINE cell"
    (List.mem_assoc "REFINE" adv_row.Rep.quarantined_tools);
  check "table5 has the [q] mark" (contains (Rep.table5 rows) "[q]");
  check "degradation report has the QUARANTINED line"
    (contains (String.concat "\n" (Rep.degradation all)) "QUARANTINED");
  say "PASS: quotas tripped, quarantine journaled + resumed, CSV bit-identical"

(* ---- pass: verified pipelines with the artifact cache on ---------------- *)

let pass () =
  let programs = [ "DC"; "EP" ] and tools = [ T.Refine; T.Llfi ] in
  let samples = 12 and seed = 23 in
  T.reset_artifact_caches ();
  let run () = E.run_matrix ~verify_each:true ~samples ~seed (sources programs) tools in
  let first = run () in
  let rerun = run () in
  check "first run healthy under --verify-each"
    (fully_resolved samples first
    && List.for_all (fun (c : E.cell) -> c.E.quarantined = None) first);
  check "cached rerun identical to first run" (summary first = summary rerun);
  let ir = AC.stats "ir" and prepared = AC.stats "prepared" in
  say "ir cache: %d hits / %d misses; prepared: %d hits / %d misses" ir.AC.hits ir.AC.misses
    prepared.AC.hits prepared.AC.misses;
  check "artifact cache was hit" (ir.AC.hits + prepared.AC.hits > 0);
  check "no verifier/fingerprint trips during a clean campaign"
    (ir.AC.invalidations + prepared.AC.invalidations = 0);
  check "IR tier shared compiles across tools" (T.compile_invocations () <= List.length programs);
  say "PASS: verified pipeline campaign healthy, cache hit, zero verifier trips"

(* ---- shard: crash drills through the sharded coordinator ---------------- *)

let shard () =
  let programs = [ "DC"; "EP" ] and samples = 12 and seed = 7 in
  let srcs = sources programs in
  let total = List.length programs * List.length Rep.tools * samples in
  let counter name = match M.find name [] with Some (M.Counter v) -> v | _ -> 0L in
  let sharded ?journal chaos =
    let options = { C.default_options with C.workers = 2; deadline_s = 0.5; chaos } in
    C.run_matrix ~options ?journal ~samples ~seed srcs Rep.tools
  in
  Obs.Control.enable ();
  let reference = E.run_matrix ~domains:2 ~samples ~seed srcs Rep.tools in
  let t6_ref = Rep.table6 reference programs in
  check "reference fully resolved" (fully_resolved samples reference);
  let same what cells =
    check (what ^ ": table6 bit-identical") (Rep.table6 cells programs = t6_ref);
    check (what ^ ": zero lost cells") (fully_resolved samples cells)
  in

  (* drill 1: SIGKILL one of two workers mid-flight.  The kill lands while
     the worker owns an unfinished chunk (triggered 2 samples in); if the
     scheduling race ever lets that chunk complete first, re-run the drill
     at a later trigger point — the equality checks hold every time, only
     the reassignment visibility needs an in-flight victim. *)
  let rec kill_drill attempt after =
    let reassigned0 = counter "refine_shard_reassigned_cells_total" in
    let restarts0 = counter "refine_shard_worker_restarts_total" in
    same "killed run" (sharded { C.no_chaos with C.kill_worker = Some (0, after) });
    check "killed run: worker restarted" (counter "refine_shard_worker_restarts_total" > restarts0);
    let reassigned = Int64.sub (counter "refine_shard_reassigned_cells_total") reassigned0 in
    if reassigned > 0L then say "kill drill: %Ld samples reassigned, results identical" reassigned
    else if attempt < 3 then kill_drill (attempt + 1) (after + 5)
    else fail "reassignment never observed"
  in
  kill_drill 1 2;

  (* drill 2: SIGSTOP = a hang; only the heartbeat deadline can reap it *)
  let restarts0 = counter "refine_shard_worker_restarts_total" in
  same "hung run" (sharded { C.no_chaos with C.stop_worker = Some (1, 2) });
  check "hung run: deadline reaped the hang"
    (counter "refine_shard_worker_restarts_total" > restarts0);
  say "hang drill: deadline reaped the stopped worker, results identical";

  (* drill 3: coordinator crash + journal resume *)
  let path = temp_journal () in
  let j = J.create path in
  (match sharded ~journal:j { C.no_chaos with C.abort_after = Some (total / 4) } with
  | _ -> fail "abort chaos never fired"
  | exception C.Aborted n ->
    J.close j;
    say "coordinator crashed after %d samples (journal: %d)" n (J.length j);
    check "partial journal" (J.length j > 0 && J.length j < total));
  let j2 = J.create ~resume:true path in
  same "resumed run" (sharded ~journal:j2 C.no_chaos);
  check "resumed run: journal complete" (J.length j2 = total);
  Sys.remove path;
  say "PASS: kill, hang and coordinator-crash drills all bit-identical (%d samples)" total

(* ---- live: /status + /metrics over a crash-recovering campaign ---------- *)

(* every integer following a "key": occurrence *)
let find_ints key body =
  let needle = Printf.sprintf "\"%s\":" key in
  let nn = String.length needle and nb = String.length body in
  let rec scan i acc =
    if i + nn > nb then List.rev acc
    else if String.sub body i nn = needle then begin
      let j = ref (i + nn) in
      let start = !j in
      if !j < nb && body.[!j] = '-' then incr j;
      while !j < nb && body.[!j] >= '0' && body.[!j] <= '9' do incr j done;
      let acc = if !j > start then int_of_string (String.sub body start (!j - start)) :: acc else acc in
      scan !j acc
    end
    else scan (i + 1) acc
  in
  scan 0 []

(* the body of a plain HTTP/1.0 GET against the loopback status server *)
let http_get port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let response =
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
  in
  let n = String.length response in
  let rec body i =
    if i + 4 > n then response
    else if String.sub response i 4 = "\r\n\r\n" then String.sub response (i + 4) (n - i - 4)
    else body (i + 1)
  in
  body 0

let live () =
  let samples = 12 and seed = 9 in
  let srcs = sources [ "DC"; "EP" ] in
  let total = List.length srcs * List.length Rep.tools * samples in
  Obs.Control.enable ();
  let srv = Obs.Serve.create () in
  let port = Obs.Serve.port srv in
  say "status server on port %d" port;
  (* 0 = campaign running, 1 = campaign done + metrics saved, 2 = client done *)
  let phase = Atomic.make 0 in
  let client =
    Domain.spawn (fun () ->
        let polls = ref [] and saw_dead = ref false in
        let rec watch () =
          let st = http_get port "/status" in
          (match find_ints "samples_done" st with v :: _ -> polls := v :: !polls | [] -> ());
          if contains st "\"alive\":false" then saw_dead := true;
          if Atomic.get phase >= 1 && contains st "\"finished\":true" then st
          else begin
            Unix.sleepf 0.005;
            watch ()
          end
        in
        let final_status = watch () in
        let metrics = http_get port "/metrics" in
        Atomic.set phase 2;
        (List.rev !polls, !saw_dead, final_status, metrics))
  in
  (* kill worker 0 a quarter of the way in: the respawn must be visible
     over /status as a nonzero restart count *)
  let options =
    {
      C.default_options with
      C.workers = 2;
      status = Some srv;
      chaos = { C.no_chaos with C.kill_worker = Some (0, total / 4) };
    }
  in
  let cells = C.run_matrix ~options ~samples ~seed srcs Rep.tools in
  let saved = prom_dump_and_lint [ "refine_campaign_samples_total" ] in
  Atomic.set phase 1;
  (* keep serving until the client has scraped the final state *)
  while Atomic.get phase < 2 do
    Obs.Serve.poll srv;
    Unix.sleepf 0.002
  done;
  Obs.Serve.poll srv;
  let polls, saw_dead, final_status, metrics = Domain.join client in
  Obs.Serve.close srv;

  check "campaign fully resolved" (fully_resolved samples cells);
  check "status was polled during the run" (List.length polls >= 2);
  let rec monotone = function a :: (b :: _ as rest) -> a <= b && monotone rest | _ -> true in
  check "samples_done monotone non-decreasing" (monotone polls);
  say "%d /status polls, progress %s" (List.length polls)
    (match (polls, List.rev polls) with f :: _, l :: _ -> Printf.sprintf "%d -> %d" f l | _ -> "-");
  check "final status reports finished" (contains final_status "\"finished\":true");
  check "final samples_done = total" (find_ints "samples_done" final_status = [ total ]);
  check "final eta is 0" (contains final_status "\"eta_s\":0.000");
  let restarts = List.fold_left ( + ) 0 (find_ints "restarts" final_status) in
  check "induced SIGKILL visible as a worker restart" (restarts >= 1);
  check "both worker slots reported" (List.length (find_ints "slot" final_status) = 2);
  say "worker restarts over /status: %d%s" restarts
    (if saw_dead then " (dead worker observed live)" else "");
  check "/metrics scrape byte-matches the saved dump" (metrics = saved);
  say "PASS: live /status + /metrics over a crash-recovering campaign (%d samples)" total

(* ---- fault: every fault model across domain counts ---------------------- *)

let fault_src =
  "global float acc[4]; global int bias = 7; int main() { int i; float x = 1.5; int s = 0; \
   for (i = 0; i < 40; i = i + 1) { x = x * 1.01 + 0.1; s = s + i + bias; acc[i % 4] = x; } \
   print_int(s); print_float(x); return 0; }"

let fault () =
  (* opcode corruption runs on PINFI alone: REFINE's and LLFI's binaries
     count operand sites *)
  let models =
    List.map (fun name -> (name, Rep.tools)) [ "reg"; "mem"; "instr"; "multi:3"; "burst:2" ]
    @ [ ("opcode", [ T.Pinfi ]) ]
  in
  let all =
    List.concat_map
      (fun (name, tools) ->
        let model = F.model_of_string name in
        let run domains =
          E.run_matrix ~domains ~model ~samples:12 ~seed:20170712 [ ("tiny", fault_src) ] tools
        in
        let seq = run 1 and par = run 4 in
        if summary seq <> summary par then
          fail "%s sequential <> domains 4\n  seq: %s\n  par: %s" name (summary seq) (summary par);
        (* every sample resolves: a corrupted encoding crashes the
           simulated program, never the harness, and an opcode cell is
           profiled over its own population *)
        List.iter
          (fun (c : E.cell) ->
            if c.E.quarantined = None && c.E.counts.E.tool_error > 0 then
              fail "%s samples surfaced as tool_error (%s)" name (cell_summary c))
          seq;
        say "%-8s %s" name (summary seq);
        seq)
      models
  in
  let key (c : E.cell) = (c.E.program, c.E.tool, c.E.model, c.E.counts, c.E.injection_cost) in
  let csv = Csv.to_string all in
  check "CSV round-trip keeps per-model cells" (List.map key (Csv.of_string csv) = List.map key all);
  check "the opcode row's fault_model column reads opcode" (contains csv "tiny,PINFI,opcode,1,");
  say "PASS: %d models bit-identical across domain counts, CSV round-trip" (List.length models)

(* ---- detach: invisible in results, visible in metrics ------------------- *)

let detach () =
  (* CoMD has call-site candidates: its REFINE twin holds collapsed jumps.
     Only REFINE has a detach target; LLFI's and PINFI's runs stay
     attached, decoded under their libraries' skip windows, so their
     tables are held to the oracle too *)
  let srcs = sources [ "DC"; "EP"; "CoMD" ] and tools = [ T.Refine; T.Llfi; T.Pinfi ] in
  let samples = 12 and seed = 5 in
  Obs.Control.enable ();
  (* every refine_detach_total series of [tool], whatever its other labels *)
  let handoffs tool =
    List.fold_left
      (fun acc (n, labels, v) ->
        match v with
        | M.Counter c when n = "refine_detach_total" && List.mem ("tool", tool) labels ->
          Int64.add acc c
        | _ -> acc)
      0L (M.snapshot ())
  in
  (* one leg per fault model: the campaign's table against the named
     oracle's, every sample re-run on a fresh step-loop engine with no
     detach, drawn from the campaign's own per-sample generators and
     under its default quotas *)
  let leg model =
    let cells = E.run_matrix ~model ~samples ~seed srcs tools in
    let oracle_cell (c : E.cell) =
      let p = T.prepare c.E.tool (List.assoc c.E.program srcs) in
      let master =
        Refine_support.Prng.create (E.cell_seed ~model ~seed ~program:c.E.program c.E.tool)
      in
      let counts = ref E.zero and cost = ref 0L in
      for _ = 1 to samples do
        let e =
          Oracle.injection ~quotas:T.default_quotas ~model p (Refine_support.Prng.split master)
        in
        counts := E.add_outcome !counts e.F.outcome;
        cost := Int64.add !cost e.F.run_cost
      done;
      { c with E.counts = !counts; injection_cost = !cost }
    in
    let name = F.string_of_model model in
    let production = summary cells and oracle = summary (List.map oracle_cell cells) in
    if production <> oracle then
      fail "%s: a detached campaign differs from the oracle\n  production: %s\n  oracle:     %s"
        name production oracle;
    say "%s: outcome tables bit-identical: production (detach armed) = oracle" name;
    say "%s" production
  in
  leg F.Reg_bit;
  let after_reg = handoffs "REFINE" in
  leg F.Mem_cell;
  (* the equalities above must not be vacuous: REFINE really handed off,
     in both legs, and LLFI never did *)
  check "REFINE handed off after register faults" (after_reg > 0L);
  check "REFINE handed off after memory faults" (handoffs "REFINE" > after_reg);
  check "LLFI never handed off" (handoffs "LLFI" = 0L);
  say "refine_detach_total: REFINE = %Ld (reg %Ld, mem %Ld), LLFI = %Ld (declined = %Ld)"
    (handoffs "REFINE") after_reg
    (Int64.sub (handoffs "REFINE") after_reg)
    (handoffs "LLFI")
    (counter_total "refine_detach_declined_total");
  ignore
    (prom_dump_and_lint
       [
         "# TYPE refine_detach_total counter";
         "# TYPE refine_detach_drain_steps histogram";
         "refine_detach_drain_steps_bucket";
         "le=\"+Inf\"";
       ]);
  say "PASS: detach invisible in results, visible in metrics"

(* ---- mem: prepared cells hold no whole-memory images ------------------- *)

(* VmHWM, the process's peak resident set, in MB *)
let peak_rss_mb () =
  let ic =
    try open_in "/proc/self/status"
    with Sys_error e -> fail "cannot read the peak resident set: %s" e
  in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb -> kb / 1024)
    | _ -> find ()
    | exception End_of_file -> fail "/proc/self/status has no VmHWM line"
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

let mem () =
  let limit_mb = 40 and samples = 2 in
  let cells = E.run_matrix ~domains:1 ~samples ~seed:20170712 (sources Reg.names) Rep.tools in
  check "every cell prepared and sampled"
    (fully_resolved samples cells
    && List.for_all (fun (c : E.cell) -> c.E.quarantined = None) cells);
  let mb = peak_rss_mb () in
  say "%d cells x %d samples: peak RSS %d MB (limit %d MB)" (List.length cells) samples mb limit_mb;
  if mb > limit_mb then fail "peak RSS %d MB exceeds %d MB" mb limit_mb;
  say "PASS: %d prepared cells in %d MB" (List.length cells) mb

let drills =
  [
    ("campaign", campaign);
    ("obs", obs);
    ("quota", quota);
    ("pass", pass);
    ("shard", shard);
    ("live", live);
    ("fault", fault);
    ("detach", detach);
    ("mem", mem);
  ]

let () =
  match Sys.argv with
  | [| _; name |] when List.mem_assoc name drills ->
    tag := name ^ "-smoke";
    (List.assoc name drills) ()
  | _ ->
    prerr_endline ("usage: drills.exe (" ^ String.concat " | " (List.map fst drills) ^ ")");
    exit 2
