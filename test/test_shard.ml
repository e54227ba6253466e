(* Sharded campaign tests: wire-codec strictness (every frame round-trips,
   no truncated buffer decodes, the deframer never mis-reads a torn tail)
   and the headline determinism property — a campaign sharded over worker
   processes is bit-identical to in-process domains and to a sequential
   run with the same seed. *)

module S = Refine_campaign.Shard
module C = Refine_campaign.Coordinator
module E = Refine_campaign.Experiment
module Rep = Refine_campaign.Report
module J = Refine_campaign.Journal
module W = Refine_support.Wire
module F = Refine_core.Fault
module T = Refine_core.Tool
module M = Refine_obs.Metrics
module Sp = Refine_obs.Span

(* ---- frame generators -------------------------------------------------- *)

let gen_str = QCheck.Gen.(string_size (int_bound 40)) (* full byte range *)
let gen_i64 = QCheck.Gen.map Int64.of_int QCheck.Gen.int

(* dyadic rationals: finite, and exactly representable so structural
   equality after an IEEE-754 round-trip is honest *)
let gen_f = QCheck.Gen.map (fun i -> float_of_int i *. 0.0625) QCheck.Gen.(int_range (-1_000_000) 1_000_000)
let gen_outcome = QCheck.Gen.oneofl [ F.Crash; F.Soc; F.Benign; F.Tool_error ]

let gen_model_str =
  QCheck.Gen.oneofl [ "reg"; "mem"; "instr"; "multi:3"; "burst:4" ]

(* an entry travels as its journal line, whose names hold no TAB *)
let gen_name = QCheck.Gen.map (String.map (function '\t' -> ' ' | c -> c)) gen_str

let gen_entry =
  QCheck.Gen.(
    map
      (fun ((program, tool, sample, outcome, cost, attempts), model) ->
        { J.program; tool; model; sample; outcome; cost; attempts })
      (pair (tup6 gen_name gen_name small_nat gen_outcome gen_i64 small_nat) gen_model_str))

let gen_config =
  QCheck.Gen.(
    map
      (fun ((seed, retries, cost_cap, output_quota), (verify_each, pipeline), (obs, trace)) ->
        { S.seed; retries; cost_cap; output_quota; verify_each; pipeline; obs; trace })
      (tup3
         (tup4 int small_nat (opt gen_i64) (opt small_nat))
         (pair bool (opt gen_str))
         (pair bool bool)))

(* ---- observability-plane payloads -------------------------------------- *)

let gen_labels = QCheck.Gen.(small_list (pair gen_str gen_str))

let gen_value =
  QCheck.Gen.(
    oneof
      [
        map (fun v -> M.Counter v) gen_i64;
        map (fun v -> M.Gauge v) gen_f;
        map
          (fun (raw, cs, sum, count) ->
            let bounds = Array.of_list (List.sort_uniq compare raw) in
            let ncs = List.length cs in
            let counts =
              Array.init (Array.length bounds + 1) (fun i ->
                  Int64.of_int (List.nth cs (i mod ncs)))
            in
            M.Histogram { M.bounds; counts; sum; count })
          (tup4
             (list_size (int_range 1 5) gen_f)
             (list_size (int_range 1 6) small_nat)
             gen_f
             (map Int64.of_int small_nat));
      ])

let gen_item =
  QCheck.Gen.(
    map
      (fun (x_name, x_labels, x_help, x_value) -> { M.x_name; x_labels; x_help; x_value })
      (tup4 gen_str gen_labels gen_str gen_value))

let gen_event =
  QCheck.Gen.(
    map
      (fun ((name, attrs, t_start, dur_s, depth), (domain, cost, ok, trace, span_id, parent)) ->
        { Sp.name; attrs; t_start; dur_s; depth; domain; cost; ok; trace; span_id; parent })
      (pair
         (tup5 gen_str gen_labels gen_f gen_f small_nat)
         (tup6 small_nat gen_i64 bool gen_str small_nat small_nat)))

let gen_summary =
  QCheck.Gen.(
    map
      (fun ((chunk, program, tool, quarantined, dyn_count),
            (profile_cost, static_instrumented, instrument_s),
            (compile_s, execute_s, harness_s, failures)) ->
        {
          S.chunk;
          program;
          tool;
          quarantined;
          dyn_count;
          profile_cost;
          static_instrumented;
          instrument_s;
          compile_s;
          execute_s;
          harness_s;
          failures;
        })
      (tup3
         (tup5 small_nat gen_str gen_str bool gen_i64)
         (tup3 gen_i64 small_nat gen_f)
         (tup4 gen_f gen_f gen_f (small_list (tup3 small_nat small_nat gen_str)))))

let gen_frame =
  QCheck.Gen.(
    oneof
      [
        map (fun (pid, version) -> S.Hello { pid; version }) (pair small_nat small_nat);
        map (fun c -> S.Init c) gen_config;
        map
          (fun ((chunk, program, source, tool, model), (samples, todo, trace, parent_span)) ->
            S.Assign { chunk; program; source; tool; model; samples; todo; trace; parent_span })
          (pair
             (tup5 small_nat gen_str gen_str gen_str gen_model_str)
             (tup4 small_nat (small_list small_nat) gen_str small_nat));
        map (fun (chunk, entry) -> S.Outcome { chunk; entry }) (pair small_nat gen_entry);
        map
          (fun (program, tool, reason) -> S.Quarantine { program; tool; reason })
          (tup3 gen_str gen_str gen_str);
        map (fun s -> S.Chunk_done s) gen_summary;
        map
          (fun (chunk, message) -> S.Chunk_failed { chunk; message })
          (pair small_nat gen_str);
        map (fun completed -> S.Heartbeat { completed }) small_nat;
        return S.Shutdown;
        map (fun items -> S.Metrics_delta items) (small_list gen_item);
        map (fun events -> S.Trace_batch events) (small_list gen_event);
      ])

let arb_frame = QCheck.make ~print:S.frame_name gen_frame

(* ---- codec properties -------------------------------------------------- *)

let prop_roundtrip =
  QCheck.Test.make ~name:"every frame round-trips bit-exactly" ~count:300 arb_frame (fun f ->
      S.decode (S.encode f) = f)

let prop_no_prefix_decodes =
  QCheck.Test.make ~name:"no strict prefix of a frame decodes" ~count:300
    QCheck.(pair arb_frame small_nat)
    (fun (f, cut) ->
      let p = S.encode f in
      let cut = cut mod String.length p in
      match S.decode (String.sub p 0 cut) with
      | _ -> false
      | exception (W.Truncated | Invalid_argument _) -> true)

(* One corrupted payload byte: the decoder must reject the frame with one
   of its three errors, or return a frame that re-encodes to exactly the
   corrupted bytes — a decoder that wraps an out-of-range int or reads any
   nonzero tag as [Some] would return a frame the bytes never encoded *)
let prop_corrupt_byte_canonical =
  QCheck.Test.make ~name:"a corrupted payload byte is rejected or decodes canonically"
    ~count:2000
    QCheck.(triple arb_frame (int_bound 1_000_000) (int_range 1 255))
    (fun (f, pos, mask) ->
      let b = Bytes.of_string (S.encode f) in
      let pos = pos mod Bytes.length b in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor mask));
      let corrupted = Bytes.to_string b in
      match S.decode corrupted with
      | g -> S.encode g = corrupted
      | exception (W.Truncated | Invalid_argument _ | S.Protocol_mismatch _) -> true)

(* The same corruption focused on Outcome frames of realistic entries:
   the one decoder of a sample record ([Journal.parse], behind the frame)
   must reject the bytes or return the entry they now spell — never
   another one.  Sample and cost have several digits, and half the masks
   turn the byte into a character the number readers or the field
   splitter treat specially. *)
let prop_outcome_byte_corruption =
  let specials = [ '0'; '_'; '+'; '-'; 'x'; 'b'; 'o'; 'L'; '\t'; '\n'; ' ' ] in
  let gen =
    QCheck.Gen.(
      let* chunk = int_bound 999 in
      let* program = oneofl [ "CG"; "HPCCG-1.0"; "lulesh" ] in
      let* tool = oneofl [ "REFINE"; "LLFI"; "PINFI" ] in
      let* model = gen_model_str and* outcome = gen_outcome in
      let* sample = int_range 10 99_999 and* attempts = int_range 1 3 in
      let* cost = map Int64.of_int (int_range 100 999_999_999) in
      let* pos = int_bound 1023 in
      let* mask =
        oneof [ map (fun m -> `Mask m) (int_range 1 255); map (fun c -> `Into c) (oneofl specials) ]
      in
      return
        ( S.Outcome { chunk; entry = { J.program; tool; model; sample; outcome; cost; attempts } },
          pos,
          mask ))
  in
  let print (f, pos, mask) =
    Printf.sprintf "%S, byte %d %s" (S.encode f) pos
      (match mask with `Mask m -> Printf.sprintf "xor 0x%02x" m | `Into c -> Printf.sprintf "into %C" c)
  in
  QCheck.Test.make ~name:"corrupted Outcome byte never misread" ~count:1000
    (QCheck.make ~print gen)
    (fun (f, pos, mask) ->
      let b = Bytes.of_string (S.encode f) in
      let pos = pos mod Bytes.length b in
      let orig = Char.code (Bytes.get b pos) in
      let mask =
        match mask with
        | `Mask m -> m
        | `Into c -> if Char.code c = orig then 0xff else Char.code c lxor orig
      in
      Bytes.set b pos (Char.chr (orig lxor mask));
      let corrupted = Bytes.to_string b in
      match S.decode corrupted with
      | g -> S.encode g = corrupted
      | exception (W.Truncated | Invalid_argument _ | S.Protocol_mismatch _) -> true)

let prop_stream_reassembles =
  QCheck.Test.make ~name:"deframer reassembles frames across arbitrary chunking" ~count:100
    QCheck.(pair (small_list arb_frame) small_nat)
    (fun (frames, step) ->
      let bytes = String.concat "" (List.map (fun f -> W.frame (S.encode f)) frames) in
      let step = 1 + (step mod 7) in
      let st = W.stream () in
      let n = String.length bytes in
      let i = ref 0 in
      while !i < n do
        let len = min step (n - !i) in
        W.feed st (Bytes.of_string (String.sub bytes !i len)) len;
        i := !i + len
      done;
      let rec pop acc =
        match W.next st with None -> List.rev acc | Some p -> pop (S.decode p :: acc)
      in
      pop [] = frames && W.residue st = 0)

let prop_torn_tail_is_residue =
  QCheck.Test.make ~name:"a torn trailing frame is residue, never a decode" ~count:200
    QCheck.(pair arb_frame small_nat)
    (fun (f, cut) ->
      let bytes = W.frame (S.encode f) in
      let keep = 1 + (cut mod (String.length bytes - 1)) in
      let st = W.stream () in
      W.feed st (Bytes.of_string (String.sub bytes 0 keep)) keep;
      W.next st = None && W.residue st = keep)

let test_tool_names () =
  List.iter
    (fun t -> Alcotest.(check bool) "tool name inverts" true (S.tool_of_name (T.kind_name t) = t))
    [ T.Refine; T.Llfi; T.Pinfi ];
  Alcotest.check_raises "unknown tool" (Invalid_argument "Shard.tool_of_name: BOGUS") (fun () ->
      ignore (S.tool_of_name "bogus"))

(* an unknown tag is a protocol-version skew, not a torn frame: it must
   surface as Protocol_mismatch naming the local version and the tag *)
let test_unknown_tag () =
  match S.decode "\xfe" with
  | _ -> Alcotest.fail "tag 254 decoded"
  | exception S.Protocol_mismatch { expected_version; tag } ->
    Alcotest.(check int) "reports local protocol version" S.version expected_version;
    Alcotest.(check int) "reports offending tag" 254 tag

(* An Init payload in an older layout: v7 carried the switch that derived
   the output cap after the cap itself, v6 also three more quota fields
   between the two ([retired]: an int, a float and an int option), and v5
   also the artifact-cache switch after [verify_each]. *)
let old_init ?cache ?retired ?output_quota ?(derive = true) ~verify_each ~pipeline ~obs ~trace ()
    =
  let b = Buffer.create 64 in
  W.put_u8 b 2;
  W.put_int b 1 (* seed *);
  W.put_int b 0 (* retries *);
  W.put_option b W.put_i64 None (* cost_cap *);
  W.put_option b W.put_int output_quota;
  Option.iter
    (fun (q1, q2, q3) ->
      W.put_option b W.put_int q1;
      W.put_option b W.put_f64 q2;
      W.put_option b W.put_int q3)
    retired;
  W.put_bool b derive;
  W.put_bool b verify_each;
  Option.iter (W.put_bool b) cache;
  W.put_option b W.put_string pipeline;
  W.put_bool b obs;
  W.put_bool b trace;
  Buffer.contents b

let rejected what payload =
  match S.decode payload with
  | _ -> Alcotest.failf "%s decoded: %S" what payload
  | exception (W.Truncated | Invalid_argument _) -> ()

let test_pipeline = "mem2reg,isel,regalloc,frame,layout"

(* A v5 peer's frames must not decode under the current version as some
   other frame.  Its Init still carried the artifact-cache switch: every
   combination of its switches and pipeline option is rejected.  Its
   Outcome carried the entry as seven binary fields instead of the
   journal line. *)
let test_v5_frames_rejected () =
  let rejected what = rejected ("a v5 " ^ what) in
  for bits = 0 to 31 do
    let bit k = bits land (1 lsl k) <> 0 in
    let verify_each = bit 0 and cache = bit 1 and obs = bit 2 and trace = bit 3 in
    let pipeline = if bit 4 then Some test_pipeline else None in
    let v5 = old_init ~cache ~retired:(None, None, None) ~verify_each ~pipeline ~obs ~trace () in
    let now = S.encode (S.Init { S.default_config with S.verify_each; pipeline; obs; trace }) in
    (* the v5 layout is the current one plus three option tags and two
       bools *)
    Alcotest.(check int) "v5 Init layout" (String.length now + 5) (String.length v5);
    rejected "Init" v5
  done;
  let v5_outcome (e : J.entry) =
    let b = Buffer.create 64 in
    W.put_u8 b 4;
    W.put_int b 3 (* chunk *);
    W.put_string b e.J.program;
    W.put_string b e.J.tool;
    W.put_string b e.J.model;
    W.put_int b e.J.sample;
    W.put_string b (F.string_of_outcome e.J.outcome);
    W.put_i64 b e.J.cost;
    W.put_int b e.J.attempts;
    Buffer.contents b
  in
  let entry program model outcome =
    { J.program; tool = "REFINE"; model; sample = 7; outcome; cost = 1234L; attempts = 1 }
  in
  List.iter
    (fun e ->
      (* the current frame of the same entry decodes *)
      let f = S.Outcome { chunk = 3; entry = e } in
      Alcotest.(check bool) "Outcome round-trips" true (S.decode (S.encode f) = f);
      rejected "Outcome" (v5_outcome e))
    [ entry "DC" "reg" F.Crash; entry "HPCCG-1.0" "multi:3" F.Benign; entry "" "mem" F.Soc ];
  (* nor when its program field happens to hold a whole journal line *)
  let line = J.render (entry "EP" "reg" F.Benign) in
  rejected "Outcome" (v5_outcome (entry line "burst:2" F.Tool_error))

(* A v6 peer's Init still carried the three retired quota fields: under
   every combination of them, its switches and its pipeline option, it is
   rejected rather than read as some other config.  So is a v7 peer's
   Init, which carried the switch deriving the output cap, under every
   combination of that switch, the cap and the rest; and its Chunk_done,
   which carried the golden exit code and output length, whether the
   cell was quarantined or sampled, with or without failures. *)
let test_v6_init_rejected () =
  for bits = 0 to 127 do
    let bit k = bits land (1 lsl k) <> 0 in
    let verify_each = bit 0 and obs = bit 1 and trace = bit 2 in
    let pipeline = if bit 3 then Some test_pipeline else None in
    let q1 = if bit 4 then Some 65536 else None in
    let q2 = if bit 5 then Some 5.0 else None in
    let q3 = if bit 6 then Some 1_000_000 else None in
    let v6 = old_init ~retired:(q1, q2, q3) ~verify_each ~pipeline ~obs ~trace () in
    let now = S.encode (S.Init { S.default_config with S.verify_each; pipeline; obs; trace }) in
    if bits land 0x70 = 0 then
      (* with no quota set, the v6 layout is the current one plus three
         option tags and a bool *)
      Alcotest.(check int) "v6 Init layout" (String.length now + 4) (String.length v6);
    rejected "a v6 Init" v6;
    let derive = bit 4 and output_quota = if bit 5 then Some 4096 else None in
    let v7 = old_init ~derive ?output_quota ~verify_each ~pipeline ~obs ~trace () in
    let now =
      S.encode (S.Init { S.default_config with S.output_quota; verify_each; pipeline; obs; trace })
    in
    (* the v7 layout is the current one plus a bool *)
    Alcotest.(check int) "v7 Init layout" (String.length now + 1) (String.length v7);
    rejected "a v7 Init" v7
  done;
  let v7_chunk_done (s : S.chunk_summary) =
    let b = Buffer.create 128 in
    W.put_u8 b 6;
    W.put_int b s.S.chunk;
    W.put_string b s.S.program;
    W.put_string b s.S.tool;
    W.put_bool b s.S.quarantined;
    W.put_int b 0 (* golden_exit *);
    W.put_i64 b s.S.dyn_count;
    W.put_i64 b s.S.profile_cost;
    W.put_int b 1234 (* golden output length *);
    W.put_int b s.S.static_instrumented;
    List.iter (W.put_f64 b) [ s.S.instrument_s; s.S.compile_s; s.S.execute_s; s.S.harness_s ];
    W.put_list b
      (fun b (sample, attempts, msg) ->
        W.put_int b sample;
        W.put_int b attempts;
        W.put_string b msg)
      s.S.failures;
    Buffer.contents b
  in
  let sampled =
    {
      S.chunk = 5;
      program = "HPCCG-1.0";
      tool = "REFINE";
      quarantined = false;
      dyn_count = 123_456L;
      profile_cost = 9_876_543L;
      static_instrumented = 321;
      instrument_s = 0.004;
      compile_s = 0.031;
      execute_s = 0.25;
      harness_s = 0.0;
      failures = [];
    }
  in
  let quarantined =
    {
      sampled with
      S.quarantined = true;
      dyn_count = 0L;
      profile_cost = 0L;
      static_instrumented = 0;
      instrument_s = 0.0;
      compile_s = 0.0;
      execute_s = 0.0;
    }
  in
  List.iter
    (fun s ->
      let now = S.encode (S.Chunk_done s) in
      Alcotest.(check bool) "Chunk_done round-trips" true (S.decode now = S.Chunk_done s);
      let v7 = v7_chunk_done s in
      (* the v7 layout is the current one plus two ints *)
      Alcotest.(check int) "v7 Chunk_done layout" (String.length now + 16) (String.length v7);
      rejected "a v7 Chunk_done" v7)
    [
      sampled;
      quarantined;
      { sampled with S.failures = [ (7, 2, "Failure(\"flaky\")") ] };
      { sampled with S.execute_s = 0.0; harness_s = 1.5 };
    ]

(* ---- sharded = domains = sequential ------------------------------------ *)

let src =
  {|
int main() {
  int i; float s = 0.0;
  for (i = 0; i < 25; i = i + 1) { s = s + tofloat(i * i) * 0.125; }
  print_float(s);
  return 0;
}
|}

let key (c : E.cell) =
  (c.E.program, T.kind_name c.E.tool, c.E.counts, c.E.injection_cost, c.E.quarantined)

let test_workers_match_domains () =
  let samples = 8 and seed = 11 in
  let programs = [ ("tiny", src) ] in
  let sequential = E.run_matrix ~domains:1 ~samples ~seed programs Rep.tools in
  let domains = E.run_matrix ~domains:4 ~samples ~seed programs Rep.tools in
  let options = { C.default_options with C.workers = 4 } in
  let sharded = C.run_matrix ~options ~samples ~seed programs Rep.tools in
  Alcotest.(check bool) "domains = sequential" true
    (List.map key domains = List.map key sequential);
  Alcotest.(check bool) "workers = sequential" true
    (List.map key sharded = List.map key sequential);
  let t5 cells = Rep.table5 (Rep.chi2_rows cells [ "tiny" ]) in
  Alcotest.(check string) "table5 identical" (t5 sequential) (t5 sharded)

(* The output cap crosses the process boundary: a 4-byte cap, shorter
   than the golden output, leaves no sample benign, in-process and in the
   workers alike. *)
let test_workers_carry_quotas () =
  let samples = 6 and seed = 19 in
  let programs = [ ("tiny", src) ] in
  let in_process = E.run_matrix ~domains:2 ~output_quota:4 ~samples ~seed programs Rep.tools in
  Alcotest.(check bool) "no sample is benign under the cap" true
    (List.for_all (fun (c : E.cell) -> c.E.counts.E.benign = 0) in_process);
  let options = { C.default_options with C.workers = 2 } in
  let sharded = C.run_matrix ~options ~output_quota:4 ~samples ~seed programs Rep.tools in
  Alcotest.(check bool) "workers = in-process under an output cap" true
    (List.map key sharded = List.map key in_process)

(* The fault-model plane (DESIGN.md §18): the sharded-equals-in-process
   guarantee must hold for every fault model, not just the paper's
   register-bit default — the Assign frame carries the model, the workers
   thread it into run_cell, and the coordinator filters its journal prefill
   by it.  One model also takes a SIGKILL mid-campaign: kill-and-reassign
   must stay bit-identical under non-default models too. *)
let test_models_match_domains () =
  let samples = 6 and seed = 17 in
  let programs = [ ("tiny", src) ] in
  List.iter
    (fun (name, chaos) ->
      let model = F.model_of_string name in
      let sequential = E.run_matrix ~domains:1 ~model ~samples ~seed programs Rep.tools in
      let domains = E.run_matrix ~domains:4 ~model ~samples ~seed programs Rep.tools in
      let options = { C.default_options with C.workers = 2; chaos } in
      let sharded = C.run_matrix ~options ~model ~samples ~seed programs Rep.tools in
      Alcotest.(check bool)
        (name ^ ": domains = sequential")
        true
        (List.map key domains = List.map key sequential);
      Alcotest.(check bool)
        (name ^ ": workers = sequential")
        true
        (List.map key sharded = List.map key sequential))
    [
      ("mem", C.no_chaos);
      ("instr", { C.no_chaos with C.kill_worker = Some (0, 4) });
      ("burst:2", C.no_chaos);
    ]

(* The observability-plane headline (DESIGN.md §17): with cell-granular
   chunks, the coordinator's merged fleet counters are the same multiset
   of (name, labels, value) as an in-process domains run — not
   approximately, exactly.  The in-process run starts from cold artifact
   caches, as the fresh worker processes do, so neither can skip
   golden-run profiling via a prepared-tier hit from earlier tests. *)
let det_counters =
  [
    "refine_campaign_samples_total";
    "refine_campaign_cells_total";
    "refine_exec_steps_total";
    "refine_fi_site_hits_total";
    "refine_run_cost_units_total";
  ]

let test_fleet_counters_match_domains () =
  let samples = 6 and seed = 13 in
  let programs = [ ("tiny", src) ] in
  Refine_obs.Control.enable ();
  let show (name, labels, v) =
    let ls = String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels) in
    let vs =
      match v with
      | M.Counter c -> Int64.to_string c
      | M.Gauge g -> string_of_float g
      | M.Histogram h -> Printf.sprintf "hist:%Ld" h.M.count
    in
    Printf.sprintf "%s{%s} %s" name ls vs
  in
  let capture () =
    List.filter_map
      (fun ((name, _, _) as m) -> if List.mem name det_counters then Some (show m) else None)
      (M.snapshot ())
  in
  M.reset ();
  T.reset_artifact_caches ();
  let _ = E.run_matrix ~domains:2 ~samples ~seed programs Rep.tools in
  let reference = capture () in
  M.reset ();
  let options = { C.default_options with C.workers = 2; chunk_samples = Some samples } in
  let _ = C.run_matrix ~options ~samples ~seed programs Rep.tools in
  let fleet = capture () in
  M.reset ();
  Refine_obs.Control.disable ();
  Alcotest.(check (list string)) "fleet-merged counters = domains run" reference fleet

(* A sample crosses the wire as its journal line, which cannot carry a
   TAB or newline in the program name: the coordinator refuses such a
   name up front instead of killing every worker whose frames then fail
   to decode *)
let test_unjournalable_program_rejected () =
  List.iter
    (fun program ->
      match C.run_matrix ~samples:1 ~seed:1 [ (program, src) ] [ T.Pinfi ] with
      | _ -> Alcotest.failf "program %S was sharded" program
      | exception Invalid_argument _ -> ())
    [ "ti\tny"; "ti\nny" ]

let qcheck = QCheck_alcotest.to_alcotest

let tests =
  [
    qcheck prop_roundtrip;
    qcheck prop_no_prefix_decodes;
    qcheck prop_corrupt_byte_canonical;
    qcheck prop_stream_reassembles;
    qcheck prop_torn_tail_is_residue;
    Alcotest.test_case "tool name mapping" `Quick test_tool_names;
    Alcotest.test_case "unknown tag rejected" `Quick test_unknown_tag;
    Alcotest.test_case "v5 Init and Outcome frames rejected" `Quick test_v5_frames_rejected;
    Alcotest.test_case "a v6 Init frame does not decode" `Quick test_v6_init_rejected;
    Alcotest.test_case "workers = domains = sequential" `Quick test_workers_match_domains;
    Alcotest.test_case "workers run under the whole quota record" `Quick
      test_workers_carry_quotas;
    Alcotest.test_case "per-model workers = domains = sequential (with kill)" `Quick
      test_models_match_domains;
    Alcotest.test_case "fleet counters = domains counters" `Quick test_fleet_counters_match_domains;
    qcheck prop_outcome_byte_corruption;
    Alcotest.test_case "unjournalable program name rejected" `Quick
      test_unjournalable_program_rejected;
  ]
