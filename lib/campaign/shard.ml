(* Wire protocol of the sharded campaign service (DESIGN.md §16).

   The PR-1 journal promoted to a process boundary: a coordinator process
   shards the (program, tool, sample) matrix into chunks and assigns them
   to worker processes over pipes; workers stream each resolved sample
   back as its journal line ([Journal.render], decoded by [Journal.parse])
   inside a length-prefixed [Outcome] frame, plus liveness heartbeats,
   quarantine notices and a per-chunk completion summary.
   Frames are encoded with the strict [Refine_support.Wire] codec: no
   prefix of a valid frame decodes (a worker SIGKILLed mid-write leaves a
   torn trailing frame that is counted, never mis-decoded), and trailing
   bytes inside a frame are rejected.

   The protocol is deliberately tool-agnostic and self-contained — an
   Assign carries the program source text, so a worker needs no shared
   filesystem or benchmark registry, which keeps the shape multi-host
   ready even though this repo exercises it single-host. *)

module W = Refine_support.Wire
module T = Refine_core.Tool
module M = Refine_obs.Metrics
module Sp = Refine_obs.Span

(* v2: observability plane — Init carries obs/trace switches, Assign
   carries the trace context, and workers stream Metrics_delta /
   Trace_batch frames (DESIGN.md §17).
   v3: fault models — Assign carries the cell's fault model and Outcome
   entries echo it back (DESIGN.md §18).
   v4: Init carries the whole Tool.quotas record, so a sharded campaign
   runs under exactly the in-process sandbox (the derived output cap
   included).
   v5: Init drops the MIR-verifier switch (the end-of-MIR verifier always
   runs) and the heartbeat interval (the constant [heartbeat_s]).
   v6: Init drops the artifact-cache switch (preparation is always
   cached), and Outcome carries the sample's journal line instead of
   seven binary fields.
   v7: Init's quota record is the output cap alone; v6 carried three more
   quota fields, for bounds a run no longer has. *)
let version = 7

let heartbeat_s = 0.02 (* min seconds between a busy worker's heartbeat frames *)

exception Protocol_mismatch of { expected_version : int; tag : int }
(* An unknown frame tag is a version skew, not a torn frame: a v2 peer
   can neither have sent tag 12+ nor omit the Assign model field without
   the strict codec rejecting the payload, so we surface which side is
   too old instead of a generic protocol error. *)

type config = {
  seed : int;
  retries : int;
  cost_cap : int64 option;
  quotas : T.quotas;
  verify_each : bool;
  pipeline : string option; (* Pipeline.print form; None = tool default *)
  obs : bool; (* worker enables its metrics registry + delta forwarding *)
  trace : bool; (* worker buffers spans and ships Trace_batch frames *)
}

let default_config =
  {
    seed = 1;
    retries = 0;
    cost_cap = None;
    quotas = T.default_quotas;
    verify_each = false;
    pipeline = None;
    obs = false;
    trace = false;
  }

type chunk_summary = {
  chunk : int;
  program : string;
  tool : string;
  quarantined : bool; (* preparation quarantined the cell; profile fields are zero *)
  golden_exit : int;
  dyn_count : int64;
  profile_cost : int64;
  golden_output_len : int; (* the output itself stays in the worker *)
  static_instrumented : int;
  instrument_s : float;
  compile_s : float;
  execute_s : float;
  harness_s : float;
  failures : (int * int * string) list; (* (sample, attempts, message) *)
}

type frame =
  | Hello of { pid : int; version : int }
  | Init of config
  | Assign of {
      chunk : int;
      program : string;
      source : string;
      tool : string; (* Tool.kind_name *)
      model : string; (* Fault.string_of_model — what state the faults strike *)
      samples : int; (* full cell sample count — keys the PRNG splits *)
      todo : int list; (* sample indices this chunk must resolve *)
      trace : string; (* campaign trace id; "" when tracing is off *)
      parent_span : int; (* coordinator's dispatch-span id for this chunk *)
    }
  | Outcome of { chunk : int; entry : Journal.entry }
  | Quarantine of { program : string; tool : string; reason : string }
  | Chunk_done of chunk_summary
  | Chunk_failed of { chunk : int; message : string } (* non-quarantine prepare failure *)
  | Heartbeat of { completed : int } (* samples resolved by this worker so far *)
  | Shutdown
  | Metrics_delta of M.export_item list (* cumulative registry snapshot items *)
  | Trace_batch of Sp.event list (* buffered spans, already re-parented *)

let tool_of_name name =
  match T.kind_of_name name with
  | Some kind -> kind
  | None -> invalid_arg ("Shard.tool_of_name: " ^ String.uppercase_ascii name)

(* ---- encode ----------------------------------------------------------- *)

let tag = function
  | Hello _ -> 1
  | Init _ -> 2
  | Assign _ -> 3
  | Outcome _ -> 4
  | Quarantine _ -> 5
  | Chunk_done _ -> 6
  | Chunk_failed _ -> 7
  | Heartbeat _ -> 8
  | Shutdown -> 9
  | Metrics_delta _ -> 10
  | Trace_batch _ -> 11

let put_labels b labels =
  W.put_list b
    (fun b (k, v) ->
      W.put_string b k;
      W.put_string b v)
    labels

let get_labels c =
  W.get_list c (fun c ->
      let k = W.get_string c in
      let v = W.get_string c in
      (k, v))

let put_value b = function
  | M.Counter v ->
    W.put_u8 b 0;
    W.put_i64 b v
  | M.Gauge v ->
    W.put_u8 b 1;
    W.put_f64 b v
  | M.Histogram h ->
    W.put_u8 b 2;
    W.put_list b W.put_f64 (Array.to_list h.M.bounds);
    W.put_list b W.put_i64 (Array.to_list h.M.counts);
    W.put_f64 b h.M.sum;
    W.put_i64 b h.M.count

let get_value c =
  match W.get_u8 c with
  | 0 -> M.Counter (W.get_i64 c)
  | 1 -> M.Gauge (W.get_f64 c)
  | 2 ->
    let bounds = Array.of_list (W.get_list c W.get_f64) in
    let counts = Array.of_list (W.get_list c W.get_i64) in
    let sum = W.get_f64 c in
    let count = W.get_i64 c in
    M.Histogram { M.bounds; counts; sum; count }
  | t -> invalid_arg (Printf.sprintf "Shard: unknown metric value tag %d" t)

let put_item b (it : M.export_item) =
  W.put_string b it.M.x_name;
  put_labels b it.M.x_labels;
  W.put_string b it.M.x_help;
  put_value b it.M.x_value

let get_item c =
  let x_name = W.get_string c in
  let x_labels = get_labels c in
  let x_help = W.get_string c in
  let x_value = get_value c in
  { M.x_name; x_labels; x_help; x_value }

let put_event b (e : Sp.event) =
  W.put_string b e.Sp.name;
  put_labels b e.Sp.attrs;
  W.put_f64 b e.Sp.t_start;
  W.put_f64 b e.Sp.dur_s;
  W.put_int b e.Sp.depth;
  W.put_int b e.Sp.domain;
  W.put_i64 b e.Sp.cost;
  W.put_bool b e.Sp.ok;
  W.put_string b e.Sp.trace;
  W.put_int b e.Sp.span_id;
  W.put_int b e.Sp.parent

let get_event c =
  let name = W.get_string c in
  let attrs = get_labels c in
  let t_start = W.get_f64 c in
  let dur_s = W.get_f64 c in
  let depth = W.get_int c in
  let domain = W.get_int c in
  let cost = W.get_i64 c in
  let ok = W.get_bool c in
  let trace = W.get_string c in
  let span_id = W.get_int c in
  let parent = W.get_int c in
  { Sp.name; attrs; t_start; dur_s; depth; domain; cost; ok; trace; span_id; parent }

let encode f =
  let b = Buffer.create 128 in
  W.put_u8 b (tag f);
  (match f with
  | Hello { pid; version } ->
    W.put_int b pid;
    W.put_int b version
  | Init c ->
    W.put_int b c.seed;
    W.put_int b c.retries;
    W.put_option b W.put_i64 c.cost_cap;
    W.put_option b W.put_int c.quotas.T.output_bytes;
    W.put_bool b c.quotas.T.derive_output;
    W.put_bool b c.verify_each;
    W.put_option b W.put_string c.pipeline;
    W.put_bool b c.obs;
    W.put_bool b c.trace
  | Assign { chunk; program; source; tool; model; samples; todo; trace; parent_span } ->
    W.put_int b chunk;
    W.put_string b program;
    W.put_string b source;
    W.put_string b tool;
    W.put_string b model;
    W.put_int b samples;
    W.put_list b W.put_int todo;
    W.put_string b trace;
    W.put_int b parent_span
  | Outcome { chunk; entry } ->
    W.put_int b chunk;
    W.put_string b (Journal.render entry)
  | Quarantine { program; tool; reason } ->
    W.put_string b program;
    W.put_string b tool;
    W.put_string b reason
  | Chunk_done s ->
    W.put_int b s.chunk;
    W.put_string b s.program;
    W.put_string b s.tool;
    W.put_bool b s.quarantined;
    W.put_int b s.golden_exit;
    W.put_i64 b s.dyn_count;
    W.put_i64 b s.profile_cost;
    W.put_int b s.golden_output_len;
    W.put_int b s.static_instrumented;
    W.put_f64 b s.instrument_s;
    W.put_f64 b s.compile_s;
    W.put_f64 b s.execute_s;
    W.put_f64 b s.harness_s;
    W.put_list b
      (fun b (sample, attempts, msg) ->
        W.put_int b sample;
        W.put_int b attempts;
        W.put_string b msg)
      s.failures
  | Chunk_failed { chunk; message } ->
    W.put_int b chunk;
    W.put_string b message
  | Heartbeat { completed } -> W.put_int b completed
  | Shutdown -> ()
  | Metrics_delta items -> W.put_list b put_item items
  | Trace_batch events -> W.put_list b put_event events);
  Buffer.contents b

(* ---- decode ----------------------------------------------------------- *)

let decode payload =
  let c = W.cursor payload in
  let f =
    match W.get_u8 c with
    | 1 ->
      let pid = W.get_int c in
      let version = W.get_int c in
      Hello { pid; version }
    | 2 ->
      let seed = W.get_int c in
      let retries = W.get_int c in
      let cost_cap = W.get_option c W.get_i64 in
      let output_bytes = W.get_option c W.get_int in
      let derive_output = W.get_bool c in
      let verify_each = W.get_bool c in
      let pipeline = W.get_option c W.get_string in
      let obs = W.get_bool c in
      let trace = W.get_bool c in
      Init
        {
          seed;
          retries;
          cost_cap;
          quotas = { T.output_bytes; derive_output };
          verify_each;
          pipeline;
          obs;
          trace;
        }
    | 3 ->
      let chunk = W.get_int c in
      let program = W.get_string c in
      let source = W.get_string c in
      let tool = W.get_string c in
      let model = W.get_string c in
      let samples = W.get_int c in
      let todo = W.get_list c W.get_int in
      let trace = W.get_string c in
      let parent_span = W.get_int c in
      Assign { chunk; program; source; tool; model; samples; todo; trace; parent_span }
    | 4 -> (
      let chunk = W.get_int c in
      match Journal.parse (W.get_string c) with
      | Some entry -> Outcome { chunk; entry }
      | None -> invalid_arg "Shard: Outcome carries no journal line")
    | 5 ->
      let program = W.get_string c in
      let tool = W.get_string c in
      let reason = W.get_string c in
      Quarantine { program; tool; reason }
    | 6 ->
      let chunk = W.get_int c in
      let program = W.get_string c in
      let tool = W.get_string c in
      let quarantined = W.get_bool c in
      let golden_exit = W.get_int c in
      let dyn_count = W.get_i64 c in
      let profile_cost = W.get_i64 c in
      let golden_output_len = W.get_int c in
      let static_instrumented = W.get_int c in
      let instrument_s = W.get_f64 c in
      let compile_s = W.get_f64 c in
      let execute_s = W.get_f64 c in
      let harness_s = W.get_f64 c in
      let failures =
        W.get_list c (fun c ->
            let sample = W.get_int c in
            let attempts = W.get_int c in
            let msg = W.get_string c in
            (sample, attempts, msg))
      in
      Chunk_done
        {
          chunk;
          program;
          tool;
          quarantined;
          golden_exit;
          dyn_count;
          profile_cost;
          golden_output_len;
          static_instrumented;
          instrument_s;
          compile_s;
          execute_s;
          harness_s;
          failures;
        }
    | 7 ->
      let chunk = W.get_int c in
      let message = W.get_string c in
      Chunk_failed { chunk; message }
    | 8 ->
      let completed = W.get_int c in
      Heartbeat { completed }
    | 9 -> Shutdown
    | 10 -> Metrics_delta (W.get_list c get_item)
    | 11 -> Trace_batch (W.get_list c get_event)
    | t -> raise (Protocol_mismatch { expected_version = version; tag = t })
  in
  W.expect_end c;
  f

let frame_name = function
  | Hello _ -> "hello"
  | Init _ -> "init"
  | Assign _ -> "assign"
  | Outcome _ -> "outcome"
  | Quarantine _ -> "quarantine"
  | Chunk_done _ -> "chunk-done"
  | Chunk_failed _ -> "chunk-failed"
  | Heartbeat _ -> "heartbeat"
  | Shutdown -> "shutdown"
  | Metrics_delta _ -> "metrics-delta"
  | Trace_batch _ -> "trace-batch"

(* ---- framed IO over file descriptors ---------------------------------- *)

(* one write syscall loop; pipes < PIPE_BUF are atomic, larger frames are
   only ever written from a single thread per direction *)
let write_fd fd frame =
  let s = W.frame (encode frame) in
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write fd b !off (n - !off)
  done

exception Protocol_error of string

type reader = { stream : W.stream; buf : Bytes.t }

let reader () = { stream = W.stream (); buf = Bytes.create 65536 }

(* One [Unix.read] (the caller selected the fd readable), then every
   complete frame buffered so far.  [`Eof] reports the stream end plus any
   torn trailing bytes — a worker killed mid-write. *)
let drain r fd =
  match Unix.read fd r.buf 0 (Bytes.length r.buf) with
  | 0 ->
    let torn = W.residue r.stream in
    `Eof torn
  | n ->
    W.feed r.stream r.buf n;
    let rec pop acc =
      match W.next r.stream with
      | None -> List.rev acc
      | Some payload -> (
        match decode payload with
        | f -> pop (f :: acc)
        | exception (W.Truncated | Invalid_argument _) ->
          raise (Protocol_error "undecodable frame payload"))
    in
    `Frames (pop [])
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> `Frames []
