(* Span-based phase tracing (DESIGN.md §12).

   [with_ "regalloc" f] measures the wall-clock extent of [f], attributes
   modeled cost charged via [add_cost] to the innermost open span, and
   emits one JSONL event per closed span to the configured sink — an
   append-only event log next to the campaign's resume journal.  Spans
   nest through a per-domain stack (no cross-domain locking until the
   emit), and a span closed by an exception is still emitted, with
   ["ok":false], before the exception continues unwinding.

   Every closed span also feeds the metrics registry: a per-name duration
   histogram ([refine_span_duration_seconds{span=...}]) and a modeled-cost
   counter, so the Prometheus dump carries the phase breakdown even when
   no trace file was requested. *)

type event = {
  name : string;
  attrs : (string * string) list;
  t_start : float; (* unix epoch seconds *)
  dur_s : float;
  depth : int; (* 0 = top-level *)
  domain : int;
  cost : int64; (* modeled-cost attribution, 0 if none charged *)
  ok : bool; (* false when the span was closed by an exception *)
  trace : string; (* campaign trace id; "" outside any trace context *)
  span_id : int; (* unique within the trace (pid-composed across processes) *)
  parent : int; (* enclosing span id; 0 = root *)
}

(* Span ids must stay unique when worker events are merged into the
   coordinator's trace, so the pid is folded into the high bits. *)
let id_counter = Atomic.make 0

let fresh_id () =
  let n = Atomic.fetch_and_add id_counter 1 + 1 in
  ((Unix.getpid () land 0x3f_ffff) lsl 28) lor (n land 0xfff_ffff)

(* Process-wide trace context: the coordinator opens one per campaign; a
   worker adopts the (trace, dispatch-span) pair carried by each Assign
   frame, which re-parents everything it emits under the coordinator's
   per-chunk span. *)
let ctx_trace = ref ""
let ctx_parent = ref 0

let set_context ?(trace = "") ?(parent = 0) () =
  ctx_trace := trace;
  ctx_parent := parent

let clear_context () =
  ctx_trace := "";
  ctx_parent := 0

(* ---- JSON rendering --------------------------------------------------- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json (e : event) =
  let attrs =
    match e.attrs with
    | [] -> ""
    | kvs ->
      Printf.sprintf ",\"attrs\":{%s}"
        (String.concat ","
           (List.map (fun (k, v) -> Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v)) kvs))
  in
  let trace = if e.trace = "" then "" else Printf.sprintf ",\"trace\":\"%s\"" (json_escape e.trace) in
  Printf.sprintf
    "{\"ts\":%.6f,\"dur_s\":%.6f,\"name\":\"%s\",\"depth\":%d,\"domain\":%d,\"span\":%d,\"parent\":%d,\"cost\":%Ld,\"ok\":%b%s%s}"
    e.t_start e.dur_s (json_escape e.name) e.depth e.domain e.span_id e.parent e.cost e.ok trace attrs

(* ---- sink ------------------------------------------------------------- *)

type destination = Null | File of out_channel | Memory of event list ref

let sink = ref Null
let sink_mutex = Mutex.create ()

let close_sink () =
  Mutex.lock sink_mutex;
  (match !sink with File oc -> close_out oc | Null | Memory _ -> ());
  sink := Null;
  Mutex.unlock sink_mutex

let set_file_sink path =
  close_sink ();
  let oc = open_out path in
  Mutex.lock sink_mutex;
  sink := File oc;
  Mutex.unlock sink_mutex

let set_memory_sink () =
  close_sink ();
  Mutex.lock sink_mutex;
  sink := Memory (ref []);
  Mutex.unlock sink_mutex

(* Memory-sink events in chronological (emit) order. *)
let drain () =
  Mutex.lock sink_mutex;
  let evs = match !sink with Memory r -> let e = !r in r := []; List.rev e | _ -> [] in
  Mutex.unlock sink_mutex;
  evs

let sink_active () = match !sink with Null -> false | File _ | Memory _ -> true

(* Buffered trace tail must survive abnormal exits (satellite: flush from
   at_exit); a double close is safe, so normal paths still close eagerly. *)
let () = at_exit close_sink

let duration_buckets = [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 0.1; 1.0; 10.0; 100.0 |]

let write_sink (e : event) =
  Mutex.lock sink_mutex;
  (match !sink with
  | Null -> ()
  | File oc ->
    output_string oc (to_json e);
    output_char oc '\n'
  | Memory r -> r := e :: !r);
  Mutex.unlock sink_mutex

(* Forward an event produced by another process (a worker's Trace_batch)
   into the local sink.  Sink only: the worker already counted the span in
   its own registry, and that registry arrives via Metrics_delta — feeding
   the metrics here would double count. *)
let forward (e : event) = if Control.enabled () then write_sink e

let emit_event (e : event) =
  Metrics.observe
    (Metrics.histogram ~help:"wall-clock span durations" ~labels:[ ("span", e.name) ]
       ~buckets:duration_buckets "refine_span_duration_seconds")
    e.dur_s;
  if e.cost <> 0L then
    Metrics.add64
      (Metrics.counter ~help:"modeled cost attributed to spans" ~labels:[ ("span", e.name) ]
         "refine_span_cost_units_total")
      e.cost;
  write_sink e

(* ---- per-domain span stack -------------------------------------------- *)

type frame = { f_name : string; f_id : int; mutable f_cost : int64 }

let stack_key : frame list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let depth () = List.length !(Domain.DLS.get stack_key)

let add_cost c =
  if Control.enabled () && c <> 0L then
    match !(Domain.DLS.get stack_key) with
    | [] -> ()
    | f :: _ -> f.f_cost <- Int64.add f.f_cost c

(* Parent for a new span or leaf: the innermost open frame on this domain,
   falling back to the process trace context (the coordinator's dispatch
   span inside a worker, 0 elsewhere). *)
let current_parent () =
  match !(Domain.DLS.get stack_key) with [] -> !ctx_parent | f :: _ -> f.f_id

(* Emit a leaf event at the current nesting depth without opening a span —
   used by Phase.time, whose duration was measured externally.  [span_id]
   lets a caller pre-allocate the id (the coordinator hands it to workers
   in Assign before the chunk span is emitted). *)
let emit ?(attrs = []) ?(cost = 0L) ?(ok = true) ?span_id ~name ~dur_s () =
  if Control.enabled () then
    emit_event
      {
        name;
        attrs;
        t_start = Control.now () -. dur_s;
        dur_s;
        depth = depth ();
        domain = (Domain.self () :> int);
        cost;
        ok;
        trace = !ctx_trace;
        span_id = (match span_id with Some id -> id | None -> fresh_id ());
        parent = current_parent ();
      }

let with_ ?(attrs = []) ?(cost = 0L) name f =
  if not (Control.enabled ()) then f ()
  else begin
    let stack = Domain.DLS.get stack_key in
    let d = List.length !stack in
    let parent = match !stack with [] -> !ctx_parent | f :: _ -> f.f_id in
    let frame = { f_name = name; f_id = fresh_id (); f_cost = cost } in
    let t0 = Control.now () in
    stack := frame :: !stack;
    let finish ok =
      (match !stack with
      | f :: rest when f == frame -> stack := rest
      | _ ->
        (* a nested span leaked (impossible through this API, possible if a
           callee tampered with the stack): drop down to our frame *)
        let rec unwind = function
          | f :: rest when f == frame -> rest
          | _ :: rest -> unwind rest
          | [] -> []
        in
        stack := unwind !stack);
      emit_event
        {
          name = frame.f_name;
          attrs;
          t_start = t0;
          dur_s = Control.now () -. t0;
          depth = d;
          domain = (Domain.self () :> int);
          cost = frame.f_cost;
          ok;
          trace = !ctx_trace;
          span_id = frame.f_id;
          parent;
        }
    in
    match f () with
    | v ->
      finish true;
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      finish false;
      Printexc.raise_with_backtrace e bt
  end
