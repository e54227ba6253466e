(* Tests for the observability layer: histogram bucket edges, cross-domain
   counter merge determinism, span nesting and unwind-on-exception, phase
   accounting, enable-gating, Prometheus dump shape (linted), fleet
   snapshot merging, trace-file loading with the torn-tail policy, span
   trace context, and the live status server. *)

module Obs = Refine_obs
module M = Obs.Metrics

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

(* each test starts from a clean, enabled registry *)
let with_obs f () =
  Obs.Control.enable ();
  M.reset ();
  Obs.Span.set_memory_sink ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Span.close_sink ();
      M.reset ();
      Obs.Control.disable ())
    f

(* ---- histogram bucketing ---- *)

let test_bucket_edges () =
  let bounds = [| 1.0; 2.0; 5.0 |] in
  (* Prometheus le semantics: value lands in the first bucket whose upper
     bound is >= v; above every bound, in the +Inf slot *)
  Alcotest.(check int) "below first" 0 (M.bucket_index bounds 0.5);
  Alcotest.(check int) "exactly on an edge is inclusive" 0 (M.bucket_index bounds 1.0);
  Alcotest.(check int) "between edges" 1 (M.bucket_index bounds 1.5);
  Alcotest.(check int) "on the last finite edge" 2 (M.bucket_index bounds 5.0);
  Alcotest.(check int) "above all bounds -> +Inf slot" 3 (M.bucket_index bounds 5.00001);
  Alcotest.(check int) "negative" 0 (M.bucket_index bounds (-1.0))

let test_histogram_observe () =
  let h = M.histogram ~buckets:[| 1.0; 2.0; 5.0 |] "t_hist_observe" in
  List.iter (M.observe h) [ 0.5; 1.0; 1.5; 5.0; 9.0 ];
  match M.find "t_hist_observe" [] with
  | Some (M.Histogram hv) ->
    Alcotest.(check (array int64)) "per-bucket counts" [| 2L; 1L; 1L; 1L |] hv.M.counts;
    Alcotest.(check int64) "count" 5L hv.M.count;
    Alcotest.(check (float 1e-9)) "sum" 17.0 hv.M.sum
  | _ -> Alcotest.fail "histogram not found"

let test_histogram_bad_buckets () =
  Alcotest.check_raises "non-increasing"
    (Invalid_argument "Metrics.histogram: buckets not increasing") (fun () ->
      ignore (M.histogram ~buckets:[| 1.0; 1.0 |] "t_hist_bad"))

(* ---- counters: dedup, kind clash, disabled gating ---- *)

let test_counter_dedup () =
  let a = M.counter ~labels:[ ("k", "v") ] "t_dedup" in
  let b = M.counter ~labels:[ ("k", "v") ] "t_dedup" in
  M.inc a;
  M.inc b;
  match M.find "t_dedup" [ ("k", "v") ] with
  | Some (M.Counter 2L) -> ()
  | Some (M.Counter n) -> Alcotest.failf "expected 2, got %Ld" n
  | _ -> Alcotest.fail "counter not found"

let test_kind_clash () =
  ignore (M.counter "t_clash");
  (try
     ignore (M.gauge "t_clash");
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let test_disabled_gating () =
  let c = M.counter "t_gated" in
  M.inc c;
  Obs.Control.disable ();
  M.inc c;
  M.add c 10;
  Obs.Control.enable ();
  match M.find "t_gated" [] with
  | Some (M.Counter 1L) -> ()
  | Some (M.Counter n) -> Alcotest.failf "disabled increments leaked: %Ld" n
  | _ -> Alcotest.fail "counter not found"

(* ---- cross-domain merge determinism ---- *)

let test_cross_domain_merge () =
  let c = M.counter "t_domains" in
  let h = M.histogram ~buckets:[| 10.0; 100.0 |] "t_domains_hist" in
  let worker k () =
    for i = 1 to 1000 do
      M.inc c;
      M.observe h (float_of_int ((i + k) mod 150))
    done
  in
  let ds = List.init 4 (fun k -> Domain.spawn (worker k)) in
  worker 4 ();
  List.iter Domain.join ds;
  (match M.find "t_domains" [] with
  | Some (M.Counter n) -> Alcotest.(check int64) "merged count" 5000L n
  | _ -> Alcotest.fail "counter not found");
  match M.find "t_domains_hist" [] with
  | Some (M.Histogram hv) ->
    Alcotest.(check int64) "merged observations" 5000L hv.M.count;
    Alcotest.(check int64) "bucket sum matches total" 5000L
      (Array.fold_left Int64.add 0L hv.M.counts)
  | _ -> Alcotest.fail "histogram not found"

(* merged totals must not depend on which domain recorded what: two runs
   with different work distributions agree *)
let test_merge_schedule_independent () =
  let run split =
    M.reset ();
    let c = M.counter "t_sched" in
    let d = Domain.spawn (fun () -> for _ = 1 to split do M.inc c done) in
    for _ = 1 to 2000 - split do
      M.inc c
    done;
    Domain.join d;
    match M.find "t_sched" [] with Some (M.Counter n) -> n | _ -> -1L
  in
  Alcotest.(check int64) "distribution-independent" (run 1) (run 1999)

(* ---- spans ---- *)

let test_span_nesting () =
  let v =
    Obs.Span.with_ "outer" (fun () ->
        Obs.Span.with_ "inner" (fun () ->
            Alcotest.(check int) "depth inside" 2 (Obs.Span.depth ());
            Obs.Span.add_cost 7L;
            41)
        + 1)
  in
  Alcotest.(check int) "value threaded" 42 v;
  Alcotest.(check int) "depth unwound" 0 (Obs.Span.depth ());
  let events = Obs.Span.drain () in
  let names = List.map (fun (e : Obs.Span.event) -> e.Obs.Span.name) events in
  (* inner closes before outer *)
  Alcotest.(check (list string)) "emission order" [ "inner"; "outer" ] names;
  let inner = List.hd events in
  Alcotest.(check int) "inner depth" 1 inner.Obs.Span.depth;
  Alcotest.(check int64) "cost attributed to innermost" 7L inner.Obs.Span.cost;
  Alcotest.(check bool) "ok" true inner.Obs.Span.ok

let test_span_unwind_on_exception () =
  (try Obs.Span.with_ "boom" (fun () -> failwith "no") with Failure _ -> ());
  Alcotest.(check int) "stack unwound" 0 (Obs.Span.depth ());
  match Obs.Span.drain () with
  | [ e ] ->
    Alcotest.(check string) "event still emitted" "boom" e.Obs.Span.name;
    Alcotest.(check bool) "marked not-ok" false e.Obs.Span.ok
  | l -> Alcotest.failf "expected 1 event, got %d" (List.length l)

let test_span_json () =
  ignore (Obs.Span.with_ ~attrs:[ ("tool", "REFINE\"x") ] "p" (fun () -> ()));
  match Obs.Span.drain () with
  | [ e ] ->
    let j = Obs.Span.to_json e in
    Alcotest.(check bool) "one line" false (String.contains j '\n');
    Alcotest.(check bool) "name present" true (contains j "\"name\":\"p\"");
    (* the quote inside the attr value must be escaped *)
    Alcotest.(check bool) "attrs escaped" true (contains j "REFINE\\\"x")
  | l -> Alcotest.failf "expected 1 event, got %d" (List.length l)

let test_span_disabled () =
  Obs.Control.disable ();
  let v = Obs.Span.with_ "off" (fun () -> 9) in
  Obs.Control.enable ();
  Alcotest.(check int) "thunk still runs" 9 v;
  Alcotest.(check int) "no events" 0 (List.length (Obs.Span.drain ()))

(* ---- phases ---- *)

let test_phase_accumulates () =
  let p = Obs.Phase.create () in
  Obs.Phase.add p "compile" 1.0;
  Obs.Phase.add p "execute" 2.0;
  Obs.Phase.add p "compile" 0.5;
  Alcotest.(check (float 1e-9)) "summed" 1.5 (Obs.Phase.get p "compile");
  Alcotest.(check (float 1e-9)) "other" 2.0 (Obs.Phase.get p "execute");
  Alcotest.(check (float 1e-9)) "missing is 0" 0.0 (Obs.Phase.get p "instrument");
  Alcotest.(check (float 1e-9)) "total" 3.5 (Obs.Phase.total p);
  Alcotest.(check (list string)) "insertion order" [ "compile"; "execute" ]
    (List.map fst (Obs.Phase.to_list p))

let test_phase_time_on_exception () =
  let p = Obs.Phase.create () in
  (try Obs.Phase.time p "x" (fun () -> failwith "no") with Failure _ -> ());
  Alcotest.(check bool) "elapsed still recorded" true (Obs.Phase.get p "x" >= 0.0);
  Alcotest.(check (list string)) "phase registered" [ "x" ] (List.map fst (Obs.Phase.to_list p))

(* ---- Prometheus dump ---- *)

let test_prometheus_dump () =
  let c = M.counter ~help:"a counter" ~labels:[ ("tool", "REFINE") ] "t_dump_total" in
  M.add c 3;
  let h = M.histogram ~buckets:[| 0.1; 1.0 |] "t_dump_seconds" in
  M.observe h 0.05;
  M.observe h 5.0;
  let d = M.dump () in
  Alcotest.(check bool) "TYPE line" true (contains d "# TYPE t_dump_total counter");
  Alcotest.(check bool) "HELP line" true (contains d "# HELP t_dump_total a counter");
  Alcotest.(check bool) "labeled sample" true (contains d "t_dump_total{tool=\"REFINE\"} 3");
  (* histogram buckets are cumulative and end with +Inf = _count *)
  Alcotest.(check bool) "le=0.1" true (contains d "t_dump_seconds_bucket{le=\"0.1\"} 1");
  Alcotest.(check bool) "le=+Inf" true (contains d "t_dump_seconds_bucket{le=\"+Inf\"} 2");
  Alcotest.(check bool) "count" true (contains d "t_dump_seconds_count 2");
  Alcotest.(check (list string)) "promlint clean" [] (Promlint.lint d)

(* the lint itself must not be vacuous *)
let test_promlint_catches () =
  Alcotest.(check bool) "missing TYPE flagged" true (Promlint.lint "foo_total 3\n" <> []);
  Alcotest.(check bool) "unparseable value flagged" true
    (Promlint.lint "# TYPE foo_total counter\nfoo_total abc\n" <> []);
  Alcotest.(check bool) "duplicate series flagged" true
    (Promlint.lint "# TYPE foo_total counter\nfoo_total 1\nfoo_total 2\n" <> []);
  Alcotest.(check bool) "non-cumulative buckets flagged" true
    (Promlint.lint
       "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n"
    <> []);
  Alcotest.(check bool) "missing +Inf flagged" true
    (Promlint.lint "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n" <> [])

(* ---- fleet snapshot merge (DESIGN.md §17) ---- *)

let qm_item v =
  { M.x_name = "qm_total"; x_labels = []; x_help = ""; x_value = M.Counter (Int64.of_int v) }

let read_qm () = match M.find "qm_total" [] with Some (M.Counter n) -> n | _ -> -1L

(* workers ship *cumulative* snapshots; the coordinator's merge must land
   on the same totals under any interleaving, reordering, or replay *)
let prop_merge_order_insensitive =
  QCheck.Test.make ~name:"merge_snapshot is order-insensitive and idempotent" ~count:200
    QCheck.(pair (list_of_size Gen.(int_range 1 3) (small_list small_nat)) (small_list small_nat))
    (fun (per_source, keys) ->
      let cums =
        List.mapi
          (fun si incs ->
            let c = ref 0 in
            List.map
              (fun i ->
                c := !c + i;
                (si, !c))
              incs)
          per_source
      in
      let pairs = List.concat cums in
      let expected =
        List.fold_left (fun a l -> match List.rev l with (_, c) :: _ -> a + c | [] -> a) 0 cums
      in
      let run order =
        M.reset ();
        let states = Array.init (List.length per_source) (fun _ -> M.merge_source ()) in
        List.iter (fun (si, v) -> M.merge_snapshot states.(si) [ qm_item v ]) order;
        read_qm ()
      in
      let in_order = run pairs in
      let shuffled =
        match keys with
        | [] -> List.rev pairs
        | ks ->
            let nk = List.length ks in
            List.map snd
              (List.stable_sort compare (List.mapi (fun i p -> (List.nth ks (i mod nk), p)) pairs))
      in
      (* apply the shuffle twice: replayed snapshots must be no-ops *)
      let replayed = run (shuffled @ shuffled) in
      M.reset ();
      (if pairs <> [] then in_order = Int64.of_int expected else true)
      && in_order = replayed || (pairs = [] && replayed = -1L))

let test_merge_histogram () =
  let st = M.merge_source () in
  let item ?(name = "qm_h") bounds counts sum count =
    { M.x_name = name; x_labels = []; x_help = "";
      x_value = M.Histogram { M.bounds; counts; sum; count } }
  in
  M.merge_snapshot st [ item [| 1.0; 2.0 |] [| 1L; 0L; 0L |] 0.5 1L ];
  M.merge_snapshot st [ item [| 1.0; 2.0 |] [| 2L; 1L; 0L |] 2.5 3L ];
  (* replaying an older snapshot is a no-op *)
  M.merge_snapshot st [ item [| 1.0; 2.0 |] [| 1L; 0L; 0L |] 0.5 1L ];
  (* a snapshot with mismatched bucket bounds is dropped, not applied *)
  M.merge_snapshot st [ item [| 5.0 |] [| 9L; 9L |] 9.0 9L ];
  match M.find "qm_h" [] with
  | Some (M.Histogram hv) ->
    Alcotest.(check (array int64)) "counts" [| 2L; 1L; 0L |] hv.M.counts;
    Alcotest.(check int64) "count" 3L hv.M.count;
    Alcotest.(check (float 1e-9)) "sum" 2.5 hv.M.sum
  | _ -> Alcotest.fail "merged histogram not found"

let test_export_feeds_merge () =
  let c = M.counter ~help:"h" ~labels:[ ("t", "x") ] "t_exp_total" in
  M.add c 5;
  let items = M.export () in
  M.reset ();
  let st = M.merge_source () in
  M.merge_snapshot st items;
  match M.find "t_exp_total" [ ("t", "x") ] with
  | Some (M.Counter 5L) -> ()
  | Some (M.Counter n) -> Alcotest.failf "expected 5, got %Ld" n
  | _ -> Alcotest.fail "exported counter did not merge back"

(* ---- span trace context (distributed tracing) ---- *)

let test_span_context_reparent () =
  Obs.Span.set_context ~trace:"t-1" ~parent:42 ();
  ignore (Obs.Span.with_ "outer" (fun () -> Obs.Span.with_ "inner" (fun () -> ())));
  Obs.Span.clear_context ();
  match Obs.Span.drain () with
  | [ inner; outer ] ->
    Alcotest.(check string) "trace propagated" "t-1" outer.Obs.Span.trace;
    Alcotest.(check int) "root parent comes from context" 42 outer.Obs.Span.parent;
    Alcotest.(check bool) "inner parented under outer" true
      (inner.Obs.Span.parent = outer.Obs.Span.span_id);
    Alcotest.(check bool) "ids distinct and nonzero" true
      (inner.Obs.Span.span_id <> 0 && outer.Obs.Span.span_id <> 0
      && inner.Obs.Span.span_id <> outer.Obs.Span.span_id)
  | l -> Alcotest.failf "expected 2 events, got %d" (List.length l)

(* ---- trace-file loader ---- *)

let write_lines path lines =
  let oc = open_out path in
  List.iter (fun l -> output_string oc l) lines;
  close_out oc

let test_tracefile_load () =
  ignore (Obs.Span.with_ ~attrs:[ ("k", "v\"w") ] "a" (fun () -> ()));
  ignore (Obs.Span.with_ "b" (fun () -> ()));
  let events = Obs.Span.drain () in
  let path = Filename.temp_file "refine" ".trace.jsonl" in
  write_lines path (List.map (fun e -> Obs.Span.to_json e ^ "\n") events);
  let r = Obs.Tracefile.load path in
  Sys.remove path;
  Alcotest.(check int) "all events load" 2 (List.length r.Obs.Tracefile.events);
  Alcotest.(check int) "none skipped" 0 r.Obs.Tracefile.skipped;
  Alcotest.(check bool) "not torn" false r.Obs.Tracefile.torn;
  let a = List.hd r.Obs.Tracefile.events and a0 = List.hd events in
  Alcotest.(check string) "name survives" a0.Obs.Span.name a.Obs.Span.name;
  Alcotest.(check (list (pair string string))) "attrs survive" a0.Obs.Span.attrs a.Obs.Span.attrs;
  Alcotest.(check int) "span id survives" a0.Obs.Span.span_id a.Obs.Span.span_id

let test_tracefile_torn_tail () =
  ignore (Obs.Span.with_ "whole" (fun () -> ()));
  ignore (Obs.Span.with_ "torn" (fun () -> ()));
  match Obs.Span.drain () with
  | [ e1; e2 ] ->
    let path = Filename.temp_file "refine" ".trace.jsonl" in
    let half = Obs.Span.to_json e2 in
    write_lines path
      [ Obs.Span.to_json e1 ^ "\n"; String.sub half 0 (String.length half / 2) ];
    let r = Obs.Tracefile.load path in
    Sys.remove path;
    (* same policy as the journal: a file not ending in '\n' drops the
       final partial line without attempting a parse *)
    Alcotest.(check int) "only the whole line loads" 1 (List.length r.Obs.Tracefile.events);
    Alcotest.(check bool) "flagged torn" true r.Obs.Tracefile.torn;
    Alcotest.(check int) "torn tail not counted as skipped" 0 r.Obs.Tracefile.skipped
  | l -> Alcotest.failf "expected 2 events, got %d" (List.length l)

let test_tracefile_garbage_line () =
  ignore (Obs.Span.with_ "good" (fun () -> ()));
  match Obs.Span.drain () with
  | [ e ] ->
    let path = Filename.temp_file "refine" ".trace.jsonl" in
    write_lines path [ Obs.Span.to_json e ^ "\n"; "{{{not json}}}\n"; Obs.Span.to_json e ^ "\n" ];
    let r = Obs.Tracefile.load path in
    Sys.remove path;
    Alcotest.(check int) "good lines load" 2 (List.length r.Obs.Tracefile.events);
    Alcotest.(check int) "garbage counted skipped" 1 r.Obs.Tracefile.skipped;
    Alcotest.(check bool) "not torn" false r.Obs.Tracefile.torn
  | l -> Alcotest.failf "expected 1 event, got %d" (List.length l)

(* Version skew: a line written by another version of [Span.to_json] —
   one with an extra field, one missing a field, one with a renamed key —
   is skipped and counted, never loaded as an event of this version;
   the current line between them still loads *)
let test_tracefile_version_skew () =
  ignore (Obs.Span.with_ ~attrs:[ ("program", "CG") ] "sample" (fun () -> ()));
  match Obs.Span.drain () with
  | [ e ] ->
    let line = Obs.Span.to_json e in
    let replace ~sub ~by s =
      let n = String.length sub in
      let rec find i =
        if i + n > String.length s then Alcotest.failf "%S has no %S" s sub
        else if String.sub s i n = sub then i
        else find (i + 1)
      in
      let i = find 0 in
      String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)
    in
    let depth = Printf.sprintf ",\"depth\":%d" e.Obs.Span.depth in
    let skewed =
      [
        replace ~sub:",\"ok\":" ~by:",\"version\":2,\"ok\":" line;
        replace ~sub:depth ~by:"" line;
        replace ~sub:"\"dur_s\":" ~by:"\"duration_s\":" line;
      ]
    in
    let path = Filename.temp_file "refine" ".trace.jsonl" in
    write_lines path (List.map (fun l -> l ^ "\n") (skewed @ [ line ]));
    let r = Obs.Tracefile.load path in
    Sys.remove path;
    Alcotest.(check int) "each skewed line skipped" 3 r.Obs.Tracefile.skipped;
    Alcotest.(check (list string)) "the current line loads" [ line ]
      (List.map Obs.Span.to_json r.Obs.Tracefile.events)
  | l -> Alcotest.failf "expected 1 event, got %d" (List.length l)

(* ---- live status server ---- *)

let http_get port path =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
      let req = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path in
      ignore (Unix.write_substring fd req 0 (String.length req));
      let buf = Buffer.create 256 and b = Bytes.create 1024 in
      let rec go () =
        match Unix.read fd b 0 1024 with
        | 0 -> Buffer.contents buf
        | n ->
          Buffer.add_subbytes buf b 0 n;
          go ()
      in
      go ())

let test_serve_roundtrip () =
  let srv = Obs.Serve.create () in
  let port = Obs.Serve.port srv in
  Obs.Serve.set_status srv (fun () ->
      {
        Obs.Serve.p_samples_done = 3;
        p_samples_total = 10;
        p_cells_done = 1;
        p_cells_total = 4;
        p_cells_quarantined = 0;
        p_workers = None;
        p_finished = false;
      });
  ignore (M.counter ~help:"served" "t_served_total");
  let finished = Atomic.make false in
  (* the server is poll-driven and single-threaded, so the blocking
     client lives in its own domain while this one polls *)
  let client =
    Domain.spawn (fun () ->
        let r =
          ( http_get port "/healthz",
            http_get port "/metrics",
            http_get port "/status",
            http_get port "/nope" )
        in
        Atomic.set finished true;
        r)
  in
  while not (Atomic.get finished) do
    Obs.Serve.poll srv;
    Unix.sleepf 0.002
  done;
  Obs.Serve.poll srv;
  let h, m, st, nf = Domain.join client in
  Obs.Serve.close srv;
  Alcotest.(check bool) "healthz 200" true (contains h "200");
  Alcotest.(check bool) "healthz body" true (contains h "ok");
  Alcotest.(check bool) "metrics content type" true (contains m "text/plain");
  Alcotest.(check bool) "metrics body served" true (contains m "t_served_total");
  Alcotest.(check bool) "status is json" true (contains st "application/json");
  Alcotest.(check bool) "status samples" true (contains st "\"samples_done\":3");
  Alcotest.(check bool) "status not finished" true (contains st "\"finished\":false");
  Alcotest.(check bool) "unknown path 404" true (contains nf "404")

let qcheck = QCheck_alcotest.to_alcotest

let tests =
  [
    Alcotest.test_case "histogram bucket edges" `Quick (with_obs test_bucket_edges);
    Alcotest.test_case "histogram observe" `Quick (with_obs test_histogram_observe);
    Alcotest.test_case "histogram rejects bad buckets" `Quick (with_obs test_histogram_bad_buckets);
    Alcotest.test_case "counter dedup by (name, labels)" `Quick (with_obs test_counter_dedup);
    Alcotest.test_case "kind clash rejected" `Quick (with_obs test_kind_clash);
    Alcotest.test_case "disabled recording is inert" `Quick (with_obs test_disabled_gating);
    Alcotest.test_case "cross-domain merge" `Quick (with_obs test_cross_domain_merge);
    Alcotest.test_case "merge is schedule-independent" `Quick
      (with_obs test_merge_schedule_independent);
    Alcotest.test_case "span nesting and cost attribution" `Quick (with_obs test_span_nesting);
    Alcotest.test_case "span unwinds on exception" `Quick (with_obs test_span_unwind_on_exception);
    Alcotest.test_case "span JSON shape" `Quick (with_obs test_span_json);
    Alcotest.test_case "spans inert when disabled" `Quick (with_obs test_span_disabled);
    Alcotest.test_case "phase accumulation" `Quick (with_obs test_phase_accumulates);
    Alcotest.test_case "phase time survives exceptions" `Quick
      (with_obs test_phase_time_on_exception);
    Alcotest.test_case "prometheus dump" `Quick (with_obs test_prometheus_dump);
    Alcotest.test_case "promlint catches violations" `Quick test_promlint_catches;
    qcheck prop_merge_order_insensitive;
    Alcotest.test_case "histogram snapshot merge" `Quick (with_obs test_merge_histogram);
    Alcotest.test_case "export feeds merge" `Quick (with_obs test_export_feeds_merge);
    Alcotest.test_case "span trace context re-parents" `Quick (with_obs test_span_context_reparent);
    Alcotest.test_case "tracefile round-trip" `Quick (with_obs test_tracefile_load);
    Alcotest.test_case "tracefile torn tail dropped" `Quick (with_obs test_tracefile_torn_tail);
    Alcotest.test_case "tracefile garbage line skipped" `Quick
      (with_obs test_tracefile_garbage_line);
    Alcotest.test_case "status server round-trip" `Quick (with_obs test_serve_roundtrip);
    Alcotest.test_case "tracefile version skew lines skipped" `Quick
      (with_obs test_tracefile_version_skew);
  ]
