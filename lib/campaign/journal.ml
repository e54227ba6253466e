(* Checkpoint/resume journal for fault-injection campaigns.

   An append-only, line-oriented record of every resolved
   (program, tool, sample-index) experiment — outcome, modeled cost and
   attempts used — so an interrupted campaign can resume without re-running
   completed samples.  Because every sample owns its own deterministic PRNG
   split (Experiment), summing journaled outcomes with freshly-run ones is
   bit-identical to an uninterrupted run with the same seed, whatever the
   crash/resume interleaving.

   Quarantined cells (DESIGN.md §13) are journaled too, as "Q"-tagged
   lines with a different field count.

   A campaign's journal records the campaign's identity in its header:
   every setting that changes a recorded sample's outcome or cost.  A
   record is keyed only by (program, tool, model, index), so without it a
   resume under another seed or pipeline would merge another campaign's
   samples into this one's tables.

   The line is the one serialized form of a sample record: a shard worker
   streams the same line to its coordinator inside an [Outcome] frame
   (Shard, DESIGN.md §16), decoded by the same [parse].

   Durability: [create] writes the full canonical log to [path ^ ".tmp"]
   and renames it over [path] (atomic at the filesystem level), then every
   [record] appends one line and flushes — O(1) per sample instead of a
   full rewrite.  A kill mid-append can therefore leave one torn final
   line; the loader detects the missing trailing newline, skips the
   partial line without attempting to parse it, counts it in [skipped]
   (surfaced as [refine_journal_skipped_lines_total]), and resumes from
   the previous record — one re-run, never a raised exception. *)

module F = Refine_core.Fault

type entry = {
  program : string;
  tool : string; (* Tool.kind_name *)
  model : string; (* Fault.string_of_model *)
  sample : int; (* 0-based index within the cell *)
  outcome : F.outcome;
  cost : int64;
  attempts : int;
}

type identity = (string * string) list

exception Other_campaign of string

type t = {
  path : string;
  identity : identity option;
  mutable entries : entry list; (* newest first *)
  mutable quarantines : (string * string * string) list; (* (program, tool, reason) *)
  mutable skipped : int; (* undecodable lines dropped at load *)
  mutable chan : out_channel option; (* append channel, opened on first record *)
  lock : Mutex.t;
}

(* The version tag is a comment line naming the record format.  v2
   appended the fault-model field (DESIGN.md §18); no writer has produced
   the v1 shape since.  A journal not tagged with exactly this line, once
   (untagged, v1 or a version this loader does not know), loads no
   record: its lines may have the shape of a v2 record and still mean
   something else. *)
let tag_prefix = "# refine-journal v"
let magic = tag_prefix ^ "2"

(* the identity is a comment line, so the record format and its tag are
   unchanged: "# refine-campaign<TAB>name=value<TAB>..." *)
let identity_prefix = "# refine-campaign"

let render_identity id =
  String.concat "\t" (identity_prefix :: List.map (fun (k, v) -> k ^ "=" ^ v) id)

let parse_identity line =
  match String.split_on_char '\t' line with
  | p :: fields when p = identity_prefix -> (
    try
      Some
        (List.map
           (fun f ->
             let i = String.index f '=' in
             (String.sub f 0 i, String.sub f (i + 1) (String.length f - i - 1)))
           fields)
    with Not_found -> None)
  | _ -> None

(* reasons travel on one journal/CSV line; field and line separators are
   squashed to spaces *)
let sanitize s =
  String.map (function '\t' | '\n' | '\r' | ',' -> ' ' | c -> c) s

let render e =
  Printf.sprintf "%s\t%s\t%d\t%s\t%Ld\t%d\t%s" e.program e.tool e.sample
    (F.string_of_outcome e.outcome)
    e.cost e.attempts e.model

let render_quarantine (program, tool, reason) =
  Printf.sprintf "Q\t%s\t%s\t%s" program tool (sanitize reason)

(* Tolerant parse: a line that does not decode (e.g. an outcome name or
   record shape written by a newer version) is skipped rather than
   aborting the resume — losing one checkpoint costs one re-run, losing
   the journal costs the campaign.  [Fault.outcome_of_string] raises on
   unknown names; the try-with turns that into a skip, and the caller
   counts skips so the degradation report can surface them.

   A line is accepted only if its entry renders back to exactly that line.
   [int_of_string] and [Int64.of_string] also read [1_], [0x5], [+7],
   [0b11] and [01]; a corrupted byte can produce any of those, and a
   lenient read would load the wrong sample or cost, which [create]'s
   canonical rewrite then makes permanent.  A 6-field line is a 7-field
   line cut short (a model separator corrupted into a newline) and never
   decodes. *)
let parse line =
  try
    match String.split_on_char '\t' line with
    | [ program; tool; sample; outcome; cost; attempts; model ] ->
      let e =
        {
          program;
          tool;
          (* canonical model name: a corrupt trailing field skips the line
             instead of resurfacing later as a loader error *)
          model = F.string_of_model (F.model_of_string model);
          sample = int_of_string sample;
          outcome = F.outcome_of_string outcome;
          cost = Int64.of_string cost;
          attempts = int_of_string attempts;
        }
      in
      if render e = line then Some e else None
    | _ -> None
  with _ -> None

let parse_quarantine line =
  match String.split_on_char '\t' line with
  | [ "Q"; program; tool; reason ] -> Some (program, tool, reason)
  | _ -> None

(* full canonical rewrite — used at [create]; incremental records append *)
let flush t =
  (match t.chan with
  | Some oc ->
    close_out oc;
    t.chan <- None
  | None -> ());
  let tmp = t.path ^ ".tmp" in
  let oc = open_out tmp in
  output_string oc (magic ^ "\n");
  Option.iter (fun id -> output_string oc (render_identity id ^ "\n")) t.identity;
  List.iter (fun q -> output_string oc (render_quarantine q ^ "\n")) (List.rev t.quarantines);
  List.iter (fun e -> output_string oc (render e ^ "\n")) (List.rev t.entries);
  close_out oc;
  Sys.rename tmp t.path

let append_line t line =
  let oc =
    match t.chan with
    | Some oc -> oc
    | None ->
      let oc = open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 t.path in
      t.chan <- Some oc;
      oc
  in
  output_string oc (line ^ "\n");
  Stdlib.flush oc

let read_all path = In_channel.with_open_bin path In_channel.input_all

let is_record l = String.trim l <> "" && l.[0] <> '#'

let record_lines path =
  if Sys.file_exists path then
    List.length (List.filter is_record (String.split_on_char '\n' (read_all path)))
  else 0

let load_entries path =
  let s = read_all path in
  let n = String.length s in
  (* A file that does not end in a newline was torn by a kill mid-append:
     the final partial line is dropped without a parse attempt (a truncated
     numeric field could otherwise decode to a *wrong* record) and counted
     as skipped — resume continues from the previous complete record. *)
  let s, torn =
    if n = 0 || s.[n - 1] = '\n' then (s, 0)
    else
      match String.rindex_opt s '\n' with
      | Some i ->
        Printf.eprintf "journal %s: dropping torn final line (killed mid-append)\n%!" path;
        (String.sub s 0 (i + 1), 1)
      | None ->
        Printf.eprintf "journal %s: dropping torn final line (killed mid-append)\n%!" path;
        ("", 1)
  in
  let lines = String.split_on_char '\n' s in
  let tags = List.filter (String.starts_with ~prefix:tag_prefix) lines in
  let lines = List.filter is_record lines in
  if tags = [ magic ] then begin
    let entries = ref [] and quarantines = ref [] and skipped = ref torn in
    List.iter
      (fun l ->
        match parse_quarantine l with
        | Some q -> quarantines := q :: !quarantines
        | None -> (
          match parse l with
          | Some e -> entries := e :: !entries
          | None ->
            incr skipped;
            Printf.eprintf "journal %s: skipping undecodable line: %s\n%!" path l))
      lines;
    (List.rev !entries, List.rev !quarantines, !skipped)
  end
  else begin
    let n = List.length lines in
    if n > 0 then
      Printf.eprintf "journal %s: skipping all %d record lines: %s\n%!" path n
        (match List.find_opt (fun t -> t <> magic) tags with
        | Some tag -> Printf.sprintf "tagged %S, a version this loader does not know" tag
        | None -> Printf.sprintf "not tagged %S exactly once" magic);
    ([], [], torn + n)
  end

(* The identity the file at [path] records; [Error] names why there is
   none to compare.  Read before any record, so a refused resume prints no
   warning about the records it never loads. *)
let recorded_identity path =
  match List.filter_map parse_identity (String.split_on_char '\n' (read_all path)) with
  | [ id ] -> Ok id
  | [] -> Error "records no campaign identity"
  | _ -> Error "records more than one campaign identity"

(* the first field, in [requested]'s order and then [recorded]'s, whose
   values differ *)
let first_difference ~recorded ~requested =
  let keys =
    List.map fst requested
    @ List.filter (fun k -> not (List.mem_assoc k requested)) (List.map fst recorded)
  in
  List.find_map
    (fun k ->
      let r = List.assoc_opt k recorded and q = List.assoc_opt k requested in
      if r = q then None else Some (k, r, q))
    keys

let check_identity path requested =
  let refuse fmt = Printf.ksprintf (fun m -> raise (Other_campaign (path ^ " " ^ m))) fmt in
  match recorded_identity path with
  | Error why -> refuse "%s, so it cannot be checked against this campaign" why
  | Ok recorded -> (
    match first_difference ~recorded ~requested with
    | None -> ()
    | Some (k, r, q) ->
      let show = function Some v -> k ^ "=" ^ v | None -> "no " ^ k in
      refuse "was recorded by a campaign with %s; this one has %s" (show r) (show q))

let create ?identity ?(resume = false) path =
  (* an empty file (a fresh temp file) records nothing to merge *)
  let resuming = resume && Sys.file_exists path && (Unix.stat path).Unix.st_size > 0 in
  if resuming then Option.iter (check_identity path) identity;
  let entries, quarantines, skipped = if resuming then load_entries path else ([], [], 0) in
  let t =
    {
      path;
      identity;
      entries = List.rev entries;
      quarantines = List.rev quarantines;
      skipped;
      chan = None;
      lock = Mutex.create ();
    }
  in
  flush t;
  t

let m_records =
  Refine_obs.Metrics.counter ~help:"samples checkpointed to the resume journal"
    "refine_journal_records_total"

let m_flush_seconds =
  Refine_obs.Metrics.histogram ~help:"journal record (append + flush) wall time"
    ~buckets:[| 1e-5; 1e-4; 1e-3; 1e-2; 0.1; 1.0 |]
    "refine_journal_flush_seconds"

let m_skipped =
  Refine_obs.Metrics.counter ~help:"undecodable journal lines dropped at resume"
    "refine_journal_skipped_lines_total"

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let record t e =
  locked t (fun () ->
      t.entries <- e :: t.entries;
      let t0 = Refine_obs.Control.now () in
      append_line t (render e);
      Refine_obs.Metrics.inc m_records;
      Refine_obs.Metrics.observe m_flush_seconds (Refine_obs.Control.now () -. t0))

let record_quarantine t ~program ~tool ~reason =
  locked t (fun () ->
      (* idempotent per cell: a resumed campaign re-quarantines the same
         cell with the same reason *)
      if
        not
          (List.exists (fun (p, tl, _) -> p = program && tl = tool) t.quarantines)
      then begin
        t.quarantines <- (program, tool, reason) :: t.quarantines;
        append_line t (render_quarantine (program, tool, reason))
      end)

let close t =
  locked t (fun () ->
      match t.chan with
      | Some oc ->
        close_out oc;
        t.chan <- None
      | None -> ())

let quarantine_reason t ~program ~tool =
  locked t (fun () ->
      List.find_map
        (fun (p, tl, r) -> if p = program && tl = tool then Some r else None)
        t.quarantines)

let quarantines t = locked t (fun () -> List.rev t.quarantines)

let skipped t = locked t (fun () -> t.skipped)

let note_skipped_metric t =
  let n = skipped t in
  if n > 0 then Refine_obs.Metrics.add m_skipped n

let entries t = locked t (fun () -> List.rev t.entries)

let length t = List.length (entries t)

let completed ?(model = "reg") t ~program ~tool =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun e ->
      if e.program = program && e.tool = tool && e.model = model then
        Hashtbl.replace tbl e.sample e)
    (entries t);
  tbl
