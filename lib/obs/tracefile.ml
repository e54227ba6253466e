(* Loader for the JSONL span trace (DESIGN.md §17).

   Mirrors the journal's torn-line policy: a worker or coordinator killed
   mid-append can leave one partial final line, so a file that does not
   end in a newline has its last line dropped without a parse attempt
   (a truncated number could otherwise decode to a *wrong* event), and any
   other non-empty line that does not decode is counted in [skipped]
   rather than failing the load.

   A line decodes only if its event renders back to exactly that line,
   the rule the journal and CSV loaders follow.  A JSON reader accepts
   forms [Span.to_json] never writes ("ts":0760745600.123456, a sign or
   a tab before a number, a number where the decimal point was), so a
   corrupted byte could otherwise load as a different, well-formed event.
   The parser below covers the flat JSON that [Span.to_json] emits — it
   is a loader for our own trace format, not a general JSON library. *)

type result = {
  events : Span.event list; (* file order *)
  skipped : int; (* non-empty lines that did not decode *)
  torn : bool; (* a torn final line was dropped *)
}

(* ---- minimal JSON value parser ----------------------------------------- *)

type jv = Jnum of float | Jstr of string | Jbool of bool | Jobj of (string * jv) list

exception Bad

let parse_line line =
  let n = String.length line in
  let pos = ref 0 in
  let peek () = if !pos < n then line.[!pos] else raise Bad in
  let next () =
    let c = peek () in
    incr pos;
    c
  in
  let expect c = if next () <> c then raise Bad in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match next () with
      | '"' -> Buffer.contents buf
      | '\\' -> (
        (match next () with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | 'n' -> Buffer.add_char buf '\n'
        | 't' -> Buffer.add_char buf '\t'
        | 'r' -> Buffer.add_char buf '\r'
        | 'u' ->
          (* [Span.json_escape] writes \u only for control characters *)
          if !pos + 4 > n then raise Bad;
          let hex = String.sub line !pos 4 in
          pos := !pos + 4;
          (match int_of_string_opt ("0x" ^ hex) with
          | Some code when code < 0x20 -> Buffer.add_char buf (Char.chr code)
          | _ -> raise Bad)
        | _ -> raise Bad);
        go ())
      | c -> Buffer.add_char buf c; go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    while
      !pos < n
      && match line.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    do
      incr pos
    done;
    if !pos = start then raise Bad;
    match float_of_string_opt (String.sub line start (!pos - start)) with
    | Some f -> f
    | None -> raise Bad
  in
  let parse_lit lit v =
    if !pos + String.length lit <= n && String.sub line !pos (String.length lit) = lit then begin
      pos := !pos + String.length lit;
      v
    end
    else raise Bad
  in
  let rec parse_value () =
    match peek () with
    | '"' -> Jstr (parse_string ())
    | '{' -> parse_obj ()
    | 't' -> parse_lit "true" (Jbool true)
    | 'f' -> parse_lit "false" (Jbool false)
    | _ -> Jnum (parse_number ())
  and parse_obj () =
    expect '{';
    if peek () = '}' then begin
      incr pos;
      Jobj []
    end
    else begin
      let fields = ref [] in
      let rec go () =
        let k = parse_string () in
        expect ':';
        let v = parse_value () in
        fields := (k, v) :: !fields;
        match next () with '}' -> () | ',' -> go () | _ -> raise Bad
      in
      go ();
      Jobj (List.rev !fields)
    end
  in
  let v = parse_value () in
  if !pos <> n then raise Bad;
  v

(* ---- event decoding ---------------------------------------------------- *)

let event_of_json = function
  | Jobj fields ->
    let get k = List.assoc_opt k fields in
    let num k = match get k with Some (Jnum f) -> f | _ -> raise Bad in
    let int k = int_of_float (num k) in
    let str k = match get k with Some (Jstr s) -> s | _ -> raise Bad in
    let opt_str k = match get k with Some (Jstr s) -> s | None -> "" | _ -> raise Bad in
    let opt_int k = match get k with Some (Jnum f) -> int_of_float f | None -> 0 | _ -> raise Bad in
    let bool k = match get k with Some (Jbool b) -> b | _ -> raise Bad in
    let attrs =
      match get "attrs" with
      | None -> []
      | Some (Jobj kvs) ->
        List.map (fun (k, v) -> match v with Jstr s -> (k, s) | _ -> raise Bad) kvs
      | Some _ -> raise Bad
    in
    {
      Span.name = str "name";
      attrs;
      t_start = num "ts";
      dur_s = num "dur_s";
      depth = int "depth";
      domain = int "domain";
      cost = (match get "cost" with Some (Jnum f) -> Int64.of_float f | _ -> raise Bad);
      ok = bool "ok";
      trace = opt_str "trace";
      span_id = opt_int "span";
      parent = opt_int "parent";
    }
  | _ -> raise Bad

let parse_event line =
  match event_of_json (parse_line line) with
  | e when Span.to_json e = line -> Some e
  | _ -> None
  | exception Bad -> None

let load path =
  let ic = open_in path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  (* torn-final-line policy, mirroring Journal.load_entries *)
  let s, torn =
    if n = 0 || s.[n - 1] = '\n' then (s, false)
    else
      match String.rindex_opt s '\n' with
      | Some i -> (String.sub s 0 (i + 1), true)
      | None -> ("", true)
  in
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
  let events = ref [] and skipped = ref 0 in
  List.iter
    (fun l ->
      match parse_event l with Some e -> events := e :: !events | None -> incr skipped)
    lines;
  { events = List.rev !events; skipped = !skipped; torn }
