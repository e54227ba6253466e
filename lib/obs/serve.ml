(* Live campaign status endpoint (DESIGN.md §17).

   A dependency-free HTTP/1.0 listener over [Unix] sockets, designed to be
   *polled*: the owner (the coordinator's select loop, or on the
   in-process path a systhread asleep in select on [fds]) calls [poll] at
   its own cadence, and every socket is non-blocking, so a slow or stuck
   client can never stall the campaign.  One GET per connection,
   [Connection: close] — the crudest HTTP that curl and Prometheus both
   speak, which is all a status page needs.

   Routes: /metrics (Prometheus text exposition, byte-identical to what
   [Metrics.save] writes), /status (campaign progress JSON), /healthz. *)

type response = { status : int; content_type : string; body : string }

type conn = {
  c_fd : Unix.file_descr;
  c_buf : Buffer.t;
  mutable c_out : string; (* serialized response, "" until request parsed *)
  mutable c_off : int;
  c_opened : float;
}

type t = {
  listen_fd : Unix.file_descr;
  port : int;
  mutable conns : conn list;
  mutable status_page : (unit -> string) option; (* /status JSON, once [set_status] ran *)
  mutable closed : bool;
}

(* ---- progress model ---------------------------------------------------- *)

type worker_info = {
  w_slot : int;
  w_pid : int;
  w_alive : bool;
  w_state : string; (* idle | busy | waiting | dead *)
  w_last_seen_s : float; (* age of the last frame/heartbeat, seconds *)
  w_restarts : int;
}

type progress = {
  p_samples_done : int;
  p_samples_total : int;
  p_cells_done : int;
  p_cells_total : int;
  p_cells_quarantined : int;
  p_workers : worker_info list option; (* None on the in-process path *)
  p_finished : bool;
}

(* ---- plumbing ---------------------------------------------------------- *)

let max_request = 8192
let conn_timeout_s = 10.0

let reason = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | _ -> "Error"

let serialize r =
  Printf.sprintf
    "HTTP/1.0 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
    r.status (reason r.status) r.content_type (String.length r.body) r.body

let text status body = { status; content_type = "text/plain; charset=utf-8"; body }

let create ?(port = 0) () =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd 16;
  Unix.set_nonblock fd;
  let port =
    match Unix.getsockname fd with Unix.ADDR_INET (_, p) -> p | Unix.ADDR_UNIX _ -> port
  in
  { listen_fd = fd; port; conns = []; status_page = None; closed = false }

let port t = t.port

let close_conn c = try Unix.close c.c_fd with Unix.Unix_error _ -> ()

let close t =
  if not t.closed then begin
    t.closed <- true;
    List.iter close_conn t.conns;
    t.conns <- [];
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ())
  end

let fds t = if t.closed then [] else t.listen_fd :: List.map (fun c -> c.c_fd) t.conns

(* Parse "GET /path HTTP/1.x" out of a complete request head; the query
   string is dropped — routes take no parameters. *)
let route_response t head =
  match String.split_on_char ' ' head with
  | meth :: path :: _ when meth = "GET" ->
    let path = match String.index_opt path '?' with Some i -> String.sub path 0 i | None -> path in
    (match (path, t.status_page) with
    | "/healthz", _ -> text 200 "ok\n"
    | "/metrics", _ ->
      { status = 200; content_type = "text/plain; version=0.0.4"; body = Metrics.dump () }
    | "/status", Some json -> { status = 200; content_type = "application/json"; body = json () }
    | _ -> text 404 "not found\n")
  | _ :: _ :: _ -> text 405 "only GET\n"
  | _ -> text 400 "bad request\n"

let head_complete s =
  let has sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  has "\r\n\r\n" || has "\n\n"

let step_conn t now c =
  let alive = ref true in
  let kill () =
    close_conn c;
    alive := false
  in
  (if !alive && c.c_out = "" then
     (* reading the request *)
     let bytes = Bytes.create 1024 in
     match Unix.read c.c_fd bytes 0 1024 with
     | 0 -> kill () (* client went away before sending a full request *)
     | n ->
       Buffer.add_subbytes c.c_buf bytes 0 n;
       if Buffer.length c.c_buf > max_request then kill ()
       else begin
         let s = Buffer.contents c.c_buf in
         if head_complete s then begin
           let head = match String.index_opt s '\n' with Some i -> String.sub s 0 i | None -> s in
           let head = String.trim head in
           c.c_out <- serialize (route_response t head)
         end
       end
     | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
     | exception Unix.Unix_error (_, _, _) -> kill ());
  (if !alive && c.c_out <> "" then
     (* writing the response *)
     let remaining = String.length c.c_out - c.c_off in
     match Unix.write_substring c.c_fd c.c_out c.c_off remaining with
     | n ->
       c.c_off <- c.c_off + n;
       if c.c_off >= String.length c.c_out then kill () (* done; HTTP/1.0 close *)
     | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
     | exception Unix.Unix_error (_, _, _) -> kill ());
  if !alive && now -. c.c_opened > conn_timeout_s then kill ();
  !alive

let poll t =
  if not t.closed then begin
    (* accept everything pending *)
    let rec accept_loop () =
      match Unix.accept ~cloexec:true t.listen_fd with
      | fd, _ ->
        Unix.set_nonblock fd;
        t.conns <-
          { c_fd = fd; c_buf = Buffer.create 256; c_out = ""; c_off = 0; c_opened = Control.now () }
          :: t.conns;
        accept_loop ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
      | exception Unix.Unix_error (_, _, _) -> ()
    in
    accept_loop ();
    let now = Control.now () in
    t.conns <- List.filter (step_conn t now) t.conns
  end

(* ---- /status ----------------------------------------------------------- *)

let worker_json w =
  Printf.sprintf
    "{\"slot\":%d,\"pid\":%d,\"alive\":%b,\"state\":\"%s\",\"last_seen_s\":%.3f,\"restarts\":%d}"
    w.w_slot w.w_pid w.w_alive (Span.json_escape w.w_state) w.w_last_seen_s w.w_restarts

(* Rolling throughput: (t, samples_done) observations over the last few
   seconds, sampled on each /status hit.  Kept per [set_status] install so
   consecutive campaigns in one process don't bleed rates. *)
let rate_window = 10.0

let status_json window get =
  let p = get () in
  let now = Control.now () in
  Queue.push (now, p.p_samples_done) window;
  while
    Queue.length window > 2
    &&
    let t0, _ = Queue.peek window in
    now -. t0 > rate_window
  do
    ignore (Queue.pop window)
  done;
  let rate =
    let t0, d0 = Queue.peek window in
    let dt = now -. t0 in
    if dt <= 0.0 then 0.0 else float_of_int (p.p_samples_done - d0) /. dt
  in
  let remaining = p.p_samples_total - p.p_samples_done in
  let eta =
    if p.p_finished || remaining <= 0 then 0.0
    else if rate <= 0.0 then -1.0 (* unknown yet *)
    else float_of_int remaining /. rate
  in
  let workers =
    match p.p_workers with
    | None -> ""
    | Some ws ->
      Printf.sprintf ",\"workers\":[%s]" (String.concat "," (List.map worker_json ws))
  in
  Printf.sprintf
    "{\"finished\":%b,\"samples_done\":%d,\"samples_total\":%d,\"cells_done\":%d,\"cells_total\":%d,\"cells_quarantined\":%d,\"samples_per_s\":%.3f,\"eta_s\":%.3f%s}\n"
    p.p_finished p.p_samples_done p.p_samples_total p.p_cells_done p.p_cells_total
    p.p_cells_quarantined rate eta workers

let set_status t get =
  let window = Queue.create () in
  t.status_page <- Some (fun () -> status_json window get)
