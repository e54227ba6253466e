(** Live campaign status endpoint (DESIGN.md §17).

    A dependency-free HTTP/1.0 listener ([Unix] sockets, hand-rolled
    request parsing) designed to be *polled* from an existing event loop:
    the coordinator calls {!poll} from its select loop; the in-process
    campaign path drives it from a systhread that sleeps in [select] on
    {!fds}.  All sockets are non-blocking — a slow client can never stall
    the campaign.

    Routes: [/metrics] (Prometheus text, byte-identical to
    {!Metrics.dump}), [/status] (progress JSON, installed via
    {!set_status}), [/healthz]. *)

type t

val create : ?port:int -> unit -> t
(** Bind and listen on 127.0.0.1:[port] (default 0 = kernel-assigned; read
    it back with {!port}).  Raises [Unix.Unix_error] if the bind fails. *)

val port : t -> int

val poll : t -> unit
(** Accept pending connections and advance every in-flight request by one
    non-blocking step.  Call from the owner's event loop; never blocks. *)

val fds : t -> Unix.file_descr list
(** Descriptors to watch for readability so a select loop wakes promptly
    on new requests ({!poll} still must run on a timeout — it also
    finishes partially-written responses). *)

val close : t -> unit

(** {1 Campaign progress ([/status])} *)

type worker_info = {
  w_slot : int;
  w_pid : int;
  w_alive : bool;
  w_state : string;  (** idle | busy | waiting | dead *)
  w_last_seen_s : float;  (** age of the last frame from this worker *)
  w_restarts : int;
}

type progress = {
  p_samples_done : int;
  p_samples_total : int;
  p_cells_done : int;
  p_cells_total : int;
  p_cells_quarantined : int;
  p_workers : worker_info list option;  (** [None] on the in-process path *)
  p_finished : bool;
}

val set_status : t -> (unit -> progress) -> unit
(** Install the [/status] route (404 until installed): each hit calls the
    provider and renders progress JSON with a rolling samples/s rate and
    an ETA (eta_s is -1 while the rate is still unknown). *)
