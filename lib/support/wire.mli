(** Binary wire codec for the sharded campaign protocol (DESIGN.md §16).

    Big-endian fixed-width primitives, length-prefixed strings and counted
    lists over a [Buffer] encoder and a string cursor decoder.  Strict:
    reading past the end raises {!Truncated}, so no prefix of a valid
    encoding decodes to a valid value (pinned by the test suite's
    truncated-buffer property), {!expect_end} rejects trailing bytes, and
    bytes no encoder writes (a bool or option tag other than 0 or 1, an
    i64 outside the int range) raise [Invalid_argument], so a decoded
    value re-encodes to exactly its bytes (pinned by the byte-corruption
    property).  Floats are encoded as IEEE-754 bit patterns and round-trip
    exactly. *)

exception Truncated
(** The buffer ends before the value being decoded does. *)

(** {1 Encoding} *)

val put_u8 : Buffer.t -> int -> unit
val put_i64 : Buffer.t -> int64 -> unit

val put_int : Buffer.t -> int -> unit
(** As i64 — covers the full OCaml int range. *)

val put_bool : Buffer.t -> bool -> unit

val put_f64 : Buffer.t -> float -> unit
(** Bit-exact via [Int64.bits_of_float]. *)

val put_string : Buffer.t -> string -> unit
(** u32 length prefix + raw bytes. *)

val put_option : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a option -> unit
val put_list : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a list -> unit

(** {1 Decoding} *)

type cursor

val cursor : string -> cursor
val get_u8 : cursor -> int
val get_i64 : cursor -> int64
val get_int : cursor -> int
val get_bool : cursor -> bool
val get_f64 : cursor -> float
val get_string : cursor -> string
val get_option : cursor -> (cursor -> 'a) -> 'a option
val get_list : cursor -> (cursor -> 'a) -> 'a list
val at_end : cursor -> bool

val expect_end : cursor -> unit
(** [Invalid_argument] unless the cursor consumed the whole buffer — a
    frame with trailing garbage is a protocol error, not padding. *)

(** {1 Framing} *)

val frame : string -> string
(** [frame payload] prepends a u32 big-endian byte length. *)

(** Incremental deframer for a byte stream (one per pipe): {!feed} raw
    chunks as they arrive, {!next} pops complete frame payloads in order.
    An incomplete trailing frame stays buffered; at end-of-stream,
    {!residue} exposes its byte count so a torn frame (worker killed
    mid-write) is counted, never mis-decoded. *)
type stream

val stream : unit -> stream
val feed : stream -> bytes -> int -> unit
val next : stream -> string option
val residue : stream -> int
