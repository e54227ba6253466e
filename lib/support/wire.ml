(* Binary wire codec for the sharded campaign protocol (DESIGN.md §16).

   Fixed-width big-endian primitives plus length-prefixed strings and
   counted lists, written into a [Buffer] and read back through a cursor.
   Decoding is strict in both directions: reading past the end of the
   buffer raises [Truncated] (a partial frame must never decode to a
   valid shorter one), and the frame layer rejects payloads with trailing
   bytes.  The codec is pure bytes-in/bytes-out — process plumbing (pipes,
   framing over fds) lives with the protocol in [Refine_campaign.Shard].

   Floats travel as their IEEE-754 bit patterns ([Int64.bits_of_float]),
   so every finite value round-trips exactly — the fixed-seed equality
   guarantees of the campaign do not survive a lossy text encoding. *)

exception Truncated
(* the buffer ends before the value does *)

(* ---- encoding --------------------------------------------------------- *)

let put_u8 b v =
  if v < 0 || v > 0xff then invalid_arg "Wire.put_u8";
  Buffer.add_char b (Char.chr v)

let put_u32 b v =
  if v < 0 || v > 0xffff_ffff then invalid_arg "Wire.put_u32";
  Buffer.add_char b (Char.chr ((v lsr 24) land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 16) land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char b (Char.chr (v land 0xff))

let put_i64 b v =
  for k = 7 downto 0 do
    Buffer.add_char b
      (Char.chr (Int64.to_int (Int64.shift_right_logical v (k * 8)) land 0xff))
  done

(* OCaml ints are 63-bit; i64 on the wire keeps the sign *)
let put_int b v = put_i64 b (Int64.of_int v)

let put_bool b v = put_u8 b (if v then 1 else 0)

let put_f64 b v = put_i64 b (Int64.bits_of_float v)

let put_string b s =
  put_u32 b (String.length s);
  Buffer.add_string b s

let put_option b put = function
  | None -> put_u8 b 0
  | Some v ->
    put_u8 b 1;
    put b v

let put_list b put l =
  put_u32 b (List.length l);
  List.iter (put b) l

(* ---- decoding --------------------------------------------------------- *)

type cursor = { data : string; mutable pos : int }

let cursor data = { data; pos = 0 }

let need c n = if c.pos + n > String.length c.data then raise Truncated

let get_u8 c =
  need c 1;
  let v = Char.code c.data.[c.pos] in
  c.pos <- c.pos + 1;
  v

let get_u32 c =
  need c 4;
  let byte k = Char.code c.data.[c.pos + k] in
  let v = (byte 0 lsl 24) lor (byte 1 lsl 16) lor (byte 2 lsl 8) lor byte 3 in
  c.pos <- c.pos + 4;
  v

let get_i64 c =
  need c 8;
  let v = ref 0L in
  for k = 0 to 7 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code c.data.[c.pos + k]))
  done;
  c.pos <- c.pos + 8;
  !v

(* [put_int] never writes an i64 outside the 63-bit range: wrapping one
   would decode a corrupted frame to a different int *)
let get_int c =
  let v = get_i64 c in
  if Int64.of_int (Int64.to_int v) <> v then invalid_arg "Wire.get_int: outside the int range";
  Int64.to_int v

let get_bool c =
  match get_u8 c with
  | 0 -> false
  | 1 -> true
  | _ -> invalid_arg "Wire.get_bool: not a bool"

let get_f64 c = Int64.float_of_bits (get_i64 c)

let get_string c =
  let n = get_u32 c in
  need c n;
  let s = String.sub c.data c.pos n in
  c.pos <- c.pos + n;
  s

let get_option c get =
  match get_u8 c with 0 -> None | 1 -> Some (get c) | _ -> invalid_arg "Wire.get_option: tag"

let get_list c get =
  let n = get_u32 c in
  List.init n (fun _ -> get c)

let at_end c = c.pos = String.length c.data

let expect_end c = if not (at_end c) then invalid_arg "Wire: trailing bytes after value"

(* ---- framing ---------------------------------------------------------- *)

let frame payload =
  let b = Buffer.create (String.length payload + 4) in
  put_u32 b (String.length payload);
  Buffer.add_string b payload;
  Buffer.contents b

(* Incremental deframer for a byte stream: feed chunks as they arrive,
   pop complete payloads.  Bytes of an incomplete trailing frame stay
   buffered — or, if the stream ends there, are reported by [residue] so
   the reader can count the torn frame instead of mis-decoding it. *)
type stream = { acc : Buffer.t; mutable off : int }

let stream () = { acc = Buffer.create 4096; off = 0 }

let feed t bytes len = Buffer.add_subbytes t.acc bytes 0 len

let next t =
  let have = Buffer.length t.acc - t.off in
  if have < 4 then None
  else begin
    let hdr = Buffer.sub t.acc t.off 4 in
    let len =
      (Char.code hdr.[0] lsl 24) lor (Char.code hdr.[1] lsl 16) lor (Char.code hdr.[2] lsl 8)
      lor Char.code hdr.[3]
    in
    if have < 4 + len then None
    else begin
      let payload = Buffer.sub t.acc (t.off + 4) len in
      t.off <- t.off + 4 + len;
      (* compact once the consumed prefix dominates the buffer *)
      if t.off > 65536 && t.off * 2 > Buffer.length t.acc then begin
        let rest = Buffer.sub t.acc t.off (Buffer.length t.acc - t.off) in
        Buffer.clear t.acc;
        Buffer.add_string t.acc rest;
        t.off <- 0
      end;
      Some payload
    end
  end

let residue t = Buffer.length t.acc - t.off
