(* Unit and property tests for the support library: PRNG, bit operations,
   restart backoff and table rendering. *)

module P = Refine_support.Prng
module B = Refine_support.Bitops
module Tbl = Refine_support.Table

let test_prng_deterministic () =
  let a = P.create 42 and b = P.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (P.next_int64 a) (P.next_int64 b)
  done

let test_prng_seed_sensitivity () =
  let a = P.create 42 and b = P.create 43 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if P.next_int64 a = P.next_int64 b then incr same
  done;
  Alcotest.(check bool) "different seeds diverge" true (!same < 4)

let test_prng_copy () =
  let a = P.create 7 in
  ignore (P.next_int64 a);
  let b = P.copy a in
  Alcotest.(check int64) "copy continues identically" (P.next_int64 a) (P.next_int64 b)

let test_prng_split_independent () =
  let a = P.create 7 in
  let b = P.split a in
  let c = P.split a in
  (* splits must not replay each other's stream *)
  let vb = List.init 32 (fun _ -> P.next_int64 b) in
  let vc = List.init 32 (fun _ -> P.next_int64 c) in
  Alcotest.(check bool) "split streams differ" true (vb <> vc)

let test_prng_int_bounds () =
  let r = P.create 1 in
  for _ = 1 to 2000 do
    let v = P.int r 17 in
    Alcotest.(check bool) "in bounds" true (v >= 0 && v < 17)
  done

let test_prng_int_uniformish () =
  let r = P.create 99 in
  let buckets = Array.make 8 0 in
  let n = 16000 in
  for _ = 1 to n do
    let v = P.int r 8 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d near uniform (%d)" i c)
        true
        (abs (c - (n / 8)) < n / 16))
    buckets

let test_prng_float_range () =
  let r = P.create 5 in
  for _ = 1 to 1000 do
    let f = P.float r in
    Alcotest.(check bool) "[0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_prng_int_invalid () =
  let r = P.create 1 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound <= 0") (fun () ->
      ignore (P.int r 0))

let test_flip_bit () =
  Alcotest.(check int64) "flip bit 0" 1L (B.flip_bit 0L 0);
  Alcotest.(check int64) "flip bit 63" Int64.min_int (B.flip_bit 0L 63);
  Alcotest.(check int64) "flip set bit clears" 0L (B.flip_bit 4L 2)

let test_bit_ops () =
  Alcotest.(check bool) "test set" true (B.test_bit 8L 3);
  Alcotest.(check bool) "test clear" false (B.test_bit 8L 2);
  Alcotest.(check int64) "set" 9L (B.set_bit 8L 0);
  Alcotest.(check int64) "clear" 0L (B.clear_bit 8L 3);
  Alcotest.(check int) "popcount" 3 (B.popcount 0b10101L);
  Alcotest.(check int) "popcount -1" 64 (B.popcount (-1L))

let test_bit_index_checked () =
  Alcotest.check_raises "index 64"
    (Invalid_argument "Bitops: bit index 64 out of [0,63]")
    (fun () -> ignore (B.flip_bit 0L 64))

let test_float_bits_roundtrip () =
  List.iter
    (fun f ->
      Alcotest.(check (float 0.0)) "roundtrip" f (B.bits_float (B.float_bits f)))
    [ 0.0; 1.0; -1.5; 3.14159; 1e300; -1e-300 ]

let test_table_render () =
  let s =
    Tbl.render
      ~align:[ Tbl.Left; Tbl.Right ]
      ~header:[ "name"; "value" ]
      [ [ "a"; "1" ]; [ "long-name"; "22" ] ]
  in
  Alcotest.(check bool) "has rule" true (String.length s > 0 && String.contains s '-');
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "4 lines" 4 (List.length lines);
  (* col0 width 9 ("long-name"), col1 width 5 ("value"): "a" + 8 pad +
     2 sep + 4 pad + "1" *)
  Alcotest.(check bool) "right aligned value" true
    (List.exists (fun l -> l = "a" ^ String.make 14 ' ' ^ "1") lines)

let test_table_pads_short_rows () =
  let s = Tbl.render ~header:[ "a"; "b"; "c" ] [ [ "x" ] ] in
  Alcotest.(check bool) "renders" true (String.length s > 0)

(* properties *)
let prop_flip_involution =
  QCheck.Test.make ~name:"flip_bit is an involution" ~count:500
    QCheck.(pair int64 (int_bound 63))
    (fun (v, i) -> B.flip_bit (B.flip_bit v i) i = v)

let prop_flip_changes_popcount =
  QCheck.Test.make ~name:"flip_bit changes popcount by one" ~count:500
    QCheck.(pair int64 (int_bound 63))
    (fun (v, i) -> abs (B.popcount (B.flip_bit v i) - B.popcount v) = 1)

let prop_int64_bound =
  QCheck.Test.make ~name:"Prng.int64 respects bound" ~count:300
    QCheck.(pair small_int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let r = P.create seed in
      let v = P.int64 r (Int64.of_int bound) in
      Int64.compare v 0L >= 0 && Int64.compare v (Int64.of_int bound) < 0)

(* ---- Supervisor.backoff: the worker-restart schedule ------------------- *)

module Sup = Refine_support.Supervisor

let test_backoff_deterministic () =
  for attempt = 0 to 10 do
    Alcotest.(check (float 0.0))
      "same (seed, attempt) same delay"
      (Sup.backoff ~seed:7 attempt)
      (Sup.backoff ~seed:7 attempt)
  done

let test_backoff_schedule_bounds () =
  let base = 0.05 and cap = 2.0 in
  for attempt = 0 to 40 do
    let d = Sup.backoff ~base ~cap ~seed:3 attempt in
    let floor_ = Float.min cap (base /. 2.0 *. (2.0 ** float_of_int (min attempt 32))) in
    Alcotest.(check bool)
      (Printf.sprintf "attempt %d in [%g, %g] (got %g)" attempt floor_ cap d)
      true
      (d >= floor_ && d <= cap)
  done;
  (* deep attempts saturate at exactly the cap *)
  Alcotest.(check (float 0.0)) "saturates at cap" cap (Sup.backoff ~base ~cap ~seed:3 40)

let test_backoff_seed_jitter () =
  (* sibling workers must not restart in lockstep: across seeds the early
     (uncapped) delays differ somewhere *)
  let differs =
    List.exists
      (fun a -> Sup.backoff ~seed:1 a <> Sup.backoff ~seed:2 a)
      [ 0; 1; 2; 3; 4 ]
  in
  Alcotest.(check bool) "different seeds de-synchronize" true differs

let test_backoff_invalid () =
  Alcotest.check_raises "base <= 0" (Invalid_argument "Supervisor.backoff") (fun () ->
      ignore (Sup.backoff ~base:0.0 ~seed:1 0));
  Alcotest.check_raises "cap < base" (Invalid_argument "Supervisor.backoff") (fun () ->
      ignore (Sup.backoff ~base:1.0 ~cap:0.5 ~seed:1 0))

let tests =
  [
    Alcotest.test_case "prng deterministic" `Quick test_prng_deterministic;
    Alcotest.test_case "backoff deterministic" `Quick test_backoff_deterministic;
    Alcotest.test_case "backoff schedule bounds" `Quick test_backoff_schedule_bounds;
    Alcotest.test_case "backoff seed jitter" `Quick test_backoff_seed_jitter;
    Alcotest.test_case "backoff invalid args" `Quick test_backoff_invalid;
    Alcotest.test_case "prng seed sensitivity" `Quick test_prng_seed_sensitivity;
    Alcotest.test_case "prng copy" `Quick test_prng_copy;
    Alcotest.test_case "prng split independent" `Quick test_prng_split_independent;
    Alcotest.test_case "prng int bounds" `Quick test_prng_int_bounds;
    Alcotest.test_case "prng int uniform-ish" `Quick test_prng_int_uniformish;
    Alcotest.test_case "prng float range" `Quick test_prng_float_range;
    Alcotest.test_case "prng invalid bound" `Quick test_prng_int_invalid;
    Alcotest.test_case "flip_bit" `Quick test_flip_bit;
    Alcotest.test_case "bit ops" `Quick test_bit_ops;
    Alcotest.test_case "bit index checked" `Quick test_bit_index_checked;
    Alcotest.test_case "float bits roundtrip" `Quick test_float_bits_roundtrip;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table pads short rows" `Quick test_table_pads_short_rows;
    QCheck_alcotest.to_alcotest prop_flip_involution;
    QCheck_alcotest.to_alcotest prop_flip_changes_popcount;
    QCheck_alcotest.to_alcotest prop_int64_bound;
  ]
