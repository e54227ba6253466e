(* Unified pipeline manager + content-addressed artifact cache (DESIGN.md
   §15): spec parse/print round-trips (qcheck), interleaved verification
   catching a chaos-corrupted MIR pipeline, fixed-seed campaign equality
   with the cache on / off / per-pass verification, IR-tier compile
   sharing across tools, and the mutated-image-is-never-served
   regression. *)

module Pl = Refine_passes.Pipeline
module Pass = Refine_passes.Pass
module AC = Refine_passes.Artifact_cache
module T = Refine_core.Tool
module Ex = Refine_campaign.Experiment
module M = Refine_mir.Minstr
module R = Refine_mir.Reg

let prog_a =
  {|
int main() {
  int i;
  int acc = 0;
  for (i = 0; i < 40; i = i + 1) { acc = acc + i * 3 - (i / 2); }
  print_int(acc);
  return 0;
}
|}

let prog_b =
  {|
float poly(float x) { return x * x * 0.5 + x * 3.0 - 1.25; }
int main() {
  int i;
  float s = 0.0;
  for (i = 0; i < 24; i = i + 1) { s = s + poly(tofloat(i) * 0.25); }
  print_float(s);
  return 0;
}
|}

(* ---- parse/print round-trip ------------------------------------------- *)

let spec_testable = Alcotest.testable (fun fmt s -> Format.pp_print_string fmt (Pl.print s)) Pl.equal

let test_level_roundtrip () =
  List.iter
    (fun level ->
      let s = Pl.of_level level in
      Alcotest.check spec_testable
        ("-" ^ Pl.string_of_level level ^ " round-trips")
        s
        (Pl.parse (Pl.print s)))
    [ Pl.O0; Pl.O1; Pl.O2 ]

let test_parse_whitespace () =
  Alcotest.check spec_testable "whitespace and empty segments are tolerated"
    { Pl.ir = [ "mem2reg"; "dce" ]; isel = true; mir = [ "regalloc" ]; layout = false }
    (Pl.parse " mem2reg ,, dce , isel , regalloc ")

let test_parse_errors () =
  let rejects name s =
    match Pl.parse s with
    | exception Pl.Parse_error _ -> ()
    | _ -> Alcotest.failf "%s: %S should not parse" name s
  in
  rejects "unknown pass" "mem2reg,frobnicate";
  rejects "MIR pass before isel" "regalloc,isel";
  rejects "IR pass after isel" "isel,mem2reg";
  rejects "duplicate isel" "isel,isel";
  rejects "layout not last" "isel,layout,peephole";
  rejects "layout without isel" "mem2reg,layout"

(* any well-formed spec round-trips: random pass sequences (duplicates
   allowed — clean-up rounds repeat passes), random isel/layout structure *)
let qcheck_roundtrip =
  let ir_names = [ "mem2reg"; "constfold"; "simplifycfg"; "cse"; "dce"; "sccp"; "licm"; "llfi-fi" ] in
  let mir_names = [ "regalloc"; "frame"; "peephole"; "refine-fi" ] in
  let gen =
    QCheck.Gen.(
      let pick names = list_size (int_bound 6) (oneofl names) in
      pick ir_names >>= fun ir ->
      bool >>= fun isel ->
      (if isel then pick mir_names else return []) >>= fun mir ->
      (if isel then bool else return false) >>= fun layout ->
      return { Pl.ir; isel; mir; layout })
  in
  let arb = QCheck.make ~print:Pl.print gen in
  QCheck.Test.make ~count:500 ~name:"pipeline print/parse round-trip" arb (fun s ->
      Pl.equal s (Pl.parse (Pl.print s)))

(* ---- interleaved verification vs chaos -------------------------------- *)

let break_mir = { T.break_mir = true; flaky_golden = false }

(* the chaos pass corrupts a SetupFI splice right after refine-fi; the
   interleaved MIR verifier must catch it before layout *)
let test_verify_each_catches_chaos () =
  match T.prepare ~verify_each:true ~chaos:break_mir T.Refine prog_a with
  | exception T.Quarantine ("mir-verifier", _) -> ()
  | exception e -> Alcotest.failf "expected mir-verifier quarantine, got %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "chaos-corrupted MIR escaped interleaved verification"

let test_chaos_cell_quarantined () =
  let cell =
    Ex.run_cell ~verify_each:true ~samples:4 ~seed:11 ~chaos:break_mir T.Refine
      ~program:"chaos" ~source:prog_a ()
  in
  (match cell.Ex.quarantined with
  | Some reason ->
    Alcotest.(check bool) "mir-verifier category" true
      (String.length reason >= 12 && String.sub reason 0 12 = "mir-verifier")
  | None -> Alcotest.fail "chaos cell was not quarantined");
  Alcotest.(check int) "no samples ran" 0 (Ex.total cell.Ex.counts)

(* an IR-stage verifier trip must quarantine with its own category *)
let test_ir_verifier_quarantines () =
  let m = Refine_minic.Frontend.compile prog_a in
  (* corrupting the module is awkward; instead check the classification
     path directly through a spec whose IR stage rejects a MIR pass *)
  (match Pl.run_ir { Pl.empty with Pl.ir = [ "regalloc" ] } m with
  | exception Pl.Parse_error _ -> ()
  | _ -> Alcotest.fail "MIR pass in the IR stage must be rejected")

(* ---- fixed-seed campaign equality: cold / warm cache / verify-each --- *)

let matrix ?verify_each () =
  Ex.run_matrix ~domains:2 ?verify_each ~samples:10 ~seed:42
    [ ("A", prog_a); ("B", prog_b) ]
    [ T.Refine; T.Llfi ]

let cell_sig (c : Ex.cell) =
  Printf.sprintf "%s/%s crash=%d soc=%d benign=%d err=%d cost=%Ld dyn=%Ld static=%d" c.Ex.program
    (T.kind_name c.Ex.tool) c.Ex.counts.Ex.crash c.Ex.counts.Ex.soc c.Ex.counts.Ex.benign
    c.Ex.counts.Ex.tool_error c.Ex.injection_cost c.Ex.profile.Refine_core.Fault.dyn_count
    c.Ex.static_instrumented

(* a cold cache builds every prepared cell, a warm one serves all four:
   both campaigns, and a verified cold one, are bit-identical *)
let test_campaign_equality () =
  T.reset_artifact_caches ();
  let cold = List.map cell_sig (matrix ()) in
  let warm = List.map cell_sig (matrix ()) in
  Alcotest.(check int) "the warm campaign is served from the prepared tier" 4
    (AC.stats "prepared").AC.hits;
  T.reset_artifact_caches ();
  let verified = List.map cell_sig (matrix ~verify_each:true ()) in
  Alcotest.(check (list string)) "cold cache = warm cache" cold warm;
  Alcotest.(check (list string)) "cold cache = verify-each" cold verified

(* ---- cache behavior ---------------------------------------------------- *)

(* the IR tier shares the tool-independent compile: three tools over one
   source must run the front end + IR stage exactly once *)
let test_ir_tier_shared_across_tools () =
  T.reset_artifact_caches ();
  ignore (T.prepare T.Refine prog_a);
  ignore (T.prepare T.Llfi prog_a);
  ignore (T.prepare T.Pinfi prog_a);
  Alcotest.(check int) "one compile invocation for three tools" 1 (T.compile_invocations ());
  ignore (T.prepare T.Refine prog_a);
  ignore (T.prepare T.Llfi prog_a);
  Alcotest.(check int) "warm re-prepares compile nothing" 1 (T.compile_invocations ())

let test_prepared_tier_hit () =
  T.reset_artifact_caches ();
  let p1 = T.prepare T.Refine prog_a in
  let p2 = T.prepare T.Refine prog_a in
  Alcotest.(check bool) "second prepare served from cache" true (p1 == p2);
  Alcotest.(check bool) "hit counted" true ((AC.stats "prepared").AC.hits >= 1)

(* [verify_each] keys both tiers: a verified prepare after a default one
   of the same source must compile again, or the per-pass verifiers would
   never run on it *)
let test_verify_each_keys_cache () =
  T.reset_artifact_caches ();
  let p1 = T.prepare T.Refine prog_a in
  let p2 = T.prepare ~verify_each:true T.Refine prog_a in
  Alcotest.(check int) "the verified prepare recompiles" 2 (T.compile_invocations ());
  Alcotest.(check bool) "not the unverified artifact" true (p1 != p2)

let test_chaos_bypasses_cache () =
  T.reset_artifact_caches ();
  ignore (T.prepare T.Refine prog_a);
  let before = AC.stats "prepared" in
  (try ignore (T.prepare ~chaos:break_mir T.Refine prog_a) with T.Quarantine _ -> ());
  let after = AC.stats "prepared" in
  Alcotest.(check int) "chaos run never consults the prepared tier" before.AC.hits after.AC.hits;
  Alcotest.(check int) "chaos run never poisons the prepared tier" before.AC.entries
    after.AC.entries

(* regression: a prepared image mutated after caching (chaos hooks, the
   extern slot -1 post-layout mutation path) must never be served again *)
let test_mutated_image_never_served () =
  T.reset_artifact_caches ();
  let p1 = T.prepare T.Refine prog_a in
  (* post-layout code mutation, as the §14 fallback path would do *)
  p1.T.image.Refine_backend.Layout.code.(0) <- M.Mmov (R.gpr 5, M.Imm 0xBADL);
  let inv_before = (AC.stats "prepared").AC.invalidations in
  let p2 = T.prepare T.Refine prog_a in
  Alcotest.(check bool) "mutated entry dropped, fresh prepare returned" true (p1 != p2);
  Alcotest.(check bool) "invalidation counted" true
    ((AC.stats "prepared").AC.invalidations > inv_before);
  (* the fresh copy is clean and a further lookup serves it again *)
  let p3 = T.prepare T.Refine prog_a in
  Alcotest.(check bool) "recovered entry served" true (p2 == p3)

let tests =
  [
    Alcotest.test_case "levels round-trip" `Quick test_level_roundtrip;
    Alcotest.test_case "parse tolerates whitespace" `Quick test_parse_whitespace;
    Alcotest.test_case "parse rejects ill-formed specs" `Quick test_parse_errors;
    QCheck_alcotest.to_alcotest qcheck_roundtrip;
    Alcotest.test_case "verify-each catches chaos MIR" `Quick test_verify_each_catches_chaos;
    Alcotest.test_case "chaos cell quarantined" `Quick test_chaos_cell_quarantined;
    Alcotest.test_case "stage/layer mismatch rejected" `Quick test_ir_verifier_quarantines;
    Alcotest.test_case "campaign equality: cache/verify modes" `Slow test_campaign_equality;
    Alcotest.test_case "IR tier shared across tools" `Quick test_ir_tier_shared_across_tools;
    Alcotest.test_case "prepared tier hit" `Quick test_prepared_tier_hit;
    Alcotest.test_case "verify-each keys both tiers" `Quick test_verify_each_keys_cache;
    Alcotest.test_case "chaos bypasses cache" `Quick test_chaos_bypasses_cache;
    Alcotest.test_case "mutated image never served" `Quick test_mutated_image_never_served;
  ]
