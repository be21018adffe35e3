(* Checkpoint/restore round-trips: restore-then-run must be
   bit-identical — outcome, output, instruction count, cycle floats,
   metrics counters and histograms — to the checkpointing run
   continuing uninterrupted, across every workload and protection
   mode, including mid-quantum checkpoints and cross-ISA resume; an
   image must not depend on the execution engine it was taken on; and
   the image parser must reject truncated, trailing, version-skewed
   and wrong-binary images, and forged code-cache state, loudly. *)

module Desc = Hipstr_isa.Desc
module System = Hipstr.System
module Config = Hipstr_psr.Config
module Code_cache = Hipstr_psr.Code_cache
module Obs = Hipstr_obs.Obs
module Snapshot = Hipstr_snapshot.Snapshot
module Workloads = Hipstr_workloads.Workloads
module Wire = Hipstr_util.Wire

let mode_label = function
  | System.Native -> "native"
  | System.Psr_only -> "psr"
  | System.Hipstr -> "hipstr"

(* Everything the determinism contract covers, in one comparable
   value. Cycles go in as IEEE bits so "equal" means bit-identical,
   not approximately so. *)
type fingerprint = {
  fp_outcome : string;
  fp_output : int list;
  fp_instructions : int;
  fp_cycle_bits : int64;
  fp_counters : (string * int) list;
  fp_histograms : (string * Obs.Metrics.histogram_summary) list;
}

let outcome_string = function
  | System.Finished c -> Printf.sprintf "finished(%d)" c
  | System.Shell_spawned -> "shell"
  | System.Killed m -> "killed(" ^ m ^ ")"
  | System.Out_of_fuel -> "out_of_fuel"

let fingerprint_of sys outcome =
  let snap = Obs.Metrics.snapshot (Obs.metrics (System.obs sys)) in
  {
    fp_outcome = outcome_string outcome;
    fp_output = System.output sys;
    fp_instructions = System.instructions sys;
    fp_cycle_bits = Int64.bits_of_float (System.cycles sys);
    fp_counters = snap.Obs.Metrics.snap_counters;
    fp_histograms = snap.Obs.Metrics.snap_histograms;
  }

let check_fp label a b =
  Alcotest.(check string) (label ^ ": outcome") a.fp_outcome b.fp_outcome;
  Alcotest.(check (list int)) (label ^ ": output") a.fp_output b.fp_output;
  Alcotest.(check int) (label ^ ": instructions") a.fp_instructions b.fp_instructions;
  Alcotest.(check int64) (label ^ ": cycle bits") a.fp_cycle_bits b.fp_cycle_bits;
  Alcotest.(check bool) (label ^ ": counters") true (a.fp_counters = b.fp_counters);
  Alcotest.(check bool) (label ^ ": histograms") true (a.fp_histograms = b.fp_histograms)

let seed = 7

let boot ~mode fb =
  let obs = Obs.create () in
  System.of_fatbin ~obs ~seed ~start_isa:Desc.Cisc ~mode fb

(* One workload × mode trio:
   - [interrupted]: run a partial quantum, checkpoint mid-flight, keep
     running to the end — the reference trajectory (the checkpoint
     itself must not perturb it beyond the documented quiesce, which
     the restored run shares);
   - [resumed]: restore the image into a fresh system and run to the
     end. Both must agree bit-for-bit on the whole fingerprint. *)
let round_trip ~mode w =
  let fb = Workloads.fatbin w in
  let fuel = 3 * w.Workloads.w_fuel in
  (* Some workloads finish in far fewer instructions than their fuel
     budget (native runs take no VM exits), so back off until the
     partial run genuinely stops mid-flight. *)
  let rec interrupted_at partial =
    let sys = boot ~mode fb in
    match System.run sys ~fuel:partial with
    | System.Out_of_fuel -> (sys, partial)
    | _ when partial > 64 -> interrupted_at (partial / 4)
    | o ->
      Alcotest.failf "%s/%s finished in under 64 instructions (%s)" w.Workloads.w_name
        (mode_label mode) (outcome_string o)
  in
  let interrupted, partial = interrupted_at (w.Workloads.w_fuel / 5) in
  let image = Snapshot.checkpoint ~workload:w.Workloads.w_name interrupted in
  let o1 = System.run interrupted ~fuel in
  let obs2 = Obs.create () in
  let resumed, mf = Snapshot.restore ~obs:obs2 ~fatbin:fb image in
  Alcotest.(check string) "manifest workload" w.Workloads.w_name mf.Snapshot.mf_workload;
  Alcotest.(check int) "manifest instructions" partial mf.Snapshot.mf_instructions;
  let o2 = System.run resumed ~fuel in
  check_fp
    (Printf.sprintf "%s/%s" w.Workloads.w_name (mode_label mode))
    (fingerprint_of interrupted o1) (fingerprint_of resumed o2)

let test_round_trip_all () =
  List.iter
    (fun w -> List.iter (fun mode -> round_trip ~mode w) [ System.Native; System.Psr_only; System.Hipstr ])
    (Workloads.all @ [ Workloads.httpd ])

(* A second checkpoint of the *restored* system at a later point must
   also round-trip — checkpoints compose. *)
let test_recheckpoint () =
  let w = Workloads.find "mcf" in
  let fb = Workloads.fatbin w in
  let sys = boot ~mode:System.Hipstr fb in
  ignore (System.run sys ~fuel:(w.Workloads.w_fuel / 6));
  let sys2, _ = Snapshot.restore ~obs:(Obs.create ()) ~fatbin:fb (Snapshot.checkpoint sys) in
  ignore (System.run sys2 ~fuel:(w.Workloads.w_fuel / 6));
  let sys3, _ = Snapshot.restore ~obs:(Obs.create ()) ~fatbin:fb (Snapshot.checkpoint sys2) in
  let o2 = System.run sys2 ~fuel:(3 * w.Workloads.w_fuel) in
  let o3 = System.run sys3 ~fuel:(3 * w.Workloads.w_fuel) in
  check_fp "recheckpoint" (fingerprint_of sys2 o2) (fingerprint_of sys3 o3)

(* Cross-ISA resume: restore, then force a migration at the next
   return. Program semantics (outcome, output) must survive the ISA
   switch, and the process must actually end up having migrated. *)
let test_cross_isa_restore () =
  let w = Workloads.find "gobmk" in
  let fb = Workloads.fatbin w in
  let fuel = 3 * w.Workloads.w_fuel in
  let cfg = { Config.default with Config.migrate_prob = 0.0 } in
  let mk () =
    System.of_fatbin ~obs:(Obs.create ()) ~cfg ~seed ~start_isa:Desc.Cisc ~mode:System.Hipstr fb
  in
  let reference = mk () in
  let oref = System.run reference ~fuel in
  let sys = mk () in
  (match System.run sys ~fuel:50_000 with
  | System.Out_of_fuel -> ()
  | _ -> Alcotest.fail "finished before the checkpoint point");
  let image = Snapshot.checkpoint sys in
  let resumed, _ = Snapshot.restore ~obs:(Obs.create ()) ~fatbin:fb image in
  System.request_migration resumed;
  let o = System.run resumed ~fuel in
  Alcotest.(check string) "outcome survives the ISA switch" (outcome_string oref)
    (outcome_string o);
  Alcotest.(check (list int)) "output survives the ISA switch" (System.output reference)
    (System.output resumed);
  Alcotest.(check int) "migrated exactly once" 1 (System.forced_migrations resumed);
  Alcotest.(check bool) "ended on the other core" true
    (System.active_isa resumed = Desc.Risc)

(* Eviction-policy coverage: the code-cache directory round-trips
   under block-granular eviction too (clock policy, small cache). *)
let test_round_trip_clock_policy () =
  let w = Workloads.find "gobmk" in
  let fb = Workloads.fatbin w in
  let cfg = { Config.default with Config.cc_policy = Code_cache.Clock; cache_bytes = 16_384 } in
  let fuel = 3 * w.Workloads.w_fuel in
  let interrupted =
    System.of_fatbin ~obs:(Obs.create ()) ~cfg ~seed ~start_isa:Desc.Cisc ~mode:System.Hipstr fb
  in
  ignore (System.run interrupted ~fuel:(w.Workloads.w_fuel / 4));
  let image = Snapshot.checkpoint interrupted in
  let o1 = System.run interrupted ~fuel in
  let resumed, _ = Snapshot.restore ~obs:(Obs.create ()) ~fatbin:fb image in
  let o2 = System.run resumed ~fuel in
  check_fp "clock policy" (fingerprint_of interrupted o1) (fingerprint_of resumed o2)

(* --- engine independence -------------------------------------------- *)

(* The execution engine is a host choice, not guest state. With
   observability off (so no host decode counters ride in the metrics
   baseline), images taken on the default engine, on the decode
   oracle and unchained are byte-identical, and the image restores
   onto either retire path to the live run's result. *)
let test_image_engine_independent () =
  let w = Workloads.find "gobmk" in
  let fb = Workloads.fatbin w in
  let fuel = 3 * w.Workloads.w_fuel in
  let checkpointed ?decode_cache ?chain () =
    let sys =
      System.of_fatbin ~obs:Obs.disabled ~seed:3 ~start_isa:Desc.Cisc ?decode_cache ?chain
        ~mode:System.Hipstr fb
    in
    (match System.run sys ~fuel:150_000 with
    | System.Out_of_fuel -> ()
    | o -> Alcotest.failf "finished before the checkpoint (%s)" (outcome_string o));
    (sys, Snapshot.checkpoint ~workload:w.Workloads.w_name sys)
  in
  let live, image = checkpointed () in
  let same_image label other =
    if not (String.equal image other) then begin
      let n = min (String.length image) (String.length other) in
      let rec first i = if i < n && image.[i] = other.[i] then first (i + 1) else i in
      Alcotest.failf "%s image (%d bytes) differs from the default engine's (%d bytes) at byte %d"
        label (String.length other) (String.length image) (first 0)
    end
  in
  same_image "decode_cache:false" (snd (checkpointed ~decode_cache:false ()));
  same_image "chain:false" (snd (checkpointed ~chain:false ()));
  let o = System.run live ~fuel in
  List.iter
    (fun (label, decode_cache) ->
      let resumed, _ = Snapshot.restore ~obs:Obs.disabled ~decode_cache ~fatbin:fb image in
      let o' = System.run resumed ~fuel in
      check_fp label (fingerprint_of live o) (fingerprint_of resumed o'))
    [ ("restored on the default engine", true); ("restored on the oracle", false) ]

(* --- strict parser ------------------------------------------------- *)

let expect_corrupt label f =
  match f () with
  | exception Wire.Corrupt _ -> ()
  | exception e -> Alcotest.failf "%s: raised %s, wanted Wire.Corrupt" label (Printexc.to_string e)
  | _ -> Alcotest.failf "%s: accepted a bad image" label

let make_image () =
  let w = Workloads.find "libquantum" in
  let fb = Workloads.fatbin w in
  let sys = boot ~mode:System.Hipstr fb in
  ignore (System.run sys ~fuel:(w.Workloads.w_fuel / 5));
  (fb, Snapshot.checkpoint ~workload:w.Workloads.w_name sys)

let test_rejects_truncation () =
  let fb, image = make_image () in
  let n = String.length image in
  List.iter
    (fun len ->
      expect_corrupt
        (Printf.sprintf "truncated to %d bytes" len)
        (fun () -> Snapshot.restore ~obs:(Obs.create ()) ~fatbin:fb (String.sub image 0 len)))
    [ 0; 1; 7; 14; n / 3; n / 2; n - 1 ]

let test_rejects_trailing_bytes () =
  let fb, image = make_image () in
  expect_corrupt "trailing byte" (fun () ->
      Snapshot.restore ~obs:(Obs.create ()) ~fatbin:fb (image ^ "\000"))

let test_rejects_version_skew () =
  let fb, image = make_image () in
  (* layout: str magic = 8-byte length + 7 bytes, then the 8-byte
     version little-endian — byte 15 is its low byte *)
  let skewed = Bytes.of_string image in
  Bytes.set skewed 15 '\099';
  expect_corrupt "version skew" (fun () ->
      Snapshot.restore ~obs:(Obs.create ()) ~fatbin:fb (Bytes.to_string skewed));
  expect_corrupt "manifest_of rejects it too" (fun () ->
      ignore (Snapshot.manifest_of (Bytes.to_string skewed)))

let test_rejects_wrong_binary () =
  let fb, image = make_image () in
  let other = Workloads.fatbin (Workloads.find "mcf") in
  expect_corrupt "wrong binary" (fun () ->
      Snapshot.restore ~obs:(Obs.create ()) ~fatbin:other image);
  (* the right binary still works after the failed attempt *)
  let sys, _ = Snapshot.restore ~obs:(Obs.create ()) ~fatbin:fb image in
  ignore (System.run sys ~fuel:1000)

let test_rejects_bad_magic () =
  let fb, image = make_image () in
  expect_corrupt "bad magic" (fun () ->
      Snapshot.restore ~obs:(Obs.create ()) ~fatbin:fb ("XIPSNAP" ^ image))

(* Forged code-cache allocator state. [ccache_record] writes a CCACHE
   section field by field, as [Code_cache.save] lays it out; the
   well-formed record restores, so each forged one fails on the lie it
   tells and not on the framing. *)
let cc_base = Hipstr_machine.Layout.cisc_cache_base

let ccache_record ~cursor blocks =
  let w = Wire.writer () in
  Wire.tag w "CCACHE";
  Wire.int w cursor;
  Wire.list w
    (fun w (src, cache, size) ->
      Wire.int w src;
      Wire.int w cache;
      Wire.int w size;
      Wire.str w "f";
      Wire.list w Wire.int [] (* no source spans *))
    blocks;
  Wire.list w Wire.int [];
  Wire.int w 0;
  Wire.int w 0;
  Wire.contents w

let restore_ccache record =
  let cc = Code_cache.create ~base:cc_base ~capacity:4096 () in
  Code_cache.restore cc (Wire.reader record);
  cc

let test_rejects_forged_code_cache () =
  let cc =
    restore_ccache
      (ccache_record ~cursor:(cc_base + 200) [ (0x100, cc_base, 100); (0x200, cc_base + 100, 100) ])
  in
  Alcotest.(check (option int)) "well-formed record restores" (Some (cc_base + 100))
    (Code_cache.lookup cc 0x200);
  expect_corrupt "cursor outside the region (the guest's code section)" (fun () ->
      restore_ccache (ccache_record ~cursor:0x10000 []));
  expect_corrupt "overlapping blocks" (fun () ->
      restore_ccache
        (ccache_record ~cursor:(cc_base + 150) [ (0x100, cc_base, 100); (0x200, cc_base + 50, 100) ]));
  expect_corrupt "duplicate sources" (fun () ->
      restore_ccache
        (ccache_record ~cursor:(cc_base + 200) [ (0x100, cc_base, 100); (0x100, cc_base + 100, 100) ]));
  expect_corrupt "block past the flush cursor" (fun () ->
      restore_ccache (ccache_record ~cursor:(cc_base + 50) [ (0x100, cc_base, 100) ]))

(* --- warm-start memo ----------------------------------------------- *)

let test_memo_warm_start () =
  let w = Workloads.find "hmmer" in
  let fb = Workloads.fatbin w in
  let cfg = { Config.default with Config.cc_policy = Code_cache.Clock } in
  let fuel = 3 * w.Workloads.w_fuel in
  let run ?memo () =
    let sys =
      System.of_fatbin ~obs:(Obs.create ()) ~cfg ~seed ~start_isa:Desc.Cisc ~mode:System.Psr_only
        fb
    in
    (match memo with Some m -> Snapshot.load_memo sys m | None -> ());
    let o = System.run sys ~fuel in
    (sys, o)
  in
  let cold_sys, cold_o = run () in
  let memo = Snapshot.save_memo cold_sys in
  let warm_sys, warm_o = run ~memo () in
  Alcotest.(check string) "same outcome" (outcome_string cold_o) (outcome_string warm_o);
  Alcotest.(check (list int)) "same output" (System.output cold_sys) (System.output warm_sys);
  Alcotest.(check bool) "warm run installs from the memo" true
    (System.memo_installs warm_sys > 0);
  Alcotest.(check bool) "warm start is cheaper" true
    (System.cycles warm_sys < System.cycles cold_sys);
  (* a memo for a different binary must be refused *)
  let other =
    System.of_fatbin ~obs:(Obs.create ()) ~cfg ~seed ~mode:System.Psr_only
      (Workloads.fatbin (Workloads.find "milc"))
  in
  expect_corrupt "memo pinned to its binary" (fun () -> Snapshot.load_memo other memo)

let () =
  Alcotest.run "snapshot"
    [
      ( "round-trip",
        [
          Alcotest.test_case "all workloads x native/psr/hipstr" `Slow test_round_trip_all;
          Alcotest.test_case "checkpoints compose" `Quick test_recheckpoint;
          Alcotest.test_case "cross-ISA resume" `Quick test_cross_isa_restore;
          Alcotest.test_case "clock eviction policy" `Quick test_round_trip_clock_policy;
          Alcotest.test_case "image independent of the engine" `Quick
            test_image_engine_independent;
        ] );
      ( "strict parser",
        [
          Alcotest.test_case "truncation" `Quick test_rejects_truncation;
          Alcotest.test_case "trailing bytes" `Quick test_rejects_trailing_bytes;
          Alcotest.test_case "version skew" `Quick test_rejects_version_skew;
          Alcotest.test_case "wrong binary" `Quick test_rejects_wrong_binary;
          Alcotest.test_case "bad magic" `Quick test_rejects_bad_magic;
          Alcotest.test_case "forged code-cache state" `Quick test_rejects_forged_code_cache;
        ] );
      ("warm start", [ Alcotest.test_case "memo round-trip" `Quick test_memo_warm_start ]);
    ]
