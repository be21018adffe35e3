(* Checkpoint/restore round-trips: restore-then-run must be
   bit-identical — outcome, output, instruction count, cycle floats,
   metrics counters and histograms — to the checkpointing run
   continuing uninterrupted, across every workload and protection
   mode, including mid-quantum checkpoints and cross-ISA resume; a
   checkpoint must be a pure read of the system, decode caches
   included; an image must depend neither on the execution engine it
   was taken on nor, with observability off, on what else the process
   ran; the restored system must run the very translated bytes the
   live one was running, and a checkpoint of code the program has
   rewritten, live or saved in the memo, is refused; and the image
   parser must reject truncated, trailing, version-skewed and
   wrong-binary images, forged lengths and configs, and forged
   code-cache, cache-model, branch-predictor and relocation-map state,
   loudly. *)

module Desc = Hipstr_isa.Desc
module Isa = Hipstr_isa.Isa
module Minstr = Hipstr_isa.Minstr
module Mem = Hipstr_machine.Mem
module Machine = Hipstr_machine.Machine
module Vm = Hipstr_psr.Vm
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

(* Every live unit of every VM, with its translated bytes as they
   stand in guest memory. Restore re-materializes these from the image;
   they must come out as the bytes the live run is executing. *)
let live_units sys =
  let mem = Machine.mem (System.machine sys) in
  List.concat_map
    (fun which ->
      match System.vm sys which with
      | exception Invalid_argument _ -> []
      | vm ->
        List.map
          (fun (b : Code_cache.block) ->
            (Isa.name which, b.cb_src, b.cb_cache, Mem.read_string mem b.cb_cache b.cb_size))
          (Code_cache.blocks (Vm.cache vm)))
    [ Desc.Cisc; Desc.Risc ]

let check_units label live restored =
  let show (isa, src, cache, bytes) =
    Printf.sprintf "%s unit 0x%x at 0x%x (%d bytes)" isa src cache (String.length bytes)
  in
  Alcotest.(check int) (label ^ ": live units") (List.length live) (List.length restored);
  List.iter2
    (fun a b -> if a <> b then Alcotest.failf "%s: live %s, restored %s" label (show a) (show b))
    live restored

let seed = 7

let boot ~mode fb =
  let obs = Obs.create () in
  System.of_fatbin ~obs ~seed ~start_isa:Desc.Cisc ~mode fb

(* One workload × mode trio:
   - [interrupted]: run a partial quantum, checkpoint mid-flight, keep
     running to the end — the reference trajectory (the checkpoint
     itself does not perturb it);
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
  let label = Printf.sprintf "%s/%s" w.Workloads.w_name (mode_label mode) in
  let image = Snapshot.checkpoint ~workload:w.Workloads.w_name interrupted in
  let units = live_units interrupted in
  let o1 = System.run interrupted ~fuel in
  let obs2 = Obs.create () in
  let resumed, mf = Snapshot.restore ~obs:obs2 ~fatbin:fb image in
  Alcotest.(check string) "manifest workload" w.Workloads.w_name mf.Snapshot.mf_workload;
  Alcotest.(check int) "manifest instructions" partial mf.Snapshot.mf_instructions;
  check_units label units (live_units resumed);
  let o2 = System.run resumed ~fuel in
  check_fp label (fingerprint_of interrupted o1) (fingerprint_of resumed o2)

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
  check_units "first restore" (live_units sys) (live_units sys2);
  ignore (System.run sys2 ~fuel:(w.Workloads.w_fuel / 6));
  let sys3, _ = Snapshot.restore ~obs:(Obs.create ()) ~fatbin:fb (Snapshot.checkpoint sys2) in
  check_units "second restore" (live_units sys2) (live_units sys3);
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
  let units = live_units interrupted in
  let o1 = System.run interrupted ~fuel in
  let resumed, _ = Snapshot.restore ~obs:(Obs.create ()) ~fatbin:fb image in
  check_units "clock policy" units (live_units resumed);
  let o2 = System.run resumed ~fuel in
  check_fp "clock policy" (fingerprint_of interrupted o1) (fingerprint_of resumed o2)

(* Kept blocks under churn: with a 4 KiB flush-policy cache every
   translation flushes, and the PSR VM keeps the decoded blocks of each
   memo-served unit across the flush to re-adopt them at its next
   install. A restored run starts decode-cold, with none kept, and can
   harvest none of the units it re-materialized, while the live run
   keeps all of that: kept blocks are host state, so every registry
   counter and the guest fingerprint must still agree. (The host
   decode counts differ, and no registry carries them.) *)
let test_round_trip_kept_blocks () =
  let w = Workloads.find "gobmk" in
  let fb = Workloads.fatbin w in
  let cfg = { Config.default with Config.cc_policy = Code_cache.Flush; cache_bytes = 4096 } in
  let fuel = 3 * w.Workloads.w_fuel in
  List.iter
    (fun at ->
      let label = Printf.sprintf "checkpoint at %d" at in
      let live =
        System.of_fatbin ~obs:(Obs.create ()) ~cfg ~seed ~start_isa:Desc.Cisc ~mode:System.Psr_only
          fb
      in
      (match System.run live ~fuel:at with
      | System.Out_of_fuel -> ()
      | o -> Alcotest.failf "%s: finished before it (%s)" label (outcome_string o));
      let image = Snapshot.checkpoint live in
      let units = live_units live in
      let o1 = System.run live ~fuel in
      let resumed, _ = Snapshot.restore ~obs:(Obs.create ()) ~fatbin:fb image in
      check_units label units (live_units resumed);
      let o2 = System.run resumed ~fuel in
      let a = fingerprint_of live o1 and b = fingerprint_of resumed o2 in
      let counter fp name = Option.value ~default:0 (List.assoc_opt name fp.fp_counters) in
      (match Machine.decode_cache_stats (System.machine live) Desc.Cisc with
      | Some s when s.hits > s.misses -> ()
      | Some s ->
        Alcotest.failf "%s: the decode cache barely hit (%d hits), so nothing was kept" label
          s.hits
      | None -> Alcotest.failf "%s: no decode cache" label);
      List.iter
        (fun (name, v) ->
          let v' = counter b name in
          if v <> v' then Alcotest.failf "%s: counter %s is %d live, %d restored" label name v v')
        a.fp_counters;
      check_fp label a b)
    [ 100_000; 150_000 ]

(* --- a checkpoint is a pure read ----------------------------------- *)

(* One run cut into 20k-instruction slices with a checkpoint after
   every slice, and its twin cut the same way with none: the guest
   fingerprints, and the host statistics of both decode caches, must
   be equal. Two configurations: the default cache, and a 4 KiB flush
   cache under which the PSR VM keeps decoded blocks across flushes. *)
let test_checkpoint_pure_read () =
  let w = Workloads.find "gobmk" in
  let fb = Workloads.fatbin w in
  let churn = { Config.default with Config.cc_policy = Code_cache.Flush; cache_bytes = 4096 } in
  List.iter
    (fun (label, cfg, mode) ->
      let sliced ~checkpoints =
        let sys = System.of_fatbin ~obs:(Obs.create ()) ~cfg ~seed:3 ~start_isa:Desc.Cisc ~mode fb in
        let rec go left =
          match System.run sys ~fuel:20_000 with
          | System.Out_of_fuel when left > 0 ->
            if checkpoints then ignore (Snapshot.checkpoint sys);
            go (left - 1)
          | o -> o
        in
        let o = go (3 * w.Workloads.w_fuel / 20_000) in
        (sys, o)
      in
      let a, oa = sliced ~checkpoints:true and b, ob = sliced ~checkpoints:false in
      check_fp label (fingerprint_of b ob) (fingerprint_of a oa);
      List.iter
        (fun which ->
          let stats sys =
            match Machine.decode_cache_stats (System.machine sys) which with
            | Some (s : Hipstr_machine.Decode_cache.stats) ->
              [
                s.hits; s.misses; s.invalidations; s.flushes; s.chain_follows; s.chain_breaks;
                s.chain_patches; s.ic_mono_hits; s.ic_poly_hits; s.ic_misses;
              ]
            | None -> Alcotest.failf "%s: no decode cache" label
          in
          Alcotest.(check (list int))
            (Printf.sprintf "%s: %s decode-cache stats" label (Isa.name which))
            (stats b) (stats a))
        [ Desc.Cisc; Desc.Risc ])
    [ ("hipstr", Config.default, System.Hipstr); ("psr, 4 KiB flush", churn, System.Psr_only) ]

(* --- engine independence -------------------------------------------- *)

(* The execution engine is a host choice, not guest state. With
   observability on (no host counter rides in the metrics baseline),
   images taken on the default engine and on the decode oracle are
   byte-identical, and the image restores onto either retire path to
   the live run's result, metrics included. *)
let test_image_engine_independent () =
  let w = Workloads.find "gobmk" in
  let fb = Workloads.fatbin w in
  let fuel = 3 * w.Workloads.w_fuel in
  let checkpointed ?decode_cache () =
    let sys =
      System.of_fatbin ~obs:(Obs.create ()) ~seed:3 ~start_isa:Desc.Cisc ?decode_cache
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
  let units = live_units live in
  let o = System.run live ~fuel in
  List.iter
    (fun (label, decode_cache) ->
      let resumed, _ = Snapshot.restore ~obs:(Obs.create ()) ~decode_cache ~fatbin:fb image in
      check_units label units (live_units resumed);
      let o' = System.run resumed ~fuel in
      check_fp label (fingerprint_of live o) (fingerprint_of resumed o'))
    [ ("restored on the default engine", true); ("restored on the oracle", false) ]

(* With observability off, an image carries an empty metrics section,
   so it depends on the system alone: booting other systems under the
   shared [Obs.disabled] between two checkpoints of one state changes
   nothing. *)
let test_disabled_image_stands_alone () =
  let w = Workloads.find "mcf" in
  let sys =
    System.of_fatbin ~obs:Obs.disabled ~seed ~start_isa:Desc.Cisc ~mode:System.Psr_only
      (Workloads.fatbin w)
  in
  (match System.run sys ~fuel:20_000 with
  | System.Out_of_fuel -> ()
  | o -> Alcotest.failf "finished before the checkpoint (%s)" (outcome_string o));
  let first = Snapshot.checkpoint sys in
  List.iter
    (fun seed ->
      ignore
        (System.of_fatbin ~obs:Obs.disabled ~seed ~start_isa:Desc.Risc ~mode:System.Hipstr
           (Workloads.fatbin (Workloads.find "gobmk"))))
    [ 1; 2 ];
  let second = Snapshot.checkpoint sys in
  Alcotest.(check int) "same size" (String.length first) (String.length second);
  Alcotest.(check bool) "byte-identical" true (String.equal first second);
  let empty_metrics = "\007METRICS" ^ String.make 16 '\000' in
  let n = String.length empty_metrics in
  Alcotest.(check bool) "empty metrics section" true
    (String.sub first (String.length first - n) n = empty_metrics)

(* --- rewritten code ------------------------------------------------- *)

(* An image names each live unit by its source address, and restore
   re-prepares the unit from the source bytes in the restored memory.
   Once the program has rewritten those bytes, they are no longer the
   bytes the running translation was made from. A rewrite that changed
   the unit's size made restore refuse a valid image ("measures 115
   bytes, image says 127"), and one that kept the size made the
   restored run resume different code. So the checkpoint itself
   refuses, naming the unit, and leaves the run untouched: the refused
   run finishes exactly like a twin that never tried. Both rewrites
   bump the immediate of a 6-byte [reg, imm] instruction of the live
   CISC unit at 0x11510: its first instruction, and the one after. *)
let test_refuses_rewritten_code () =
  let w = Workloads.find "gobmk" in
  let fb = Workloads.fatbin w in
  let unit_src = 0x11510 in
  let rewritten at =
    let sys =
      System.of_fatbin ~obs:(Obs.create ()) ~seed:3 ~start_isa:Desc.Cisc ~mode:System.Psr_only fb
    in
    (match System.run sys ~fuel:50_000 with
    | System.Out_of_fuel -> ()
    | o -> Alcotest.failf "finished before the rewrite (%s)" (outcome_string o));
    if not (List.exists (fun (_, src, _, _) -> src = unit_src) (live_units sys)) then
      Alcotest.failf "unit 0x%x is not live" unit_src;
    let mem = Machine.mem (System.machine sys) in
    let bumped : Minstr.t =
      match Isa.decode Desc.Cisc ~read:(Mem.reader mem) at with
      | Some (Mov (d, Imm k), 6) -> Mov (d, Imm (k + 1))
      | Some (Binop (op, (Reg _ as d), Imm k), 6) -> Binop (op, d, Imm (k + 1))
      | Some (Cmp ((Reg _ as d), Imm k), 6) -> Cmp (d, Imm (k + 1))
      | _ -> Alcotest.failf "no 6-byte reg, imm instruction at 0x%x" at
    in
    Mem.blit_string mem at (Isa.encode Desc.Cisc ~at bumped);
    sys
  in
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun at ->
      let sys = rewritten at and twin = rewritten at in
      (match Snapshot.checkpoint sys with
      | exception Invalid_argument m ->
        if not (contains m (Printf.sprintf "0x%x" unit_src)) then
          Alcotest.failf "the refusal does not name unit 0x%x: %s" unit_src m
      | _ -> Alcotest.failf "a checkpoint after the rewrite at 0x%x was taken" at);
      let fuel = 3 * w.Workloads.w_fuel in
      let o = System.run sys ~fuel and o' = System.run twin ~fuel in
      check_fp (Printf.sprintf "refused at 0x%x" at) (fingerprint_of twin o') (fingerprint_of sys o))
    [ unit_src; unit_src + 6 ]

(* A memo entry travels as its source address and map fingerprint, and
   restore rebuilds it from the restored source bytes, stamped clean. A
   saved entry whose source the program wrote after the entry was built
   is a miss in the live run (a full translation) but would be a memo
   hit after a restore, so the checkpoint refuses it as it refuses a
   live unit. Under fifo every unit is memoized and saved. At opt level
   1 gobmk's units overflow a 4 KiB cache, and the unit rewritten here
   is one the cache has evicted, at a byte whose 64-byte write stamp no
   live unit's bytes (decode window included) share. The rewrite
   stores the byte already there: the guard tracks writes, not
   values. *)
let test_refuses_rewritten_memo_source () =
  let fb = Workloads.fatbin (Workloads.find "gobmk") in
  let cfg =
    { Config.default with Config.opt_level = 1; cache_bytes = 4096; cc_policy = Code_cache.Fifo }
  in
  let sys =
    System.of_fatbin ~obs:(Obs.create ()) ~cfg ~seed:3 ~start_isa:Desc.Cisc
      ~mode:System.Psr_only fb
  in
  let blocks () = Code_cache.blocks (Vm.cache (System.vm sys Desc.Cisc)) in
  let seen = Hashtbl.create 64 in
  for _ = 1 to 10 do
    (match System.run sys ~fuel:10_000 with
    | System.Out_of_fuel -> ()
    | o -> Alcotest.failf "finished before the rewrite (%s)" (outcome_string o));
    List.iter (fun (b : Code_cache.block) -> Hashtbl.replace seen b.cb_src b.cb_src_spans) (blocks ())
  done;
  let live = blocks () in
  let window = Hipstr_machine.Decode_cache.max_decode_window in
  let clear_of_live a =
    let page = a land lnot 63 in
    List.for_all
      (fun (b : Code_cache.block) ->
        List.for_all (fun (lo, len) -> lo + len + window <= page || lo >= page + 64) b.cb_src_spans)
      live
  in
  (* one byte of each 64-byte stamp page a span touches *)
  let stamp_bytes (lo, len) =
    List.init (((lo + len - 1) / 64) - (lo / 64) + 1) (fun k -> max lo ((lo / 64 * 64) + (64 * k)))
  in
  let src, at =
    match
      List.sort compare
        (Hashtbl.fold
           (fun src spans acc ->
             if List.exists (fun (b : Code_cache.block) -> b.cb_src = src) live then acc
             else
               match List.filter clear_of_live (List.concat_map stamp_bytes spans) with
               | at :: _ -> (src, at) :: acc
               | [] -> acc)
           seen [])
    with
    | c :: _ -> c
    | [] -> Alcotest.fail "no evicted unit lies clear of the live ones"
  in
  ignore (Snapshot.checkpoint sys);
  let mem = Machine.mem (System.machine sys) in
  Mem.blit_string mem at (Mem.read_string mem at 1);
  match Snapshot.checkpoint sys with
  | exception Invalid_argument m ->
    let name = Printf.sprintf "0x%x" src in
    let n = String.length name in
    let rec names i = i + n <= String.length m && (String.sub m i n = name || names (i + 1)) in
    if not (names 0) then Alcotest.failf "the refusal does not name unit %s: %s" name m
  | _ -> Alcotest.failf "a checkpoint after the rewrite of evicted unit 0x%x was taken" src

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

(* Forged length fields. An int array's length is checked against the
   bytes left before anything is allocated, so 2^50 ints followed by
   one is a corrupt image, not an allocation failure. *)
let test_rejects_forged_lengths () =
  let w = Wire.writer () in
  Wire.int w (1 lsl 50);
  Wire.int w 7;
  expect_corrupt "int array of 2^50" (fun () -> Wire.r_int_array (Wire.reader (Wire.contents w)));
  let w = Wire.writer () in
  Wire.int w 2;
  Wire.int w 7;
  expect_corrupt "int array one int short" (fun () ->
      Wire.r_int_array (Wire.reader (Wire.contents w)));
  let w = Wire.writer () in
  Wire.int_array w [| 1; 2 |];
  Alcotest.(check (array int)) "a well-formed array reads back" [| 1; 2 |]
    (Wire.r_int_array (Wire.reader (Wire.contents w)))

(* Forged manifest configs: each field [Config.validate] refuses is
   refused when the image is read, before any system is built from it.
   The CFG record follows its 1-byte length and 3-byte tag:
   [opt_level], [pad_bytes], then [rat_capacity], 8 bytes each. *)
let test_rejects_forged_config () =
  let fb, image = make_image () in
  let cfg_at =
    let tag = "\003CFG" in
    let rec find i = if String.sub image i 4 = tag then i + 4 else find (i + 1) in
    find 0
  in
  let forged field v =
    let b = Bytes.of_string image in
    Bytes.set_int64_le b (cfg_at + (8 * field)) (Int64.of_int v);
    Bytes.to_string b
  in
  Alcotest.(check (list int)) "the image's opt_level, pad_bytes, rat_capacity"
    [ Config.default.opt_level; Config.default.pad_bytes; Config.default.rat_capacity ]
    (List.map (fun f -> Int64.to_int (String.get_int64_le image (cfg_at + (8 * f)))) [ 0; 1; 2 ]);
  List.iter
    (fun (label, field, v) ->
      expect_corrupt label (fun () ->
          Snapshot.restore ~obs:(Obs.create ()) ~fatbin:fb (forged field v)))
    [ ("opt_level 9", 0, 9); ("pad_bytes 3", 1, 3); ("rat_capacity 0", 2, 0) ]

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

(* Forged cache-model and branch-predictor state. The cache's memo
   index is used without a bounds check on the next access to its
   line, and the predictor indexes its return-address stack with
   [ras_top mod depth], so each lie must be refused by the restore
   itself. The records are written field by field, as [Cache.save]
   and [Bpred.save] lay them out: a 1 KiB 2-way cache with 64-byte
   lines has 8 sets and 16 ways, and line 5 lives in set 5, at tag
   index 10 or 11. *)
let cache_record ~last_line ~last_idx =
  let tags = Array.make 16 (-1) in
  tags.(10) <- 5;
  let w = Wire.writer () in
  Wire.tag w "CACHE";
  Wire.int_array w tags;
  Wire.int_array w (Array.init 16 (fun i -> if i = 10 then 3 else 0));
  List.iter (Wire.int w) [ 3; 2; 1; last_line; last_idx ];
  Wire.contents w

let restore_cache record =
  let c = Hipstr_machine.Cache.create ~size_kb:1 ~assoc:2 ~miss_penalty:10 () in
  Hipstr_machine.Cache.restore c (Wire.reader record);
  c

let bpred_record ?(bad_counter = (0, 1)) ~ras_top () =
  let w = Wire.writer () in
  Wire.tag w "BPRED";
  for i = 0 to 4095 do
    Wire.u8 w (if i = fst bad_counter then snd bad_counter else i mod 4)
  done;
  Wire.int_array w (Array.make 1024 (-1));
  Wire.int_array w (Array.init 32 (fun i -> 0x100 + i));
  List.iter (Wire.int w) [ ras_top; 0; 0 ];
  Wire.contents w

let restore_bpred record =
  let b = Hipstr_machine.Bpred.create () in
  Hipstr_machine.Bpred.restore b (Wire.reader record);
  b

let test_rejects_forged_cache_and_predictor () =
  let c = restore_cache (cache_record ~last_line:5 ~last_idx:10) in
  Alcotest.(check bool) "well-formed cache record restores; its memo hits" true
    (Hipstr_machine.Cache.access c (5 * 64));
  ignore (restore_cache (cache_record ~last_line:(-1) ~last_idx:50_000_000));
  expect_corrupt "memo index far past the tag array" (fun () ->
      restore_cache (cache_record ~last_line:5 ~last_idx:50_000_000));
  expect_corrupt "memo index one past the tag array" (fun () ->
      restore_cache (cache_record ~last_line:5 ~last_idx:16));
  expect_corrupt "negative memo index" (fun () ->
      restore_cache (cache_record ~last_line:5 ~last_idx:(-1)));
  expect_corrupt "memo index at another line's way" (fun () ->
      restore_cache (cache_record ~last_line:5 ~last_idx:11));
  let b = restore_bpred (bpred_record ~ras_top:2 ()) in
  Alcotest.(check bool) "well-formed predictor record restores; its RAS predicts" true
    (Hipstr_machine.Bpred.predict_return b ~target:0x101);
  expect_corrupt "negative return-address stack top" (fun () ->
      restore_bpred (bpred_record ~ras_top:(-1) ()));
  expect_corrupt "2-bit counter at 4" (fun () ->
      restore_bpred (bpred_record ~bad_counter:(7, 4) ~ras_top:0 ()));
  expect_corrupt "2-bit counter at 255" (fun () ->
      restore_bpred (bpred_record ~bad_counter:(4095, 255) ~ras_top:0 ()))

(* Forged relocation maps. Every object [Reloc_map.generate] places
   lies inside the padded frame, below its reserved top 16 bytes, and
   the padded frame is the frame plus the pad, so a map that says
   otherwise sends the restored run's frame accesses to wild addresses
   (a [vm_temp] at 2^40 made [System.run] raise [Mem.Fault]). Each
   RMAP record is found by its tag, and its fields are located by the
   layout the image uses: the name, the frame's three words, slot array
   and three more words, then [pad], [frame'], [ret_off], [out_off],
   [locals_off], [scratch_off] and [vm_temp]. *)
let test_rejects_forged_reloc_map () =
  let fb = Workloads.fatbin (Workloads.find "gobmk") in
  let sys =
    System.of_fatbin ~obs:(Obs.create ()) ~seed:3 ~start_isa:Desc.Cisc ~mode:System.Psr_only fb
  in
  ignore (System.run sys ~fuel:50_000);
  let image = Snapshot.checkpoint sys in
  let word o = Int64.to_int (String.get_int64_le image o) in
  let rec maps i acc =
    match String.index_from_opt image i '\004' with
    | Some j when j + 5 <= String.length image ->
      maps (j + 1) (if String.sub image (j + 1) 4 = "RMAP" then (j + 5) :: acc else acc)
    | _ -> acc
  in
  let pads =
    List.map
      (fun k ->
        let frame = k + 8 + word k in
        frame + 32 + (8 * word (frame + 24)) + 24)
      (maps 0 [])
  in
  Alcotest.(check bool) "the image holds relocation maps" true (pads <> []);
  ignore (Snapshot.restore ~obs:(Obs.create ()) ~fatbin:fb image);
  List.iter
    (fun (label, field, value) ->
      let b = Bytes.of_string image in
      List.iter
        (fun pad ->
          let at = pad + (8 * field) in
          Bytes.set_int64_le b at (Int64.of_int (value (word at))))
        pads;
      expect_corrupt label (fun () ->
          Snapshot.restore ~obs:(Obs.create ()) ~fatbin:fb (Bytes.to_string b)))
    [
      ("vm_temp at 2^40", 6, fun _ -> 1 lsl 40);
      ("ret_off at 2^40", 2, fun _ -> 1 lsl 40);
      ("negative scratch_off", 5, fun _ -> -8);
      ("frame' past frame + pad", 1, fun v -> v + 16);
    ]

(* The fingerprint is hashed once at link from the binary's own code
   strings. It must equal its definition: FNV-1a 64 over each ISA's
   main entry, then every function's entry, size and bytes as
   [Fatbin.load] leaves them in a pristine memory. *)
let fingerprint_of_loaded_memory fb =
  let module Fatbin = Hipstr_compiler.Fatbin in
  let module Mem = Hipstr_machine.Mem in
  let m = Mem.create Hipstr_machine.Layout.mem_size in
  Fatbin.load fb m;
  let byte h b = Int64.mul (Int64.logxor h (Int64.of_int (b land 0xFF))) 0x100000001b3L in
  let word h v =
    let h = ref h in
    for i = 0 to 7 do
      h := byte !h ((v lsr (8 * i)) land 0xFF)
    done;
    !h
  in
  let h = ref 0xcbf29ce484222325L in
  List.iter
    (fun which ->
      h := word !h (Fatbin.entry fb which);
      List.iter
        (fun (start, size) ->
          h := word !h start;
          h := word !h size;
          for a = start to start + size - 1 do
            h := byte !h (Mem.read8 m a)
          done)
        (Fatbin.code_bytes fb which))
    [ Desc.Cisc; Desc.Risc ];
  Int64.to_int (Int64.shift_right_logical !h 1)

let test_fingerprint_matches_loaded_code () =
  List.iter
    (fun name ->
      let fb = Workloads.fatbin (Workloads.find name) in
      Alcotest.(check int) name (fingerprint_of_loaded_memory fb) (Snapshot.fingerprint fb))
    Workloads.names;
  List.iter
    (fun seed ->
      let fb = Hipstr_compiler.Compile.to_fatbin (Progen.generate seed) in
      Alcotest.(check int)
        (Printf.sprintf "progen %d" seed)
        (fingerprint_of_loaded_memory fb) (Snapshot.fingerprint fb))
    [ 1; 2; 3; 4; 5 ]

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
  expect_corrupt "memo pinned to its binary" (fun () -> Snapshot.load_memo other memo);
  (* the VM meta record's reserved word, right after its tag and rng
     word, must be 0 *)
  let rec find i = if String.sub memo i 7 = "PSRMETA" then i else find (i + 1) in
  let forged = Bytes.of_string memo in
  Bytes.set forged (find 0 + 7 + 8) '\001';
  let fresh =
    System.of_fatbin ~obs:(Obs.create ()) ~cfg ~seed ~start_isa:Desc.Cisc ~mode:System.Psr_only fb
  in
  Snapshot.load_memo fresh memo;
  expect_corrupt "non-zero reserved VM meta word" (fun () ->
      Snapshot.load_memo fresh (Bytes.to_string forged))

let () =
  Alcotest.run "snapshot"
    [
      ( "round-trip",
        [
          Alcotest.test_case "all workloads x native/psr/hipstr" `Slow test_round_trip_all;
          Alcotest.test_case "checkpoints compose" `Quick test_recheckpoint;
          Alcotest.test_case "cross-ISA resume" `Quick test_cross_isa_restore;
          Alcotest.test_case "clock eviction policy" `Quick test_round_trip_clock_policy;
          Alcotest.test_case "kept blocks under flush churn" `Quick test_round_trip_kept_blocks;
          Alcotest.test_case "checkpoint is a pure read" `Quick test_checkpoint_pure_read;
          Alcotest.test_case "image independent of the engine" `Quick
            test_image_engine_independent;
          Alcotest.test_case "disabled image stands alone" `Quick
            test_disabled_image_stands_alone;
          Alcotest.test_case "refuses rewritten code" `Quick test_refuses_rewritten_code;
          Alcotest.test_case "refuses a rewritten memo source" `Quick
            test_refuses_rewritten_memo_source;
        ] );
      ( "strict parser",
        [
          Alcotest.test_case "truncation" `Quick test_rejects_truncation;
          Alcotest.test_case "trailing bytes" `Quick test_rejects_trailing_bytes;
          Alcotest.test_case "version skew" `Quick test_rejects_version_skew;
          Alcotest.test_case "wrong binary" `Quick test_rejects_wrong_binary;
          Alcotest.test_case "bad magic" `Quick test_rejects_bad_magic;
          Alcotest.test_case "forged lengths" `Quick test_rejects_forged_lengths;
          Alcotest.test_case "forged config" `Quick test_rejects_forged_config;
          Alcotest.test_case "forged code-cache state" `Quick test_rejects_forged_code_cache;
          Alcotest.test_case "forged cache and predictor state" `Quick
            test_rejects_forged_cache_and_predictor;
          Alcotest.test_case "forged relocation map" `Quick test_rejects_forged_reloc_map;
          Alcotest.test_case "fingerprint hashes the loaded code" `Quick
            test_fingerprint_matches_loaded_code;
        ] );
      ("warm start", [ Alcotest.test_case "memo round-trip" `Quick test_memo_warm_start ]);
    ]
