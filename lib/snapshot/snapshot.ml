(* Versioned, deterministic serialization of a full process image.

   An image is one Wire buffer:

     magic "HIPSNAP" | version | manifest | memory delta
     | system state | obs metrics baseline | end

   The manifest pins everything needed to rebuild an identically
   configured System (mode, seed, pid, start ISA, the full PSR config)
   plus a fingerprint of the fat binary, so a restore against the
   wrong program or a version-skewed image fails loudly instead of
   resuming garbage. The host engine (fast path or decode oracle) is
   not guest state and stays out of the image: [restore] takes it
   from its caller, exactly as [System.of_fatbin] does. Each record,
   the framing included, is one [Wire] declaration that writes and
   reads it, with its field ranges. The parser is strict end to end:
   every range and length is checked, trailing bytes are an error,
   and truncation surfaces as [Hipstr_util.Wire.Corrupt]. A restore
   builds a fresh system and drops it on a refusal, which may come
   after part of the image was read into it.

   Guest memory travels as a page-granular delta against the pristine
   post-load image ([Fatbin.baseline]: fresh memory + [Fatbin.load],
   built once per binary, before any [boot] — the boot writes are
   program state and land in the delta). The code-cache
   regions are excluded wholesale: translated code is never shipped,
   it re-materializes deterministically from the relocation maps
   ([Vm.sync_state]), which is both smaller and the honest model —
   migrated translations are stale on the other end anyway.

   Determinism contract: a checkpoint is a pure read of the system.
   The run that took it continues exactly as if it had not, decode
   caches and kept blocks included. A run restored from the image
   starts decode-cold, which only host statistics can tell
   ([Machine.decode_cache_stats]); none of them is in the metrics
   registry. So outputs, instruction counts, cycle floats and the
   metrics layer (counters + histograms) of the restored run come out
   bit-identical to the uninterrupted run's. Under a disabled
   observability context the metrics section is empty: the image
   depends on the system alone, not on what else shared
   [Obs.disabled]. Span rollups and audit history are not part of an
   image. *)

module Desc = Hipstr_isa.Desc
module Isa = Hipstr_isa.Isa
module Fatbin = Hipstr_compiler.Fatbin
module Mem = Hipstr_machine.Mem
module Machine = Hipstr_machine.Machine
module Layout = Hipstr_machine.Layout
module Config = Hipstr_psr.Config
module Code_cache = Hipstr_psr.Code_cache
module Obs = Hipstr_obs.Obs
module System = Hipstr.System
module Process = Hipstr_cmp.Process
module Wire = Hipstr_util.Wire
module C = Wire.C

(* Memo artifacts carry their own format version: version 3 of the
   image format (no engine flags in the manifest) left them as they
   were. *)
let version = 3
let memo_version = 2

let page_bytes = 4096

(* Pages below the cache regions are delta candidates; everything at
   or above [Layout.cisc_cache_base] is re-materialized code. *)
let delta_limit = Layout.cisc_cache_base

(* The identity of the program an image belongs to, hashed once at
   link. *)
let fingerprint (fb : Fatbin.t) = fb.fb_fingerprint

(* --- config ------------------------------------------------------- *)

(* A config no [System] could have been created with is refused here,
   before a system is built from it. *)
let config io (c : Config.t) : Config.t =
  let io = Wire.section io "CFG" in
  let opt_level = Wire.field io "opt_level" C.int c.opt_level in
  let pad_bytes = Wire.field io "pad_bytes" C.int c.pad_bytes in
  let rat_capacity = Wire.field io "rat_capacity" C.int c.rat_capacity in
  let cache_bytes = Wire.field io "cache_bytes" C.int c.cache_bytes in
  let migrate_prob = Wire.field io "migrate_prob" C.float c.migrate_prob in
  let seed = Wire.field io "seed" C.int c.seed in
  let superblock_budget = Wire.field io "superblock_budget" C.int c.superblock_budget in
  let cc_policy = Wire.field io "cc_policy" Code_cache.policy_codec c.cc_policy in
  let cfg =
    {
      Config.opt_level;
      pad_bytes;
      rat_capacity;
      cache_bytes;
      migrate_prob;
      seed;
      superblock_budget;
      cc_policy;
    }
  in
  match Config.validate cfg with Ok () -> cfg | Error m -> Wire.corrupt "config: %s" m

(* --- manifest ------------------------------------------------------ *)

type manifest = {
  mf_version : int;
  mf_workload : string;
  mf_mode : System.mode;
  mf_seed : int;
  mf_pid : int;
  mf_start_isa : Desc.which;
  mf_cfg : Config.t;
  mf_fingerprint : int;
  mf_instructions : int;
  mf_cycles : float;
}

let image_version = C.int_in ~lo:version ~hi:version

let header io mf =
  Wire.field io "magic" (C.literal "HIPSNAP") ();
  let mf_version = Wire.field io "version" image_version mf.mf_version in
  let io = Wire.section io "MANIFEST" in
  let mf_workload = Wire.field io "workload" C.str mf.mf_workload in
  let mf_mode = Wire.field io "mode" System.mode_codec mf.mf_mode in
  let mf_seed = Wire.field io "seed" C.int mf.mf_seed in
  let mf_pid = Wire.field io "pid" C.int mf.mf_pid in
  let mf_start_isa = Wire.field io "start_isa" Isa.codec mf.mf_start_isa in
  let mf_cfg = config io mf.mf_cfg in
  let mf_fingerprint = Wire.field io "fingerprint" C.int mf.mf_fingerprint in
  let mf_instructions = Wire.field io "instructions" C.int mf.mf_instructions in
  let mf_cycles = Wire.field io "cycles" C.float mf.mf_cycles in
  {
    mf_version;
    mf_workload;
    mf_mode;
    mf_seed;
    mf_pid;
    mf_start_isa;
    mf_cfg;
    mf_fingerprint;
    mf_instructions;
    mf_cycles;
  }

let unread =
  {
    mf_version = 0;
    mf_workload = "";
    mf_mode = System.Native;
    mf_seed = 0;
    mf_pid = 0;
    mf_start_isa = Desc.Cisc;
    mf_cfg = Config.default;
    mf_fingerprint = 0;
    mf_instructions = 0;
    mf_cycles = 0.;
  }

let manifest_of data = header (Wire.reading (Wire.reader data)) unread

(* --- memory delta -------------------------------------------------- *)

let pages =
  C.list
    (C.pair
       (C.int_in ~lo:0 ~hi:((delta_limit / page_bytes) - 1))
       (C.where "a whole page" (fun s -> String.length s = page_bytes) C.str))

(* Pages are compared in place; only a differing page is copied out.
   [page_bytes] matches [Mem]'s own page size, so a page neither side
   has written compares by pointer. *)
let delta io ~baseline mem =
  Wire.derived (Wire.section io "MEMDELTA") "pages" pages
    (fun () ->
      let dirty = ref [] in
      for page = (delta_limit / page_bytes) - 1 downto 0 do
        let a = page * page_bytes in
        if not (Mem.equal_span mem baseline a page_bytes) then
          dirty := (page, Mem.read_string mem a page_bytes) :: !dirty
      done;
      !dirty)
    (List.iter (fun (page, bytes) -> Mem.write_string mem (page * page_bytes) bytes))

(* --- obs metrics baseline ------------------------------------------ *)

let summary io (h : Obs.Metrics.histogram_summary) : Obs.Metrics.histogram_summary =
  let hs_count = Wire.field io "count" C.int h.hs_count in
  let hs_sum = Wire.field io "sum" C.float h.hs_sum in
  let hs_min = Wire.field io "min" C.float h.hs_min in
  let hs_max = Wire.field io "max" C.float h.hs_max in
  let hs_mean = Wire.field io "mean" C.float h.hs_mean in
  let hs_buckets = Wire.field io "buckets" C.int_array h.hs_buckets in
  { hs_count; hs_sum; hs_min; hs_max; hs_mean; hs_buckets }

let counters = C.list (C.pair C.str C.int)

let histograms =
  C.list
    (C.pair C.str
       (C.record "histogram"
          ~blank:
            { Obs.Metrics.hs_count = 0; hs_sum = 0.; hs_min = 0.; hs_max = 0.; hs_mean = 0.;
              hs_buckets = [||] }
          summary))

let metrics io (s : Obs.Metrics.snapshot) : Obs.Metrics.snapshot =
  let io = Wire.section io "METRICS" in
  let snap_counters = Wire.field io "counters" counters s.snap_counters in
  let snap_histograms = Wire.field io "histograms" histograms s.snap_histograms in
  { snap_counters; snap_histograms }

(* --- checkpoint / restore ------------------------------------------ *)

(* An image: the header, guest memory as a delta, the system state and
   the metrics baseline. Writing passes the manifest of the system
   [build] returns; reading passes [unread] and [build] makes a fresh
   system from the manifest read, restores into it and, when
   [merge_obs], folds the baseline into its context. *)
let image io mf ~build ~merge_obs =
  let mf = header io mf in
  let sys = build mf in
  delta io ~baseline:(Fatbin.baseline (System.fatbin sys)) (Machine.mem (System.machine sys));
  System.sync_state io sys;
  let obs = System.obs sys in
  let reading = Wire.is_reading io in
  let snap =
    metrics io
      (if Obs.on obs && not reading then Obs.snapshot obs
       else { snap_counters = []; snap_histograms = [] })
  in
  if reading && merge_obs && Obs.on obs then Obs.Metrics.merge ~into:(Obs.metrics obs) snap;
  (sys, mf)

(* The manifest of a checkpoint of [sys]; the refusal rule
   ([System.rewritten_unit]) is checked here, before a byte is
   written. *)
let manifest ?(workload = "custom") sys =
  (match System.rewritten_unit sys with
  | Some (which, src) ->
    invalid_arg
      (Printf.sprintf
         "Snapshot.checkpoint: %s unit 0x%x was translated from code the program has since \
          rewritten; restore would rebuild it from the new bytes"
         (Isa.name which) src)
  | None -> ());
  {
    mf_version = version;
    mf_workload = workload;
    mf_mode = System.mode sys;
    mf_seed = System.seed sys;
    mf_pid = Machine.owner (System.machine sys);
    mf_start_isa = System.start_isa sys;
    mf_cfg = System.config sys;
    mf_fingerprint = fingerprint (System.fatbin sys);
    mf_instructions = System.instructions sys;
    mf_cycles = System.cycles sys;
  }

(* The fresh, un-booted system an image's manifest describes. *)
let rebuild ?obs ?decode_cache ?spare ~fatbin mf =
  let fp = fingerprint fatbin in
  if fp <> mf.mf_fingerprint then
    Wire.corrupt "binary fingerprint 0x%x does not match the image's 0x%x (wrong program?)" fp
      mf.mf_fingerprint;
  System.of_fatbin ?obs ~cfg:mf.mf_cfg ~seed:mf.mf_seed ~start_isa:mf.mf_start_isa ~pid:mf.mf_pid
    ?decode_cache ~boot:false ?spare ~mode:mf.mf_mode fatbin

let checkpoint ?workload sys =
  Wire.encode
    (fun io sys -> ignore (image io (manifest ?workload sys) ~build:(fun _ -> sys) ~merge_obs:false))
    sys

let restore ?obs ?(merge_obs = true) ?decode_cache ~fatbin data =
  Wire.decode (fun io -> image io unread ~build:(rebuild ?obs ?decode_cache ~fatbin) ~merge_obs) data

(* --- process images (fleet live migration) ------------------------- *)

(* A system image behind its own magic, then the process slice around
   the system: [proc] is the process written, or the blank one a read
   fills. *)
let process_image io mf ~build ~merge_obs ~proc =
  Wire.field io "magic" (C.literal "HIPSPROC") ();
  let sys, mf = image io mf ~build ~merge_obs in
  (Process.sync io (proc sys), mf)

let checkpoint_process p =
  let sys = Process.sys p in
  Wire.encode
    (fun io p ->
      ignore (process_image io (manifest sys) ~build:(fun _ -> sys) ~merge_obs:false ~proc:(fun _ -> p)))
    p

let restore_process ?obs ?(merge_obs = true) ?spare ~fatbin data =
  Wire.decode
    (fun io ->
      process_image io unread ~build:(rebuild ?obs ?spare ~fatbin) ~merge_obs ~proc:Process.blank)
    data

(* --- warm-start memo artifacts ------------------------------------- *)

(* Pinned to the binary, the mode and the config of the system it was
   taken from: reading demands the target's. *)
let memo io sys =
  Wire.field io "magic" (C.literal "HIPMEMO") ();
  ignore (Wire.field io "version" (C.int_in ~lo:memo_version ~hi:memo_version) memo_version);
  let own = fingerprint (System.fatbin sys) in
  let fp = Wire.field io "fingerprint" C.int own in
  if fp <> own then Wire.corrupt "binary fingerprint 0x%x does not match the memo's 0x%x" own fp;
  let mode = Wire.field io "mode" System.mode_codec (System.mode sys) in
  if mode <> System.mode sys then
    Wire.corrupt "memo was taken in mode %s, this system is mode %s" (System.mode_name mode)
      (System.mode_name (System.mode sys));
  if config io (System.config sys) <> System.config sys then
    Wire.corrupt "memo config differs from this system's config";
  System.sync_memo io sys

let save_memo sys = Wire.encode memo sys
let load_memo sys data = Wire.decode (fun io -> memo io sys) data

(* --- migration cost model ------------------------------------------ *)
(* Simulated cycle costs of moving an image between pools, charged by
   the fleet harness and decomposed in BENCH_migrate.json.
   Serialization is dominated by the page scan (per-byte) on top of a
   fixed stop-and-drain overhead; the interconnect transfer is a
   per-byte wire cost on the image actually shipped. *)

let checkpoint_fixed_cycles = 100_000.
let checkpoint_per_byte = 0.25
let transfer_per_byte = 2.

let checkpoint_cycles ~bytes = checkpoint_fixed_cycles +. (checkpoint_per_byte *. float_of_int bytes)
let transfer_cycles ~bytes = transfer_per_byte *. float_of_int bytes
