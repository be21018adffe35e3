(* Versioned, deterministic serialization of a full process image.

   An image is one Wire buffer:

     magic "HIPSNAP" | version | manifest | memory delta
     | system state | obs metrics baseline | end

   The manifest pins everything needed to rebuild an identically
   configured System (mode, seed, pid, start ISA, the full PSR config)
   plus a fingerprint of the fat binary, so a restore against the
   wrong program or a version-skewed image fails loudly instead of
   resuming garbage. Host engine switches (decode cache, chaining)
   are not guest state and stay out of the image: [restore] takes
   them from its caller, exactly as [System.of_fatbin] does. The
   parser is strict end to end: every length is checked, trailing
   bytes are an error, and truncation surfaces as
   [Hipstr_util.Wire.Corrupt].

   Guest memory travels as a page-granular delta against the pristine
   post-load image (fresh memory + [Fatbin.load], before [boot] — the
   boot writes are program state and land in the delta). The code-cache
   regions are excluded wholesale: translated code is never shipped,
   it re-materializes deterministically from the relocation maps
   ([Vm.restore_state]), which is both smaller and the honest model —
   migrated translations are stale on the other end anyway.

   Determinism contract: [checkpoint] first quiesces the machine's
   host-side decode caches (model-invisible), so the checkpointed run
   and any run restored from the image continue decode-cold in
   lockstep — outputs, instruction counts, cycle floats and the
   metrics layer (counters + histograms) all come out bit-identical to
   an uninterrupted run. Span rollups and audit history are not part
   of an image. *)

module Desc = Hipstr_isa.Desc
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

let magic = "HIPSNAP"
let memo_magic = "HIPMEMO"

(* Memo artifacts carry their own format version: version 3 of the
   image format (no engine flags in the manifest) left them as they
   were. *)
let version = 3
let memo_version = 2

let page_bytes = 4096

(* Pages below the cache regions are delta candidates; everything at
   or above [Layout.cisc_cache_base] is re-materialized code. *)
let delta_limit = Layout.cisc_cache_base

let mode_tag = function System.Native -> 0 | System.Psr_only -> 1 | System.Hipstr -> 2

let mode_of_tag = function
  | 0 -> System.Native
  | 1 -> System.Psr_only
  | 2 -> System.Hipstr
  | n -> Wire.corrupt "unknown mode tag %d" n

let isa_tag = function Desc.Cisc -> 0 | Desc.Risc -> 1

let isa_of_tag = function
  | 0 -> Desc.Cisc
  | 1 -> Desc.Risc
  | n -> Wire.corrupt "unknown ISA tag %d" n

(* --- fat-binary fingerprint (FNV-1a 64) --------------------------- *)

let fnv_prime = 0x100000001b3L
let fnv_offset = 0xcbf29ce484222325L

let fnv_byte h b = Int64.mul (Int64.logxor h (Int64.of_int (b land 0xFF))) fnv_prime

let fnv_int h v =
  let h = ref h in
  for i = 0 to 7 do
    h := fnv_byte !h ((v lsr (8 * i)) land 0xFF)
  done;
  !h

(* Hash both ISAs' entry points, code ranges and code bytes as loaded
   into a pristine memory — the identity of the program an image
   belongs to. Truncated to OCaml's 63-bit int for Wire transport. *)
let fingerprint fb =
  let m = Mem.create Layout.mem_size in
  Fatbin.load fb m;
  let h = ref fnv_offset in
  List.iter
    (fun which ->
      h := fnv_int !h (Fatbin.entry fb which);
      List.iter
        (fun (start, size) ->
          h := fnv_int !h start;
          h := fnv_int !h size;
          for a = start to start + size - 1 do
            h := fnv_byte !h (Mem.read8 m a)
          done)
        (Fatbin.code_bytes fb which))
    [ Desc.Cisc; Desc.Risc ];
  Int64.to_int (Int64.shift_right_logical !h 1)

(* --- config ------------------------------------------------------- *)

let policy_tag = function Code_cache.Flush -> 0 | Code_cache.Fifo -> 1 | Code_cache.Clock -> 2

let policy_of_tag = function
  | 0 -> Code_cache.Flush
  | 1 -> Code_cache.Fifo
  | 2 -> Code_cache.Clock
  | n -> Wire.corrupt "unknown cache-policy tag %d" n

let save_config w (c : Config.t) =
  Wire.tag w "CFG";
  Wire.int w c.opt_level;
  Wire.int w c.pad_bytes;
  Wire.int w c.rat_capacity;
  Wire.int w c.cache_bytes;
  Wire.float w c.migrate_prob;
  Wire.int w c.seed;
  Wire.int w c.superblock_budget;
  Wire.u8 w (policy_tag c.cc_policy)

let load_config r : Config.t =
  Wire.expect_tag r "CFG";
  let opt_level = Wire.r_int r in
  let pad_bytes = Wire.r_int r in
  let rat_capacity = Wire.r_int r in
  let cache_bytes = Wire.r_int r in
  let migrate_prob = Wire.r_float r in
  let seed = Wire.r_int r in
  let superblock_budget = Wire.r_int r in
  let cc_policy = policy_of_tag (Wire.r_u8 r) in
  {
    opt_level;
    pad_bytes;
    rat_capacity;
    cache_bytes;
    migrate_prob;
    seed;
    superblock_budget;
    cc_policy;
  }

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

let read_header r =
  let m = Wire.r_str r in
  if m <> magic then Wire.corrupt "bad magic %S (not a HIPStR snapshot)" m;
  let v = Wire.r_int r in
  if v <> version then Wire.corrupt "snapshot version %d, this build reads version %d" v version;
  Wire.expect_tag r "MANIFEST";
  let mf_workload = Wire.r_str r in
  let mf_mode = mode_of_tag (Wire.r_u8 r) in
  let mf_seed = Wire.r_int r in
  let mf_pid = Wire.r_int r in
  let mf_start_isa = isa_of_tag (Wire.r_u8 r) in
  let mf_cfg = load_config r in
  let mf_fingerprint = Wire.r_int r in
  let mf_instructions = Wire.r_int r in
  let mf_cycles = Wire.r_float r in
  {
    mf_version = v;
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

let manifest_of image = read_header (Wire.reader image)

(* --- memory delta -------------------------------------------------- *)

(* Pages are compared in place; only a differing page is copied out.
   [page_bytes] matches [Mem]'s own page size, so a page neither side
   has written compares by pointer. *)
let save_delta w ~baseline mem =
  Wire.tag w "MEMDELTA";
  let npages = delta_limit / page_bytes in
  let dirty = ref [] in
  for page = npages - 1 downto 0 do
    let a = page * page_bytes in
    if not (Mem.equal_span mem baseline a page_bytes) then
      dirty := (page, Mem.read_string mem a page_bytes) :: !dirty
  done;
  Wire.list w
    (fun w (page, bytes) ->
      Wire.int w page;
      Wire.str w bytes)
    !dirty

let load_delta r mem =
  Wire.expect_tag r "MEMDELTA";
  Wire.r_list r (fun r ->
      let page = Wire.r_int r in
      let bytes = Wire.r_str r in
      if page < 0 || (page + 1) * page_bytes > delta_limit then
        Wire.corrupt "delta page %d outside the checkpointable region" page;
      if String.length bytes <> page_bytes then
        Wire.corrupt "delta page %d carries %d bytes, expected %d" page (String.length bytes)
          page_bytes;
      Mem.write_string mem (page * page_bytes) bytes)
  |> ignore

(* --- obs metrics baseline ------------------------------------------ *)

let save_summary w (h : Obs.Metrics.histogram_summary) =
  Wire.int w h.hs_count;
  Wire.float w h.hs_sum;
  Wire.float w h.hs_min;
  Wire.float w h.hs_max;
  Wire.float w h.hs_mean;
  Wire.int_array w h.hs_buckets

let load_summary r : Obs.Metrics.histogram_summary =
  let hs_count = Wire.r_int r in
  let hs_sum = Wire.r_float r in
  let hs_min = Wire.r_float r in
  let hs_max = Wire.r_float r in
  let hs_mean = Wire.r_float r in
  let hs_buckets = Wire.r_int_array r in
  { hs_count; hs_sum; hs_min; hs_max; hs_mean; hs_buckets }

let save_metrics w (s : Obs.Metrics.snapshot) =
  Wire.tag w "METRICS";
  Wire.list w
    (fun w (name, v) ->
      Wire.str w name;
      Wire.int w v)
    s.snap_counters;
  Wire.list w
    (fun w (name, h) ->
      Wire.str w name;
      save_summary w h)
    s.snap_histograms

let load_metrics r : Obs.Metrics.snapshot =
  Wire.expect_tag r "METRICS";
  let snap_counters =
    Wire.r_list r (fun r ->
        let name = Wire.r_str r in
        let v = Wire.r_int r in
        (name, v))
  in
  let snap_histograms =
    Wire.r_list r (fun r ->
        let name = Wire.r_str r in
        let h = load_summary r in
        (name, h))
  in
  { snap_counters; snap_histograms }

(* --- checkpoint / restore ------------------------------------------ *)

let write_image w ?(workload = "custom") sys =
  let m = System.machine sys in
  (* Model-invisible but trajectory-critical: dropping the host decode
     caches here means the checkpointed run *continues* exactly like a
     restored run will start — decode-cold — so their host-counter and
     metric trajectories stay identical. *)
  Machine.quiesce m;
  let fb = System.fatbin sys in
  let baseline = Mem.create Layout.mem_size in
  Fatbin.load fb baseline;
  Wire.str w magic;
  Wire.int w version;
  Wire.tag w "MANIFEST";
  Wire.str w workload;
  Wire.u8 w (mode_tag (System.mode sys));
  Wire.int w (System.seed sys);
  Wire.int w (Machine.owner m);
  Wire.u8 w (isa_tag (System.start_isa sys));
  save_config w (System.config sys);
  Wire.int w (fingerprint fb);
  Wire.int w (System.instructions sys);
  Wire.float w (System.cycles sys);
  save_delta w ~baseline (Machine.mem m);
  System.save_state w sys;
  save_metrics w (Obs.Metrics.snapshot (Obs.metrics (System.obs sys)))

let checkpoint ?workload sys =
  let w = Wire.writer () in
  write_image w ?workload sys;
  Wire.contents w

let read_image r ?obs ?(merge_obs = true) ?decode_cache ?chain ~fatbin () =
  let mf = read_header r in
  let fp = fingerprint fatbin in
  if fp <> mf.mf_fingerprint then
    Wire.corrupt "binary fingerprint 0x%x does not match the image's 0x%x (wrong program?)" fp
      mf.mf_fingerprint;
  let sys =
    System.of_fatbin ?obs ~cfg:mf.mf_cfg ~seed:mf.mf_seed ~start_isa:mf.mf_start_isa
      ~pid:mf.mf_pid ?decode_cache ?chain ~boot:false ~mode:mf.mf_mode fatbin
  in
  load_delta r (Machine.mem (System.machine sys));
  System.restore_state sys r;
  let snap = load_metrics r in
  if merge_obs then Obs.Metrics.merge ~into:(Obs.metrics (System.obs sys)) snap;
  (sys, mf)

let restore ?obs ?merge_obs ?decode_cache ?chain ~fatbin image =
  let r = Wire.reader image in
  let sys, mf = read_image r ?obs ?merge_obs ?decode_cache ?chain ~fatbin () in
  Wire.expect_end r;
  (sys, mf)

(* --- process images (fleet live migration) ------------------------- *)

let checkpoint_process ?workload p =
  let w = Wire.writer () in
  Wire.str w "HIPSPROC";
  write_image w ?workload (Process.sys p);
  Process.save w p;
  Wire.contents w

let restore_process ?obs ?merge_obs ~fatbin image =
  let r = Wire.reader image in
  let m = Wire.r_str r in
  if m <> "HIPSPROC" then Wire.corrupt "bad magic %S (not a process snapshot)" m;
  let sys, mf = read_image r ?obs ?merge_obs ~fatbin () in
  let p = Process.reconstitute ~sys r in
  Wire.expect_end r;
  (p, mf)

(* --- warm-start memo artifacts ------------------------------------- *)

let save_memo sys =
  let w = Wire.writer () in
  Wire.str w memo_magic;
  Wire.int w memo_version;
  Wire.int w (fingerprint (System.fatbin sys));
  Wire.u8 w (mode_tag (System.mode sys));
  save_config w (System.config sys);
  System.save_memo w sys;
  Wire.contents w

let load_memo sys image =
  let r = Wire.reader image in
  let m = Wire.r_str r in
  if m <> memo_magic then Wire.corrupt "bad magic %S (not a memo artifact)" m;
  let v = Wire.r_int r in
  if v <> memo_version then
    Wire.corrupt "memo version %d, this build reads version %d" v memo_version;
  let fp = Wire.r_int r in
  let own = fingerprint (System.fatbin sys) in
  if fp <> own then
    Wire.corrupt "binary fingerprint 0x%x does not match the memo's 0x%x" own fp;
  let mt = Wire.r_u8 r in
  if mt <> mode_tag (System.mode sys) then
    Wire.corrupt "memo was taken in mode %d, this system is mode %d" mt
      (mode_tag (System.mode sys));
  let cfg = load_config r in
  if cfg <> System.config sys then Wire.corrupt "memo config differs from this system's config";
  System.load_memo sys r;
  Wire.expect_end r

(* --- migration cost model ------------------------------------------ *)
(* Simulated cycle costs of moving an image between pools, charged by
   the fleet harness and decomposed by the migration microbenchmark.
   Serialization is dominated by the page scan (per-byte) on top of a
   fixed quiesce/drain overhead; the interconnect transfer is a
   per-byte wire cost on the image actually shipped. *)

let checkpoint_fixed_cycles = 100_000.
let checkpoint_per_byte = 0.25
let transfer_per_byte = 2.

let checkpoint_cycles ~bytes = checkpoint_fixed_cycles +. (checkpoint_per_byte *. float_of_int bytes)
let transfer_cycles ~bytes = transfer_per_byte *. float_of_int bytes
