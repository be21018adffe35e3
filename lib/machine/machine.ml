open Hipstr_isa
module Obs = Hipstr_obs.Obs

type core_ctx = {
  desc : Desc.t;
  core : Core_desc.t;
  icache : Cache.t;
  dcache : Cache.t;
  bpred : Bpred.t;
  rat : Rat.t option;
  dcode : Decode_cache.t option;
  ctrs : Exec.counters;
}

type t = {
  cpu : Cpu.t;
  memory : Mem.t;
  mem_reader : int -> int;
  os_state : Sys.t;
  cisc_ctx : core_ctx;
  risc_ctx : core_ctx;
  (* Execution environments are built once here and reused for every
     run: [Exec.env] is immutable and its construction computes the
     femtocycle quotients, so rebuilding it per quantum would both
     allocate and redo float->int conversion on the hot control
     path. *)
  cisc_env : Exec.env;
  risc_env : Exec.env;
  observ : Obs.t;
  c_ctx_flush : Obs.Metrics.counter;
  mutable active : Desc.which;
  mutable owner_pid : int;
  mutable migrations : int;
  (* cycle attribution for converting to seconds per-core, in
     femtocycles (see {!Cpu.fc_scale}) like the perf accumulator they
     are marked against *)
  mutable cisc_fc : int;
  mutable risc_fc : int;
  mutable fc_mark : int;
}

let make_ctx ~obs ~rat_capacity ~icache_kb ~dcache_kb ~decode_cache ~chain ~memory which =
  let desc = match which with Desc.Cisc -> Hipstr_cisc.Isa.desc | Risc -> Hipstr_risc.Isa.desc in
  let core = Core_desc.for_isa which in
  let isa = match which with Desc.Cisc -> "cisc" | Desc.Risc -> "risc" in
  let counter n = Obs.Metrics.counter (Obs.metrics obs) ("machine." ^ isa ^ "." ^ n) in
  {
    desc;
    core;
    icache =
      Cache.create ~size_kb:icache_kb ~assoc:core.cache_assoc
        ~miss_penalty:core.icache_miss_penalty ();
    dcache =
      Cache.create ~size_kb:dcache_kb ~assoc:core.cache_assoc
        ~miss_penalty:core.dcache_miss_penalty ();
    bpred = Bpred.create ();
    rat = (match rat_capacity with None -> None | Some n -> Some (Rat.create ~capacity:n));
    dcode = (if decode_cache then Some (Decode_cache.create ~obs ~isa ~chain which memory) else None);
    ctrs =
      {
        Exec.cn_instrs = counter "instructions";
        cn_faults = counter "faults";
        cn_syscalls = counter "syscalls";
      };
  }

let make_env ~cpu ~memory ~mem_reader ~os_state ~observ (c : core_ctx) =
  {
    Exec.cpu;
    mem = memory;
    reader = mem_reader;
    desc = c.desc;
    core = c.core;
    icache = c.icache;
    dcache = c.dcache;
    bpred = c.bpred;
    rat = c.rat;
    os = os_state;
    dcode = c.dcode;
    obs = observ;
    ctrs = c.ctrs;
    (* the same quotient function the decode cache bakes block charges
       with, so cached and slow-path accounting agree to the bit *)
    q1 = Cpu.fc_quotient ~lat:1 ~throughput:c.core.throughput;
    q2 = Cpu.fc_quotient ~lat:2 ~throughput:c.core.throughput;
    qmul = Cpu.fc_quotient ~lat:c.core.mul_latency ~throughput:c.core.throughput;
    qdiv = Cpu.fc_quotient ~lat:c.core.div_latency ~throughput:c.core.throughput;
    p_mispredict = c.core.mispredict_penalty * Cpu.fc_scale;
    p_icache_miss = Cache.miss_penalty c.icache * Cpu.fc_scale;
    p_dcache_miss = Cache.miss_penalty c.dcache * Cpu.fc_scale;
  }

let create ?(obs = Obs.global) ?(rat_capacity = None) ?(icache_kb = 32) ?(dcache_kb = 32)
    ?(decode_cache = true) ?(chain = true) ~active () =
  let memory = Mem.create Layout.mem_size in
  let cpu = Cpu.create () in
  let mem_reader = Mem.reader memory in
  let os_state = Sys.create () in
  let cisc_ctx =
    make_ctx ~obs ~rat_capacity ~icache_kb ~dcache_kb ~decode_cache ~chain ~memory Desc.Cisc
  in
  let risc_ctx =
    make_ctx ~obs ~rat_capacity ~icache_kb ~dcache_kb ~decode_cache ~chain ~memory Desc.Risc
  in
  {
    cpu;
    memory;
    mem_reader;
    os_state;
    cisc_ctx;
    risc_ctx;
    cisc_env = make_env ~cpu ~memory ~mem_reader ~os_state ~observ:obs cisc_ctx;
    risc_env = make_env ~cpu ~memory ~mem_reader ~os_state ~observ:obs risc_ctx;
    observ = obs;
    c_ctx_flush = Obs.Metrics.counter (Obs.metrics obs) "machine.context_switch_flushes";
    active;
    owner_pid = 0;
    migrations = 0;
    cisc_fc = 0;
    risc_fc = 0;
    fc_mark = 0;
  }

let mem t = t.memory
let cpu t = t.cpu
let os t = t.os_state
let active t = t.active
let obs t = t.observ
let owner t = t.owner_pid
let set_owner t pid = t.owner_pid <- pid

let isa_name t = match t.active with Desc.Cisc -> "cisc" | Desc.Risc -> "risc"

let ctx t = match t.active with Desc.Cisc -> t.cisc_ctx | Risc -> t.risc_ctx

let desc t = (ctx t).desc

let env_of t which = match which with Desc.Cisc -> t.cisc_env | Desc.Risc -> t.risc_env

let env t = env_of t t.active

let rat t = (ctx t).rat

let account_cycles t =
  let fc = t.cpu.perf.cycles_fc in
  let delta = fc - t.fc_mark in
  (match t.active with
  | Desc.Cisc -> t.cisc_fc <- t.cisc_fc + delta
  | Desc.Risc -> t.risc_fc <- t.risc_fc + delta);
  t.fc_mark <- fc

let switch_core t which =
  if which <> t.active then begin
    account_cycles t;
    t.active <- which;
    t.migrations <- t.migrations + 1
  end

let migrations t = t.migrations

let ctx_of t which = match which with Desc.Cisc -> t.cisc_ctx | Desc.Risc -> t.risc_ctx

(* Decode-cache stat counters are batched (plain ints, deposited into
   the metrics registry in bulk); any entry point that mutates cache
   state outside [Exec.run] must deposit before the registry can be
   read. *)
let deposit_decoded t =
  if Obs.on t.observ then begin
    (match t.cisc_ctx.dcode with Some dc -> Decode_cache.deposit dc | None -> ());
    match t.risc_ctx.dcode with Some dc -> Decode_cache.deposit dc | None -> ()
  end

(* Drop every predecoded block of one core's cache — the PSR VM calls
   this when it rewrites its code-cache region wholesale (flush,
   relocation-map renewal). Generations already keep stale blocks from
   executing; this frees the table at once instead of leaving each dead
   block to fail its staleness check. The decode cache is host state
   and charges no guest cycles, so this changes host time only. *)
let invalidate_decoded t which =
  (match (ctx_of t which).dcode with
  | Some dc -> Decode_cache.invalidate_all dc
  | None -> ());
  deposit_decoded t

let decode_cache_stats t which =
  match (ctx_of t which).dcode with
  | Some dc -> Some (Decode_cache.stats dc)
  | None -> None

let context_switch_flush t =
  let cold (c : core_ctx) =
    Cache.flush c.icache;
    Cache.flush c.dcache;
    Bpred.flush c.bpred;
    match c.dcode with Some dc -> Decode_cache.invalidate_all dc | None -> ()
  in
  cold t.cisc_ctx;
  cold t.risc_ctx;
  if Obs.on t.observ then begin
    deposit_decoded t;
    Obs.Metrics.incr t.c_ctx_flush;
    (* zero-duration span: the flush itself is free in the cycle model
       (the cost is the refill), but the profile should show when and
       where cold reschedules happened *)
    let cycle = Cpu.cycles t.cpu.perf in
    let sp =
      Obs.enter_span t.observ ~name:"context_switch_flush"
        ~attrs:[ ("isa", isa_name t); ("pid", string_of_int t.owner_pid) ]
        ~cycle ()
    in
    Obs.exit_span t.observ sp ~cycle
  end

let boot t ~entry =
  let d = desc t in
  t.cpu.regs.(d.sp) <- Layout.stack_top;
  (if d.call_pushes_ret then begin
     t.cpu.regs.(d.sp) <- t.cpu.regs.(d.sp) - 4;
     Mem.write32 t.memory t.cpu.regs.(d.sp) Layout.exit_sentinel
   end
   else
     match d.lr with
     | Some lr -> t.cpu.regs.(lr) <- Layout.exit_sentinel
     | None -> assert false);
  t.cpu.pc <- entry

let run t ~fuel =
  let r = Exec.run (env t) ~fuel in
  account_cycles t;
  r

let cycles t = Cpu.cycles t.cpu.perf

let instructions t = t.cpu.perf.instructions

let seconds t =
  account_cycles t;
  (Cpu.cycles_of_fc t.cisc_fc /. (Core_desc.x86.freq_ghz *. 1e9))
  +. (Cpu.cycles_of_fc t.risc_fc /. (Core_desc.arm.freq_ghz *. 1e9))

(* --- snapshot ------------------------------------------------------ *)

module Wire = Hipstr_util.Wire

(* Drop host-side decoded state on both cores. Taking a checkpoint
   quiesces the machine: the decode caches are host structures whose
   contents cannot travel in an image (and are model-invisible
   anyway), so BOTH the saved run and a run restored from the image
   must continue from an equally cold decode cache — that is what
   makes their host-counter trajectories, and therefore their metrics
   exports, byte-identical. The cycle-visible microarchitecture
   (i/d-caches, predictors, RAT) is untouched; it serializes
   exactly. *)
let quiesce t =
  invalidate_decoded t Desc.Cisc;
  invalidate_decoded t Desc.Risc

let save_ctx w (c : core_ctx) =
  Cache.save w c.icache;
  Cache.save w c.dcache;
  Bpred.save w c.bpred;
  match c.rat with
  | None -> Wire.bool w false
  | Some rat ->
    Wire.bool w true;
    Rat.save w rat

let restore_ctx (c : core_ctx) r =
  Cache.restore c.icache r;
  Cache.restore c.dcache r;
  Bpred.restore c.bpred r;
  match (Wire.r_bool r, c.rat) with
  | false, None -> ()
  | true, Some rat -> Rat.restore rat r
  | has, _ ->
    Wire.corrupt "RAT presence mismatch: image %s one, this machine %s"
      (if has then "carries" else "lacks")
      (if c.rat = None then "lacks" else "carries")

let save w t =
  Wire.tag w "MACH";
  (* architectural CPU state *)
  Wire.int w t.cpu.Cpu.pc;
  Wire.int_array w t.cpu.Cpu.regs;
  Wire.bool w t.cpu.Cpu.flags.Cpu.zf;
  Wire.bool w t.cpu.Cpu.flags.Cpu.sf;
  Wire.bool w t.cpu.Cpu.flags.Cpu.cf;
  Wire.bool w t.cpu.Cpu.flags.Cpu.vf;
  (* performance counters; the femtocycle accumulator is an int and
     travels bit-exact by construction *)
  Wire.int w t.cpu.Cpu.perf.Cpu.cycles_fc;
  Wire.int w t.cpu.Cpu.perf.Cpu.instructions;
  Wire.int w t.cpu.Cpu.perf.Cpu.loads;
  Wire.int w t.cpu.Cpu.perf.Cpu.stores;
  Wire.int w t.cpu.Cpu.perf.Cpu.branches;
  Wire.int w t.cpu.Cpu.perf.Cpu.calls;
  Wire.int w t.cpu.Cpu.perf.Cpu.returns;
  Wire.int w t.cpu.Cpu.perf.Cpu.indirects;
  Wire.int w t.cpu.Cpu.perf.Cpu.syscalls;
  Sys.save w t.os_state;
  save_ctx w t.cisc_ctx;
  save_ctx w t.risc_ctx;
  Wire.u8 w (match t.active with Desc.Cisc -> 0 | Desc.Risc -> 1);
  Wire.int w t.migrations;
  Wire.int w t.cisc_fc;
  Wire.int w t.risc_fc;
  Wire.int w t.fc_mark

let restore t r =
  Wire.expect_tag r "MACH";
  t.cpu.Cpu.pc <- Wire.r_int r;
  let regs = Wire.r_int_array r in
  if Array.length regs <> Array.length t.cpu.Cpu.regs then
    Wire.corrupt "register file size mismatch (%d)" (Array.length regs);
  Array.blit regs 0 t.cpu.Cpu.regs 0 (Array.length regs);
  t.cpu.Cpu.flags.Cpu.zf <- Wire.r_bool r;
  t.cpu.Cpu.flags.Cpu.sf <- Wire.r_bool r;
  t.cpu.Cpu.flags.Cpu.cf <- Wire.r_bool r;
  t.cpu.Cpu.flags.Cpu.vf <- Wire.r_bool r;
  t.cpu.Cpu.perf.Cpu.cycles_fc <- Wire.r_int r;
  t.cpu.Cpu.perf.Cpu.instructions <- Wire.r_int r;
  t.cpu.Cpu.perf.Cpu.loads <- Wire.r_int r;
  t.cpu.Cpu.perf.Cpu.stores <- Wire.r_int r;
  t.cpu.Cpu.perf.Cpu.branches <- Wire.r_int r;
  t.cpu.Cpu.perf.Cpu.calls <- Wire.r_int r;
  t.cpu.Cpu.perf.Cpu.returns <- Wire.r_int r;
  t.cpu.Cpu.perf.Cpu.indirects <- Wire.r_int r;
  t.cpu.Cpu.perf.Cpu.syscalls <- Wire.r_int r;
  Sys.restore t.os_state r;
  restore_ctx t.cisc_ctx r;
  restore_ctx t.risc_ctx r;
  (t.active <-
     (match Wire.r_u8 r with
     | 0 -> Desc.Cisc
     | 1 -> Desc.Risc
     | v -> Wire.corrupt "bad active-ISA tag %d" v));
  t.migrations <- Wire.r_int r;
  t.cisc_fc <- Wire.r_int r;
  t.risc_fc <- Wire.r_int r;
  t.fc_mark <- Wire.r_int r
