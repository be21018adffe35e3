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

(* The creation parameters a recycled machine must match. *)
type shape = { sh_rat : int option; sh_decode_cache : bool }

(* Field by field: [<>] on the record would call the C
   [caml_notequal]. *)
let same_shape a b =
  Option.equal Int.equal a.sh_rat b.sh_rat && a.sh_decode_cache = b.sh_decode_cache

type t = {
  shape : shape;
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

let make_ctx ~obs shape ~memory which =
  let core = Core_desc.for_isa which in
  let isa = Isa.name which in
  let counter n = Obs.Metrics.counter (Obs.metrics obs) ("machine." ^ isa ^ "." ^ n) in
  {
    desc = Isa.desc which;
    core;
    icache =
      Cache.create ~size_kb:core.icache_size_kb ~assoc:core.cache_assoc
        ~miss_penalty:core.icache_miss_penalty ();
    dcache =
      Cache.create ~size_kb:core.dcache_size_kb ~assoc:core.cache_assoc
        ~miss_penalty:core.dcache_miss_penalty ();
    bpred = Bpred.create ();
    rat = Option.map (fun n -> Rat.create ~capacity:n) shape.sh_rat;
    dcode = (if shape.sh_decode_cache then Some (Decode_cache.create which memory) else None);
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

let allocate ~obs shape =
  let memory = Mem.create Layout.mem_size in
  let cpu = Cpu.create () in
  let mem_reader = Mem.reader memory in
  let os_state = Sys.create () in
  let cisc_ctx = make_ctx ~obs shape ~memory Desc.Cisc in
  let risc_ctx = make_ctx ~obs shape ~memory Desc.Risc in
  {
    shape;
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
    active = Desc.Cisc;
    owner_pid = 0;
    migrations = 0;
    cisc_fc = 0;
    risc_fc = 0;
    fc_mark = 0;
  }

(* The pristine state, defined once for a new machine and a recycled
   one alike: each component resets in place, and [Mem.reset] costs
   what the previous owner wrote. Only the structures are reset; the
   obs counter handles and the execution environments are fixed at
   allocation. *)
let reset_ctx (c : core_ctx) =
  Cache.reset c.icache;
  Cache.reset c.dcache;
  Bpred.reset c.bpred;
  Option.iter Rat.reset c.rat;
  Option.iter Decode_cache.reset c.dcode

let reset t ~active =
  Mem.reset t.memory;
  Cpu.reset t.cpu;
  Sys.reset t.os_state;
  reset_ctx t.cisc_ctx;
  reset_ctx t.risc_ctx;
  t.active <- active;
  t.owner_pid <- 0;
  t.migrations <- 0;
  t.cisc_fc <- 0;
  t.risc_fc <- 0;
  t.fc_mark <- 0

let create ?(obs = Obs.disabled) ?(rat_capacity = None) ?(decode_cache = true) ?spare ~active () =
  let shape = { sh_rat = rat_capacity; sh_decode_cache = decode_cache } in
  let t =
    match spare with
    | None -> allocate ~obs shape
    | Some t ->
      if (not (same_shape t.shape shape)) || t.observ != obs then
        invalid_arg "Machine.create: spare built with a different configuration or obs";
      t
  in
  reset t ~active;
  t

let mem t = t.memory
let cpu t = t.cpu
let os t = t.os_state
let active t = t.active
let obs t = t.observ
let owner t = t.owner_pid
let set_owner t pid = t.owner_pid <- pid

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

(* Drop every predecoded block of one core's cache — the PSR VM calls
   this when it rewrites its code-cache region wholesale (a flush).
   Generations already keep stale blocks from
   executing; this frees the table at once instead of leaving each dead
   block to fail its staleness check. The decode cache is host state
   and charges no guest cycles, so this changes host time only. *)
let invalidate_decoded t which =
  match (ctx_of t which).dcode with Some dc -> Decode_cache.invalidate_all dc | None -> ()

let decode_cache t which = (ctx_of t which).dcode

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
    Obs.Metrics.incr t.c_ctx_flush;
    (* zero-duration span: the flush itself is free in the cycle model
       (the cost is the refill), but the profile should show when and
       where cold reschedules happened *)
    let cycle = Cpu.cycles t.cpu.perf in
    let sp =
      Obs.enter_span t.observ ~name:"context_switch_flush"
        ~attrs:[ ("isa", Isa.name t.active); ("pid", string_of_int t.owner_pid) ]
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
module C = Wire.C

let sync_ctx io (c : core_ctx) =
  Cache.sync io c.icache;
  Cache.sync io c.dcache;
  Bpred.sync io c.bpred;
  match (Wire.field io "has_rat" C.bool (Option.is_some c.rat), c.rat) with
  | false, None -> ()
  | true, Some rat -> Rat.sync io rat
  | has, _ ->
    Wire.corrupt "RAT presence mismatch: image %s one, this machine %s"
      (if has then "carries" else "lacks")
      (if has then "lacks" else "carries")

let sync io t =
  let io = Wire.section io "MACH" in
  (* architectural CPU state *)
  let cpu = t.cpu in
  cpu.pc <- Wire.field io "pc" C.int cpu.pc;
  Wire.into io "regs" cpu.regs;
  let f = cpu.flags in
  f.zf <- Wire.field io "zf" C.bool f.zf;
  f.sf <- Wire.field io "sf" C.bool f.sf;
  f.cf <- Wire.field io "cf" C.bool f.cf;
  f.vf <- Wire.field io "vf" C.bool f.vf;
  (* performance counters; the femtocycle accumulator is an int and
     travels bit-exact by construction *)
  let p = cpu.perf in
  p.cycles_fc <- Wire.field io "cycles_fc" C.int p.cycles_fc;
  p.instructions <- Wire.field io "instructions" C.int p.instructions;
  p.loads <- Wire.field io "loads" C.int p.loads;
  p.stores <- Wire.field io "stores" C.int p.stores;
  p.branches <- Wire.field io "branches" C.int p.branches;
  p.calls <- Wire.field io "calls" C.int p.calls;
  p.returns <- Wire.field io "returns" C.int p.returns;
  p.indirects <- Wire.field io "indirects" C.int p.indirects;
  p.syscalls <- Wire.field io "syscalls" C.int p.syscalls;
  Sys.sync io t.os_state;
  sync_ctx io t.cisc_ctx;
  sync_ctx io t.risc_ctx;
  t.active <- Wire.field io "active" Isa.codec t.active;
  t.migrations <- Wire.field io "migrations" C.int t.migrations;
  t.cisc_fc <- Wire.field io "cisc_fc" C.int t.cisc_fc;
  t.risc_fc <- Wire.field io "risc_fc" C.int t.risc_fc;
  t.fc_mark <- Wire.field io "fc_mark" C.int t.fc_mark

let save w t = sync (Wire.writing w) t
