open Hipstr_isa
module Fatbin = Hipstr_compiler.Fatbin
module Machine = Hipstr_machine.Machine
module Mem = Hipstr_machine.Mem
module Exec = Hipstr_machine.Exec
module Cpu = Hipstr_machine.Cpu
module Rat = Hipstr_machine.Rat
module Layout = Hipstr_machine.Layout
module Decode_cache = Hipstr_machine.Decode_cache
module Tbl = Layout.Int_tbl
module Rng = Hipstr_util.Rng
module Obs = Hipstr_obs.Obs

(* VM service costs, in cycles, charged to the executing core. *)
let trap_overhead = 150.
let translate_per_instr = 25.
let memo_install_per_instr = 3.
let patch_cost = 15.
let icall_cost = 100.
let flush_cost = 10_000.
let evict_cost = 120.

type stats = {
  mutable translations : int;
  mutable source_instrs : int;
  mutable emitted_instrs : int;
  mutable traps : int;
  mutable patches : int;
  mutable rat_miss_translated : int;
  mutable icalls : int;
  mutable suspicious : int;
  mutable compulsory_misses : int;
  mutable capacity_misses : int;
  mutable evictions : int;
  mutable memo_installs : int;
  mutable retranslate_cycles : float;
}

type stub_info = Sexit of int | Sicall of Translator.icall_site

(* Observability handles, resolved once at VM creation; every use is
   guarded by [if Obs.on p.obs] so disabled observability costs a
   single branch per site. *)
type probes = {
  obs : Obs.t;
  isa : string;
  c_translations : Obs.Metrics.counter;
  c_cache_hits : Obs.Metrics.counter;
  c_miss_compulsory : Obs.Metrics.counter;
  c_miss_capacity : Obs.Metrics.counter;
  c_flushes : Obs.Metrics.counter;
  c_traps : Obs.Metrics.counter;
  c_patches : Obs.Metrics.counter;
  c_icalls : Obs.Metrics.counter;
  c_suspicious : Obs.Metrics.counter;
  c_memo_installs : Obs.Metrics.counter;
  h_unit_instrs : Obs.Metrics.histogram;
}

let make_probes obs which =
  let isa = Isa.name which in
  let m = Obs.metrics obs in
  let c n = Obs.Metrics.counter m ("psr." ^ isa ^ "." ^ n) in
  {
    obs;
    isa;
    c_translations = c "translations";
    c_cache_hits = c "cache_hits";
    c_miss_compulsory = c "cache_misses.compulsory";
    c_miss_capacity = c "cache_misses.capacity";
    c_flushes = c "flushes";
    c_traps = c "traps";
    c_patches = c "patches";
    c_icalls = c "icalls";
    c_suspicious = c "suspicious";
    c_memo_installs = c "memo_installs";
    h_unit_instrs = Obs.Metrics.histogram m ("psr." ^ isa ^ ".unit_instrs");
  }

(* A patched (chained) stub: [pt_src] is the source target its Trap
   named before patching, [pt_cache] the cache address the Jmp now
   lands on. Kept so evicting the *target* block can un-chain every
   incoming jump by restoring the original Trap. *)
type patch_rec = { pt_src : int; pt_cache : int }

(* Translation memo: a base-independent prepared unit, valid only
   while the reloc maps it was rewritten against are unchanged —
   guarded by the unit's own map fingerprint (maps are drawn once per
   VM and never renewed).
   Under every policy an entry must also prove the source bytes it
   was read from unwritten ([source_unchanged]): a hit stands in for a
   translation of current memory. [me_saved] entries travel in
   snapshots and memo files; the ones the flush path keeps for itself
   are host state and never do. [me_laid] is the entry's last layout
   (see [laid]): a flushed cache refills in the same order, so a unit
   usually lands where it was before. *)

(* A layout of a memo entry at [la_base], plus its kept blocks: the
   decoded blocks of its bytes that a flush took out of the decode
   cache ([harvest]) for the next install at [la_base], which blits
   the same bytes, to adopt instead of decoding them again; the install
   empties the list, so a harvest always starts from none. [la_gen] is
   the cache-region generation right after the layout's last blit, the
   guard the harvest checks blocks against. Host state only: kept
   blocks charge and change nothing the guest can see, and a run
   restored from an image starts with none. *)
type laid = {
  la_base : int;
  la_unit : Translator.unit_code;
  mutable la_gen : int;
  mutable la_blocks : Decode_cache.block list;
}

type memo_entry = {
  me_fp : int;
  me_prep : Translator.prepared;
  me_saved : bool;
  mutable me_src_gen : int;  (* source-region generation the spans are known clean under *)
  mutable me_laid : laid option;
}

type t = {
  cfg : Config.t;
  which : Desc.which;
  desc : Desc.t;
  fatbin : Fatbin.t;
  machine : Machine.t;
  cache : Code_cache.t;
  (* [maps] and [hot] are keyed by function ([func_key]) *)
  maps : Reloc_map.t Tbl.t;
  hot : int list Tbl.t;
  stub_at : stub_info Tbl.t;
  rng : Rng.t;
  st : stats;
  pr : probes;
  ever_translated : unit Tbl.t;
  memo : memo_entry Tbl.t;
  src_region : Mem.region;  (* this ISA's code section, watched for memo validity *)
  cache_region : Mem.region;  (* this ISA's code-cache region, watched for kept blocks *)
  loaded_gen : int;  (* [src_region]'s generation at creation, after the binary was loaded *)
  block_meta : int list Tbl.t;
      (* block base -> trap pcs registered at install, so eviction can
         drop exactly that block's stub_at/patch entries *)
  patches : patch_rec Tbl.t; (* patched stub pc -> what it chained to *)
  mutable new_units : int list;
  mutable span_quiet : bool;
      (* suppress translate spans during speculative work whose cycle
         charge is rewound (pretranslate) — a span there would claim
         cycles the clock never kept *)
}

type resolution = Continue | Exit of int | Fault of string

type suspicious_kind =
  | Kreturn
  | Kicall of { call_src : int; src_ret : int; nargs : int; is_call : bool }

type event =
  | Benign of resolution
  | Suspicious of { target_src : int; kind : suspicious_kind; resolve : unit -> resolution }

let create cfg ~seed which fatbin machine =
  let desc = Isa.desc which in
  assert (Translator.jmp_same_size desc);
  let obs = Machine.obs machine in
  let pr = make_probes obs which in
  let src_region =
    let lo = Layout.code_base which in
    Mem.watch (Machine.mem machine) ~lo ~hi:(lo + Layout.code_region_size)
  in
  let cache_region =
    let lo = Layout.cache_base which in
    Mem.watch (Machine.mem machine) ~lo ~hi:(lo + Layout.cache_region_size)
  in
  {
    cfg;
    which;
    desc;
    fatbin;
    machine;
    cache =
      Code_cache.create ~obs ~isa:pr.isa ~policy:cfg.cc_policy ~base:(Layout.cache_base which)
        ~capacity:cfg.cache_bytes ();
    (* every table starts small and grows on demand: a fleet
       connection translates a few dozen units, and [stub_at],
       [block_meta] and [patches] are reset on every flush, where
       [Tbl.reset] costs the initial bucket count *)
    maps = Tbl.create 16;
    hot = Tbl.create 16;
    stub_at = Tbl.create 16;
    rng = Rng.create (seed lxor (match which with Desc.Cisc -> 0x11111 | Risc -> 0x22222));
    st =
      {
        translations = 0;
        source_instrs = 0;
        emitted_instrs = 0;
        traps = 0;
        patches = 0;
        rat_miss_translated = 0;
        icalls = 0;
        suspicious = 0;
        compulsory_misses = 0;
        capacity_misses = 0;
        evictions = 0;
        memo_installs = 0;
        retranslate_cycles = 0.;
      };
    pr;
    ever_translated = Tbl.create 16;
    memo = Tbl.create 16;
    src_region;
    cache_region;
    loaded_gen = Mem.generation src_region;
    block_meta = Tbl.create 16;
    patches = Tbl.create 16;
    new_units = [];
    span_quiet = false;
  }

let cache t = t.cache
let stats t = t.st
let config t = t.cfg

let env t = Machine.env_of t.machine t.which
let mem t = Machine.mem t.machine
let cpu t = Machine.cpu t.machine

(* VM costs are whole cycles, so the femtocycle conversion is exact
   and one integer add charges the executing core. *)
let charge t c =
  let p = (env t).Exec.cpu.perf in
  p.Cpu.cycles_fc <- p.Cpu.cycles_fc + Cpu.fc_of_cycles c

let rat t =
  match (env t).Exec.rat with
  | Some r -> r
  | None -> failwith "psr: machine must be created with a RAT"

(* The function's code still holds the bytes the binary loaded: the
   guard under which the binary's shared register counts and decoded
   code stand in for a decode of this VM's memory. Every source check
   of the VM is this one guard ([Decode_cache.source_unwritten]); the
   region generation alone usually settles it, as a guest rarely
   writes its own code section. *)
let as_loaded t (fs : Fatbin.func_sym) =
  let im = Fatbin.image fs t.which in
  Decode_cache.source_unwritten t.src_region ~since:t.loaded_gen (im.im_entry, im.im_size)

(* A function's key in [maps] and [hot]: its CISC entry, which no
   other function of the binary shares. *)
let func_key (fs : Fatbin.func_sym) = fs.fs_cisc.im_entry

(* Most-used allocatable registers in the function's source code,
   ranked from the binary's shared register-use counts while the
   function's bytes are still the ones the binary loaded, and from a
   decode of current memory once the guest has written them. *)
let hot_regs t (fs : Fatbin.func_sym) =
  let key = func_key fs in
  match Tbl.find t.hot key with
  | l -> l
  | exception Not_found ->
    let im = Fatbin.image fs t.which in
    let counts =
      if as_loaded t fs then im.im_reg_uses
      else
        Fatbin.count_reg_uses t.which ~read:(Mem.reader (mem t)) ~lo:im.im_entry
          ~hi:(im.im_entry + im.im_size)
    in
    let ranked =
      List.sort
        (fun a b -> compare counts.(b) counts.(a))
        (List.filter (fun r -> counts.(r) > 0) t.desc.allocatable)
    in
    Tbl.replace t.hot key ranked;
    ranked

let map_of t (fs : Fatbin.func_sym) =
  let key = func_key fs in
  match Tbl.find t.maps key with
  | m -> m
  | exception Not_found ->
    let m = Reloc_map.generate t.cfg t.rng t.desc fs ~hot_regs:(hot_regs t fs) in
    Tbl.replace t.maps key m;
    m

let prepare t src =
  Translator.prepare t.cfg t.desc ~read:(Mem.reader (mem t)) ~as_loaded:(as_loaded t)
    ~fatbin:t.fatbin ~map_of:(map_of t) ~src

(* Before a flush drops the live units, each one installed from a memo
   entry's layout hands that layout the decoded blocks whose guard lies
   inside its bytes and still holds them ([Decode_cache.keepable]):
   unwritten since the blit by the stamps, or else equal to the
   layout's bytes at the block's offset. A chain patch rewrites only
   its stub's one-instruction block (exits start their own block), so
   the body blocks around it are kept; the patched stub's block stays
   behind and is decoded again after the next install, as is every
   block of a unit installed without a memo entry. Units and blocks
   are both walked in address order, so the harvest is one pass over
   each however many units are live. *)
let harvest t dc =
  let rec units (us : Code_cache.block list) (bs : Decode_cache.block list) =
    match us with
    | [] -> ()
    | u :: us ->
      let lo = u.cb_cache and hi = u.cb_cache + u.cb_size in
      let laid =
        match Tbl.find t.memo u.cb_src with
        | { me_laid = Some l as laid; _ } when l.la_base = lo -> laid
        | _ -> None
        | exception Not_found -> None
      in
      units us (blocks laid ~lo ~hi bs)
  and blocks laid ~lo ~hi = function
    | (b : Decode_cache.block) :: bs when b.db_start < hi ->
      (match laid with
      | Some l when Decode_cache.keepable b ~base:lo ~bytes:l.la_unit.u_bytes ~since:l.la_gen
        ->
        l.la_blocks <- b :: l.la_blocks
      | _ -> ());
      blocks laid ~lo ~hi bs
    | bs -> bs
  in
  units (Code_cache.blocks t.cache) (Decode_cache.blocks dc)

let flush t =
  if Obs.on t.pr.obs then Obs.Metrics.incr t.pr.c_flushes;
  (match Machine.decode_cache t.machine t.which with Some dc -> harvest t dc | None -> ());
  Code_cache.flush t.cache;
  (* every predecoded block of the cache region is now garbage; the
     write generations would catch them lazily, but a flush rewrites
     wholesale, so drop eagerly *)
  Machine.invalidate_decoded t.machine t.which;
  Tbl.reset t.stub_at;
  Tbl.reset t.block_meta;
  Tbl.reset t.patches;
  (* [ever_translated] is the translation *history*, not cache state:
     it survives flushes so a re-translation after one is classified
     as a capacity miss, not compulsory. *)
  Rat.clear (rat t);
  (* Relocation maps survive: live stack frames hold state at
     map-specified offsets. *)
  charge t flush_cost

(* Maximum unit footprint; flushing below this headroom keeps
   translation single-pass. *)
let unit_headroom = 4096

exception Wild_target = Translator.Wild

(* Table entries collected by a fold, in key order. *)
let by_key (a, _) (b, _) = Int.compare a b

(* An evicted block must leave no way back into its bytes:
   - its own trap registrations (stub_at) and outgoing patch records go;
   - RAT lines whose *translated* target lies in its range go — including
     mid-block continuations the call macro-op inserted;
   - incoming chained jumps from still-live blocks are un-patched back
     to their original Traps, so those paths re-enter the VM instead of
     falling into reused cache bytes. Processed in sorted order so the
     walk is schedule-independent. *)
let invalidate_block t (b : Code_cache.block) =
  (match Tbl.find_opt t.block_meta b.cb_cache with
  | Some pcs ->
    List.iter
      (fun pc ->
        Tbl.remove t.stub_at pc;
        Tbl.remove t.patches pc)
      pcs;
    Tbl.remove t.block_meta b.cb_cache
  | None -> ());
  let lo = b.cb_cache and hi = b.cb_cache + b.cb_size in
  Rat.remove_in_range (rat t) ~lo ~hi;
  let incoming =
    Tbl.fold
      (fun pc (p : patch_rec) acc ->
        if p.pt_cache >= lo && p.pt_cache < hi then (pc, p) :: acc else acc)
      t.patches []
  in
  List.iter
    (fun (pc, (p : patch_rec)) ->
      Tbl.remove t.patches pc;
      Mem.blit_string (mem t) pc (Isa.encode t.which ~at:pc (Minstr.Trap p.pt_src));
      Tbl.replace t.stub_at pc (Sexit p.pt_src))
    (List.sort by_key incoming)

(* No write has landed in the source bytes [e]'s prepare read since
   [me_src_gen], which a clean answer re-stamps. *)
let source_unchanged t e =
  List.for_all
    (Decode_cache.source_unwritten t.src_region ~since:e.me_src_gen)
    (Translator.prepared_spans e.me_prep)
  && begin
    e.me_src_gen <- Mem.generation t.src_region;
    true
  end

(* Write a laid-out unit at [base] and register its exit stubs and
   indirect-call sites, recording their pcs so eviction can drop
   exactly this unit's entries. Only the blit touches guest memory. *)
let install t ~base (unit : Translator.unit_code) =
  Mem.blit_string (mem t) base unit.u_bytes;
  let trap_pcs = ref [] in
  List.iter
    (fun (s : Translator.exit_stub) ->
      let pc = base + s.es_off in
      Tbl.replace t.stub_at pc (Sexit s.es_target_src);
      trap_pcs := pc :: !trap_pcs)
    unit.u_stubs;
  List.iter
    (fun (ic : Translator.icall_site) ->
      let pc = base + ic.is_off in
      Tbl.replace t.stub_at pc (Sicall ic);
      trap_pcs := pc :: !trap_pcs)
    unit.u_icalls;
  Tbl.replace t.block_meta base !trap_pcs

(* The miss path of [translate_unit]: [fs] is the function holding
   [src], if any. A wild [src] still flushes and counts its miss before
   it raises, as a translation of it would. *)
let translate_miss t src fs fc_before =
  let align = if t.cfg.opt_level >= 1 then 64 else 1 in
  if
    t.cfg.cc_policy = Code_cache.Flush
    && not (Code_cache.has_room t.cache ~align ~size:unit_headroom)
  then flush t;
  let compulsory = not (Tbl.mem t.ever_translated src) in
  if compulsory then t.st.compulsory_misses <- t.st.compulsory_misses + 1
  else t.st.capacity_misses <- t.st.capacity_misses + 1;
  if Obs.on t.pr.obs then
    Obs.Metrics.incr (if compulsory then t.pr.c_miss_compulsory else t.pr.c_miss_capacity);
  Tbl.replace t.ever_translated src ();
  let fs = match fs with Some fs -> fs | None -> raise (Wild_target src) in
  let fp = Reloc_map.fingerprint (map_of t fs) in
  let flush_policy = t.cfg.cc_policy = Code_cache.Flush in
  let old = Tbl.find_opt t.memo src in
  let hit =
    match old with
    | Some e when e.me_fp = fp && source_unchanged t e -> old
    | _ -> None
  in
  let prep = match hit with Some e -> e.me_prep | None -> prepare t src in
  (* Retention: fifo/clock memoize every unit, and those entries
     travel. The flush path keeps a unit only once it comes back after
     a flush: keeping first translations too would fill the major heap
     of runs that never flush with entries never hit. A replaced entry
     keeps its predecessor's [me_saved]. A unit that is not kept
     allocates nothing here. *)
  let entry =
    match hit with
    | Some _ -> hit
    | None ->
      let saved = (not flush_policy) || match old with Some e -> e.me_saved | None -> false in
      if saved || not compulsory then begin
        let e =
          {
            me_fp = fp;
            me_prep = prep;
            me_saved = saved;
            me_src_gen = Mem.generation t.src_region;
            me_laid = None;
          }
        in
        Tbl.replace t.memo src e;
        Some e
      end
      else None
  in
  let base, evicted =
    Code_cache.alloc t.cache ~align ~src ~func:fs.fs_name
      ~size:(Translator.prepared_size prep)
      ~src_spans:(Translator.prepared_spans prep) ()
  in
  List.iter (invalidate_block t) evicted;
  (match evicted with
  | [] -> ()
  | _ ->
    let n = List.length evicted in
    t.st.evictions <- t.st.evictions + n;
    charge t (evict_cost *. float_of_int n));
  let laid =
    match entry with
    | Some { me_laid = Some l as laid; _ } when l.la_base = base -> laid
    | Some e ->
      let laid =
        Some
          {
            la_base = base;
            la_unit = Translator.layout prep ~base;
            (* the stamp test keeps no block until the install
               below records its generation *)
            la_gen = max_int;
            la_blocks = [];
          }
      in
      e.me_laid <- laid;
      laid
    | None -> None
  in
  let unit =
    match laid with Some l -> l.la_unit | None -> Translator.layout prep ~base
  in
  install t ~base unit;
  (match laid with
  | Some l ->
    (* the same bytes at the same base: the blocks the last flush
       kept from this layout are valid decodes again *)
    l.la_gen <- Mem.generation t.cache_region;
    (match Machine.decode_cache t.machine t.which with
    | Some dc -> List.iter (Decode_cache.adopt dc) l.la_blocks
    | None -> ());
    l.la_blocks <- []
  | None -> ());
  t.new_units <- src :: t.new_units;
  (* Under flush a memo hit is host-side reuse of a translation the
     model still performs: it is charged, counted and traced as one. *)
  if Option.is_some hit && not flush_policy then begin
    t.st.memo_installs <- t.st.memo_installs + 1;
    if Obs.on t.pr.obs then Obs.Metrics.incr t.pr.c_memo_installs;
    charge t (memo_install_per_instr *. float_of_int unit.u_instrs)
  end
  else begin
    t.st.translations <- t.st.translations + 1;
    t.st.source_instrs <- t.st.source_instrs + unit.u_instrs;
    t.st.emitted_instrs <- t.st.emitted_instrs + unit.u_emitted;
    if Obs.on t.pr.obs then begin
      Obs.Metrics.incr t.pr.c_translations;
      Obs.Metrics.observe t.pr.h_unit_instrs (float_of_int unit.u_instrs)
    end;
    charge t (translate_per_instr *. float_of_int unit.u_instrs)
  end;
  if not compulsory then
    t.st.retranslate_cycles <-
      t.st.retranslate_cycles +. Cpu.cycles_of_fc ((cpu t).perf.Cpu.cycles_fc - fc_before);
  base

(* The [translate] span covers the whole miss path (flush, translate,
   install), so host allocation under it lands in its phase. No span
   opens inside, so entering first changes no span id or parent. A wild
   source opens none; a raise from inside exits it before unwinding. *)
let translate_unit t src =
  match Code_cache.lookup t.cache src with
  | Some cache_addr ->
    if Obs.on t.pr.obs then Obs.Metrics.incr t.pr.c_cache_hits;
    cache_addr
  | None ->
    let fc_before = (cpu t).perf.Cpu.cycles_fc in
    let fs = Fatbin.func_at t.fatbin t.which src in
    let sp =
      match fs with
      | Some fs when (not t.span_quiet) && Obs.on t.pr.obs ->
        Obs.enter_span t.pr.obs ~name:"translate"
          ~attrs:
            [
              ("isa", t.pr.isa);
              ("func", fs.fs_name);
              ("pid", string_of_int (Machine.owner t.machine));
            ]
          ~cycle:(Cpu.cycles_of_fc fc_before) ()
      | _ -> None
    in
    match translate_miss t src fs fc_before with
    | base ->
      Obs.exit_span t.pr.obs sp ~cycle:(Cpu.cycles (cpu t).perf);
      base
    | exception e ->
      Obs.exit_span t.pr.obs sp ~cycle:(Cpu.cycles (cpu t).perf);
      raise e

let enter t src = (cpu t).pc <- translate_unit t src

let patch_stub t ~stub_pc ~target_src ~target_cache =
  let bytes = Isa.encode t.which ~at:stub_pc (Minstr.Jmp target_cache) in
  Mem.blit_string (mem t) stub_pc bytes;
  Tbl.remove t.stub_at stub_pc;
  Tbl.replace t.patches stub_pc { pt_src = target_src; pt_cache = target_cache };
  t.st.patches <- t.st.patches + 1;
  if Obs.on t.pr.obs then Obs.Metrics.incr t.pr.c_patches;
  charge t patch_cost

let has_translation t src = Code_cache.lookup t.cache src <> None

(* Indirect-call/jump handling: validate the runtime target, apply the
   callee's randomized calling convention, maintain the RAT. *)
let resolve_icall t (ic : Translator.icall_site) () =
  let m = mem t in
  let c = cpu t in
  let sp = c.regs.(t.desc.sp) in
  t.st.icalls <- t.st.icalls + 1;
  if Obs.on t.pr.obs then Obs.Metrics.incr t.pr.c_icalls;
  charge t icall_cost;
  let caller_fs =
    match Fatbin.func_at t.fatbin t.which ic.is_src with Some fs -> fs | None -> assert false
  in
  let caller_map = map_of t caller_fs in
  let target = Mem.read32 m (sp + Reloc_map.vm_temp_off caller_map + 16) in
  if Layout.in_cache_region target then Fault "indirect transfer into code cache (SFI)"
  else
    match Fatbin.func_at t.fatbin t.which target with
    | None -> Fault (Printf.sprintf "indirect transfer to wild address 0x%x" target)
    | Some callee_fs ->
      let callee_entry = (Fatbin.image callee_fs t.which).im_entry in
      if ic.is_call && target = callee_entry then begin
        (* legitimate-shaped call: move staged arguments from the
           caller's relocated outgoing slots into the callee's
           randomized argument slots *)
        let callee_map = map_of t callee_fs in
        let fpad = Reloc_map.padded_frame callee_map in
        for j = 0 to ic.is_nargs - 1 do
          let v = Mem.read32 m (sp + Reloc_map.map_slot caller_map (4 * j)) in
          Mem.write32 m (sp - fpad + Reloc_map.arg_off callee_map j) v
        done;
        (* call side effect with the *source* return address *)
        (if t.desc.call_pushes_ret then begin
           c.regs.(t.desc.sp) <- sp - 4;
           Mem.write32 m c.regs.(t.desc.sp) ic.is_src_ret
         end
         else
           match t.desc.lr with
           | Some lr -> c.regs.(lr) <- ic.is_src_ret
           | None -> assert false);
        (* continuation for the eventual return *)
        let cont = translate_unit t ic.is_src_ret in
        Rat.insert (rat t) ~src:ic.is_src_ret ~translated:cont;
        c.pc <- translate_unit t target;
        Continue
      end
      else begin
        (* mid-function target: translate it as a unit (a gadget gets
           relocated like everything else); call side effect still
           happens for a Callr *)
        (if ic.is_call then
           if t.desc.call_pushes_ret then begin
             c.regs.(t.desc.sp) <- sp - 4;
             Mem.write32 m c.regs.(t.desc.sp) ic.is_src_ret
           end
           else
             match t.desc.lr with
             | Some lr -> c.regs.(lr) <- ic.is_src_ret
             | None -> ());
        match translate_unit t target with
        | cache_addr ->
          c.pc <- cache_addr;
          Continue
        | exception Wild_target a -> Fault (Printf.sprintf "wild gadget target 0x%x" a)
      end

let resolve_return t src () =
  match Code_cache.lookup t.cache src with
  | Some cache_addr ->
    if Obs.on t.pr.obs then Obs.Metrics.incr t.pr.c_cache_hits;
    Rat.insert (rat t) ~src ~translated:cache_addr;
    (cpu t).pc <- cache_addr;
    Continue
  | None -> (
    t.st.rat_miss_translated <- t.st.rat_miss_translated + 1;
    match translate_unit t src with
    | cache_addr ->
      Rat.insert (rat t) ~src ~translated:cache_addr;
      (cpu t).pc <- cache_addr;
      Continue
    | exception Wild_target a -> Fault (Printf.sprintf "return to wild address 0x%x" a))

let suspicious_probe t target_src =
  t.st.suspicious <- t.st.suspicious + 1;
  if Obs.on t.pr.obs then begin
    Obs.Metrics.incr t.pr.c_suspicious;
    Obs.audit_emit t.pr.obs ~cycle:(Cpu.cycles (cpu t).perf) ~isa:t.pr.isa
      ~pid:(Machine.owner t.machine)
      (Obs.Audit.Suspicious { target_src })
  end

let on_trap t (trap : Exec.trap) =
  t.st.traps <- t.st.traps + 1;
  if Obs.on t.pr.obs then Obs.Metrics.incr t.pr.c_traps;
  charge t trap_overhead;
  match trap with
  | Exec.Exit code -> Benign (Exit code)
  | Exec.Shell -> Benign (Fault "shell")
  | Exec.Fault f -> Benign (Fault (Exec.string_of_trap (Exec.Fault f)))
  | Exec.Trap_stub _ -> (
    let pc = (cpu t).pc in
    match Tbl.find_opt t.stub_at pc with
    | Some (Sexit target_src) -> (
      (* direct control flow: never suspicious *)
      match translate_unit t target_src with
      | cache_addr ->
        (* the translation may have flushed the cache or evicted the
           stub's own unit; patch only if these bytes still hold a
           trap for this exact target — anything else now occupying
           them would be corrupted by the write *)
        (match Tbl.find_opt t.stub_at pc with
        | Some (Sexit s) when s = target_src ->
          patch_stub t ~stub_pc:pc ~target_src ~target_cache:cache_addr
        | _ -> ());
        (cpu t).pc <- cache_addr;
        Benign Continue
      | exception Wild_target a ->
        Benign (Fault (Printf.sprintf "direct jump to wild address 0x%x" a)))
    | Some (Sicall ic) ->
      (* suspicious iff the runtime target misses the code cache *)
      let m = mem t in
      let caller_fs =
        match Fatbin.func_at t.fatbin t.which ic.is_src with
        | Some fs -> fs
        | None -> assert false
      in
      let caller_map = map_of t caller_fs in
      let sp = (cpu t).regs.(t.desc.sp) in
      let target =
        try Mem.read32 m (sp + Reloc_map.vm_temp_off caller_map + 16) with Mem.Fault _ -> -1
      in
      if has_translation t target then Benign (resolve_icall t ic ())
      else begin
        suspicious_probe t target;
        Suspicious
          {
            target_src = target;
            kind =
              Kicall
                { call_src = ic.is_src; src_ret = ic.is_src_ret; nargs = ic.is_nargs; is_call = ic.is_call };
            resolve = resolve_icall t ic;
          }
      end
    | None ->
      (* executing data in the cache region (stale or sprayed):
         treated as a fault *)
      Benign (Fault (Printf.sprintf "unregistered trap at 0x%x" pc)))
  | Exec.Rat_miss src ->
    if src = Layout.exit_sentinel then Benign (Exit (cpu t).regs.(t.desc.ret_reg))
    else if has_translation t src then Benign (resolve_return t src ())
    else begin
      suspicious_probe t src;
      Suspicious { target_src = src; kind = Kreturn; resolve = resolve_return t src }
    end

let pretranslate_quiet t src =
  let before = (cpu t).perf.Cpu.cycles_fc in
  t.span_quiet <- true;
  let ok = match translate_unit t src with _ -> true | exception Wild_target _ -> false in
  t.span_quiet <- false;
  (cpu t).perf.Cpu.cycles_fc <- before;
  ok

(* No span (see [span_quiet]), but a hostprof phase of its own, so a
   pretranslation's host allocation is not charged to [exec]. *)
let pretranslate t src = Obs.hostprof_phase t.pr.obs ~phase:"pretranslate" pretranslate_quiet t src

let complete_call t ~callee_src ~src_ret =
  let c = cpu t in
  let m = mem t in
  (if t.desc.call_pushes_ret then begin
     c.regs.(t.desc.sp) <- c.regs.(t.desc.sp) - 4;
     Mem.write32 m c.regs.(t.desc.sp) src_ret
   end
   else
     match t.desc.lr with
     | Some lr -> c.regs.(lr) <- src_ret
     | None -> assert false);
  let cont = translate_unit t src_ret in
  Rat.insert (rat t) ~src:src_ret ~translated:cont;
  c.pc <- translate_unit t callee_src

let drain_new_units t =
  let units = List.rev t.new_units in
  t.new_units <- [];
  units

(* --- snapshot ------------------------------------------------------ *)
(* What travels: the rng word, a reserved 0 word, the relocation maps
   (live frames hold state at their offsets — these are the one thing
   that MUST be exact), the memo key set, the translation history, the
   code-cache allocator state, the chain-patch records, the un-drained
   unit list and the counters. What does NOT travel: translated bytes,
   stub registrations, block metadata and the hot-register ranking —
   all derived, re-materialized below from the maps + source bytes.
   Re-materialization is cycle-free and observation-free: the
   translation work was already charged when it first happened, and
   the restored run must not re-count it. *)

module Wire = Hipstr_util.Wire
module C = Wire.C

let sorted_keys tbl = List.sort Int.compare (Tbl.fold (fun k _ acc -> k :: acc) tbl [])

(* The first unit whose source bytes the program has written since its
   translation was made: a live unit written since the binary was
   loaded, or a saved memo entry written since the entry was last
   known clean. An image names each by its source address;
   [rematerialize] re-prepares a live unit, and [rebuild_memo] a saved
   entry, from the restored source bytes, which are no longer the
   bytes the translation was made from. The memo case asks the guard
   directly: [source_unchanged] would re-stamp the entry, and a
   checkpoint is a pure read. *)
let rewritten_unit t =
  let written since spans =
    not (List.for_all (Decode_cache.source_unwritten t.src_region ~since) spans)
  in
  match
    List.find_opt
      (fun (b : Code_cache.block) -> written t.loaded_gen b.cb_src_spans)
      (Code_cache.blocks t.cache)
  with
  | Some b -> Some b.cb_src
  | None ->
    Tbl.fold
      (fun src e acc ->
        match acc with
        | Some a when a < src -> acc
        | _ ->
          if e.me_saved && written e.me_src_gen (Translator.prepared_spans e.me_prep) then Some src
          else acc)
      t.memo None

(* Re-run the (pure) translator scan of a unit an image names; a unit
   that leads out of this binary's code comes from a forged image. *)
let reprepare t src =
  match prepare t src with
  | prep -> prep
  | exception Translator.Wild a ->
    Wire.corrupt "unit 0x%x leads to 0x%x, outside this binary's code" src a

(* Rebuild memo entries against the restored maps; the saved
   fingerprint cross-checks that the maps in the image really are the
   maps the memo was built against. *)
let rebuild_memo t keys =
  Tbl.reset t.memo;
  let src_gen = Mem.generation t.src_region in
  List.iter
    (fun (src, fp) ->
      match Fatbin.func_at t.fatbin t.which src with
      | None -> Wire.corrupt "memo entry 0x%x lies in no function of this binary" src
      | Some fs ->
        if Reloc_map.fingerprint (map_of t fs) <> fp then
          Wire.corrupt "memo entry 0x%x disagrees with its relocation map" src;
        Tbl.replace t.memo src
          {
            me_fp = fp;
            me_prep = reprepare t src;
            me_saved = true;
            me_src_gen = src_gen;
            me_laid = None;
          })
    keys

(* Re-encode every live block at its recorded cache address and
   re-register its stubs. Preparation is deterministic given the maps
   and source bytes, so the bytes come out identical to what was
   running at checkpoint time; the size cross-check catches any image
   that lies about either. *)
let rematerialize t =
  Tbl.reset t.stub_at;
  Tbl.reset t.block_meta;
  List.iter
    (fun (b : Code_cache.block) ->
      let prep =
        match Tbl.find t.memo b.cb_src with
        | e -> e.me_prep
        | exception Not_found -> reprepare t b.cb_src
      in
      if Translator.prepared_size prep <> b.cb_size then
        Wire.corrupt "re-materialized unit for 0x%x measures %d bytes, image says %d" b.cb_src
          (Translator.prepared_size prep) b.cb_size;
      install t ~base:b.cb_cache (Translator.layout prep ~base:b.cb_cache))
    (Code_cache.blocks t.cache)

let maps_codec = C.list (C.pair C.str Reloc_map.codec)
let memo_keys = C.list (C.pair C.int C.int)
let ints = C.list C.int

(* The slot of a map generation, which a VM that draws each map once
   does not need; kept, always 0, so the image layout does not change. *)
let reserved = C.int_in ~lo:0 ~hi:0

let patches_codec =
  C.list
    (C.pair C.int
       (C.conv
          (fun (pt_src, pt_cache) -> { pt_src; pt_cache })
          (fun p -> (p.pt_src, p.pt_cache))
          (C.pair C.int C.int)))

(* An image files each map under its function's name, sorted by name.
   Reading resolves the name to the function's key; a map filed under a
   name the binary lacks, or under another name than its own, belongs
   to no function this run could address. *)
let map_key t name m =
  match Fatbin.find_func t.fatbin name with
  | exception Not_found ->
    Wire.corrupt "relocation map for %S: no such function in this binary" name
  | fs ->
    if not (String.equal (Reloc_map.fname m) name) then
      Wire.corrupt "relocation map filed under %S is the map of %S" name (Reloc_map.fname m);
    func_key fs

(* The map/memo/history slice, shared by a full VM image and a
   warm-start memo artifact: the rng, the reserved word, the maps, the
   memo keys and the translation history. Reading it rebuilds the memo
   against the loaded maps. *)
let meta io t =
  Rng.set_state t.rng (Wire.field io "rng" C.i64 (Rng.state t.rng));
  ignore (Wire.field io "reserved" reserved 0);
  Wire.derived io "maps" maps_codec
    (fun () ->
      List.sort
        (fun (a, _) (b, _) -> String.compare a b)
        (Tbl.fold (fun _ m acc -> (Reloc_map.fname m, m) :: acc) t.maps []))
    (fun ms ->
      Tbl.reset t.maps;
      Tbl.reset t.hot;
      List.iter (fun (n, m) -> Tbl.replace t.maps (map_key t n m) m) ms);
  Wire.derived io "memo_keys" memo_keys
    (fun () ->
      List.sort by_key
        (Tbl.fold (fun src e acc -> if e.me_saved then (src, e.me_fp) :: acc else acc) t.memo []))
    (rebuild_memo t);
  Wire.derived io "translated" ints
    (fun () -> sorted_keys t.ever_translated)
    (fun srcs ->
      Tbl.reset t.ever_translated;
      List.iter (fun src -> Tbl.replace t.ever_translated src ()) srcs)

let sync_state io t =
  let io = Wire.section io "PSRVM" in
  meta io t;
  Code_cache.sync io t.cache;
  if Wire.is_reading io then rematerialize t;
  Wire.derived io "patches" patches_codec
    (fun () -> List.sort by_key (Tbl.fold (fun pc p acc -> (pc, p) :: acc) t.patches []))
    (fun ps ->
      Tbl.reset t.patches;
      List.iter
        (fun (pc, (p : patch_rec)) ->
          (match Tbl.find_opt t.stub_at pc with
          | Some (Sexit s) when s = p.pt_src -> ()
          | _ ->
            Wire.corrupt "chain patch at 0x%x does not cover an exit stub for 0x%x" pc p.pt_src);
          (* what [patch_stub] wrote: eviction and flush un-patch every
             jump into a unit they drop *)
          (match Code_cache.find t.cache p.pt_src with
          | Some c when c = p.pt_cache -> ()
          | _ ->
            Wire.corrupt "chain patch at 0x%x jumps to 0x%x, not to the live unit of 0x%x" pc
              p.pt_cache p.pt_src);
          Mem.blit_string (mem t) pc (Isa.encode t.which ~at:pc (Minstr.Jmp p.pt_cache));
          Tbl.remove t.stub_at pc;
          Tbl.replace t.patches pc p)
        ps);
  t.new_units <- Wire.field io "new_units" ints t.new_units;
  let s = t.st in
  s.translations <- Wire.field io "translations" C.int s.translations;
  s.source_instrs <- Wire.field io "source_instrs" C.int s.source_instrs;
  s.emitted_instrs <- Wire.field io "emitted_instrs" C.int s.emitted_instrs;
  s.traps <- Wire.field io "traps" C.int s.traps;
  s.patches <- Wire.field io "patches" C.int s.patches;
  s.rat_miss_translated <- Wire.field io "rat_miss_translated" C.int s.rat_miss_translated;
  s.icalls <- Wire.field io "icalls" C.int s.icalls;
  s.suspicious <- Wire.field io "suspicious" C.int s.suspicious;
  s.compulsory_misses <- Wire.field io "compulsory_misses" C.int s.compulsory_misses;
  s.capacity_misses <- Wire.field io "capacity_misses" C.int s.capacity_misses;
  s.evictions <- Wire.field io "evictions" C.int s.evictions;
  s.memo_installs <- Wire.field io "memo_installs" C.int s.memo_installs;
  s.retranslate_cycles <- Wire.field io "retranslate_cycles" C.float s.retranslate_cycles

(* Warm-start metadata: the map/memo/history slice of the state,
   without any machine coupling — loadable into a *fresh* VM so a new
   run re-installs previously translated units from the memo at
   [memo_install_per_instr] instead of re-translating at
   [translate_per_instr]. *)
let sync_meta io t = meta (Wire.section io "PSRMETA") t

(* Cold-start control: drop the memo but keep the translation history,
   so both arms of a warm/cold comparison classify their misses
   identically (capacity) and differ only in what servicing them
   costs. *)
let forget_memo t = Tbl.reset t.memo
