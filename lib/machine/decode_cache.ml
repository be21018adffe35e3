open Hipstr_isa
module Obs = Hipstr_obs.Obs

(* A predecoded basic block: the instructions starting at [db_start],
   decoded under generation [db_gen] of the watched region containing
   them, up to (and including) the first control transfer. [db_bad]
   marks a block whose decode failed at [db_end] — executing past the
   last instruction faults there, exactly as per-instruction decode
   would have.

   The instructions live in [db_code], flattened into an unboxed int
   array, four words per instruction — {!Packed} meta word, two
   payload words, and the precomputed per-retirement femtocycle
   charge. The flat dispatcher in [Exec.run_cached] retires from it
   without touching a variant block; the per-instruction decode loop
   ([Exec.run_slow]) is its oracle.

   Validity invariant: every byte any cached decode depended on lies
   inside [db_region] between [db_start] and [db_end] plus
   [max_decode_window] bytes of trailing headroom (instructions are
   only admitted when their full encoding fits; a [db_bad] verdict is
   only cached with that headroom in-region). A write anywhere in the
   region bumps its generation, so [db_gen = generation db_region]
   proves freshness with one compare — checked before every
   instruction, which makes cached execution bit-identical to
   per-instruction decode even for code that rewrites itself
   mid-block. On a generation mismatch {!stale} consults the region's
   page stamps ([Mem.span_clean]): if no write actually landed on the
   block's own bytes the block re-stamps [db_gen] and lives on —
   without this, every stub patch the VM writes would flush every
   decoded block of the code-cache region. *)
type block = {
  db_start : int;
  db_code : int array;
      (** packed flat encoding: 4 ints per instruction
          (meta, payload1, payload2, femtocycle charge) *)
  db_end : int;  (** first address past the last decoded instruction *)
  db_bad : bool;  (** decode failed at [db_end] *)
  db_region : Mem.region;
  mutable db_gen : int;
  db_indirect : bool;
      (** terminator is an indirect transfer (register jump/call or
          return): successor links form an inline cache keyed by the
          runtime target pc instead of a fixed direct link *)
  mutable db_succs : succ array;
}

(* A chain link: "control left the owning block for [sc_pc], and the
   block decoded there was [sc_blk]". Validity is entirely
   target-side — the link may be followed iff it was installed under
   the current cache epoch (no wholesale invalidation since) and
   [sc_blk] is not stale (no write in its region since it was
   decoded). Nothing about the owner matters: even a stale owner's
   links are safe, because they only ever name where control goes
   next, never what the owner's bytes were. *)
and succ = { sc_pc : int; sc_blk : block; sc_epoch : int }

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;
  mutable flushes : int;
  mutable chain_follows : int;
  mutable chain_breaks : int;
  mutable chain_patches : int;
  mutable ic_mono_hits : int;
  mutable ic_poly_hits : int;
  mutable ic_misses : int;
}

type counters = {
  cn_hits : Obs.Metrics.counter;
  cn_misses : Obs.Metrics.counter;
  cn_invalidations : Obs.Metrics.counter;
  cn_chain_follows : Obs.Metrics.counter;
  cn_chain_breaks : Obs.Metrics.counter;
  cn_chain_patches : Obs.Metrics.counter;
  cn_ic_mono : Obs.Metrics.counter;
  cn_ic_poly : Obs.Metrics.counter;
  cn_ic_misses : Obs.Metrics.counter;
}

type t = {
  which : Desc.which;
  mem : Mem.t;
  read : int -> int;  (** preallocated reader over [mem] *)
  read_unsafe : int -> int;
      (** bounds-check-free byte reader over the backing arena; only
          handed to the decoder when the whole decode window provably
          lies inside a watched region (see [decode_block]) *)
  blocks : (int, block) Hashtbl.t;
  chained : bool;  (** follow/patch successor links at block boundaries *)
  mutable epoch : int;
      (** bumped by every wholesale invalidation; links recorded under
          an older epoch are dead even though their target block object
          may look fresh *)
  (* Per-retirement femtocycle charges for this ISA's core, baked into
     [db_code] at decode time. Computed through {!Cpu.fc_quotient},
     the same function [Machine.env_of] memoizes for the oracle, so
     both paths charge identical integers. *)
  q1 : int;
  q2 : int;
  qmul : int;
  qdiv : int;
  scratch : int array;
      (** [decode_block]'s staging buffer, [4 * max_block_instrs] ints:
          a block is packed here and copied out once at its final
          length *)
  st : stats;
  dep : stats;
      (** counter values already deposited into [ctrs]; [deposit]
          adds the [st] - [dep] deltas and catches [dep] up, so the
          hot paths above never touch an atomic *)
  obs : Obs.t;
  ctrs : counters;
}

(* Block-size cap: a longer straight-line run simply splits into
   several blocks, so the cap bounds per-entry memory without
   changing semantics. *)
let max_block_instrs = 128

(* Upper bound on the bytes a single decode may inspect (the widest
   CISC form reads 10; RISC reads 12 for Callrat). A [None] verdict
   may have depended on that many bytes, so it is only cached with
   this much in-region headroom. *)
let max_decode_window = 16

(* Entry-count safety valve: execution only ever starts blocks at
   addresses it reaches, so this is far above any real working set;
   a pathological address walk resets the table instead of growing
   without bound. *)
let max_entries = 1 lsl 16

let zero_stats () =
  {
    hits = 0;
    misses = 0;
    invalidations = 0;
    flushes = 0;
    chain_follows = 0;
    chain_breaks = 0;
    chain_patches = 0;
    ic_mono_hits = 0;
    ic_poly_hits = 0;
    ic_misses = 0;
  }

let create ?(obs = Obs.global) ~isa ?(chain = true) which mem =
  (* The four standard code-bearing regions; [Mem.watch] dedupes, so
     the CISC and RISC caches of one machine share region handles. *)
  ignore
    (Mem.watch mem ~lo:Layout.cisc_code_base
       ~hi:(Layout.cisc_code_base + Layout.code_region_size));
  ignore
    (Mem.watch mem ~lo:Layout.risc_code_base
       ~hi:(Layout.risc_code_base + Layout.code_region_size));
  ignore
    (Mem.watch mem ~lo:Layout.cisc_cache_base
       ~hi:(Layout.cisc_cache_base + Layout.cache_region_size));
  ignore
    (Mem.watch mem ~lo:Layout.risc_cache_base
       ~hi:(Layout.risc_cache_base + Layout.cache_region_size));
  let counter ns n = Obs.Metrics.counter (Obs.metrics obs) ("machine." ^ isa ^ "." ^ ns ^ "." ^ n) in
  let core = Core_desc.for_isa which in
  {
    which;
    mem;
    read = Mem.reader mem;
    read_unsafe = (fun a -> Mem.unsafe_read8 mem a);
    blocks = Hashtbl.create 1024;
    chained = chain;
    epoch = 0;
    q1 = Cpu.fc_quotient ~lat:1 ~throughput:core.throughput;
    q2 = Cpu.fc_quotient ~lat:2 ~throughput:core.throughput;
    qmul = Cpu.fc_quotient ~lat:core.mul_latency ~throughput:core.throughput;
    qdiv = Cpu.fc_quotient ~lat:core.div_latency ~throughput:core.throughput;
    scratch = Array.make (4 * max_block_instrs) 0;
    st = zero_stats ();
    dep = zero_stats ();
    obs;
    ctrs =
      {
        cn_hits = counter "decode_cache" "hits";
        cn_misses = counter "decode_cache" "misses";
        cn_invalidations = counter "decode_cache" "invalidations";
        cn_chain_follows = counter "chain" "follows";
        cn_chain_breaks = counter "chain" "breaks";
        cn_chain_patches = counter "chain" "patches";
        cn_ic_mono = counter "ic" "mono_hits";
        cn_ic_poly = counter "ic" "poly_hits";
        cn_ic_misses = counter "ic" "misses";
      };
  }

let stats t = t.st
let chained t = t.chained
let epoch t = t.epoch

(* Deposit the counter deltas accumulated (in plain mutable ints)
   since the last deposit. Called at run exit and after wholesale
   invalidations — i.e. before any point where the metrics registry
   can be exported — so exported values are identical to what
   per-event increments would have produced, without the hot paths
   ever touching an atomic. *)
let deposit t =
  let st = t.st and d = t.dep and c = t.ctrs in
  Obs.Metrics.add c.cn_hits (st.hits - d.hits);
  d.hits <- st.hits;
  Obs.Metrics.add c.cn_misses (st.misses - d.misses);
  d.misses <- st.misses;
  Obs.Metrics.add c.cn_invalidations (st.invalidations - d.invalidations);
  d.invalidations <- st.invalidations;
  Obs.Metrics.add c.cn_chain_follows (st.chain_follows - d.chain_follows);
  d.chain_follows <- st.chain_follows;
  Obs.Metrics.add c.cn_chain_breaks (st.chain_breaks - d.chain_breaks);
  d.chain_breaks <- st.chain_breaks;
  Obs.Metrics.add c.cn_chain_patches (st.chain_patches - d.chain_patches);
  d.chain_patches <- st.chain_patches;
  Obs.Metrics.add c.cn_ic_mono (st.ic_mono_hits - d.ic_mono_hits);
  d.ic_mono_hits <- st.ic_mono_hits;
  Obs.Metrics.add c.cn_ic_poly (st.ic_poly_hits - d.ic_poly_hits);
  d.ic_poly_hits <- st.ic_poly_hits;
  Obs.Metrics.add c.cn_ic_misses (st.ic_misses - d.ic_misses);
  d.ic_misses <- st.ic_misses

(* Slow path, reached only on a generation mismatch: survive if the
   block's own bytes (decode span plus trailing headroom) are
   untouched; the re-stamp restores the fast path until the region's
   next write. ([span_clean] never moves the region generation, so
   re-reading it here sees the same value the caller compared.) *)
let stale_slow b =
  if
    Mem.span_clean b.db_region ~lo:b.db_start ~hi:(b.db_end + max_decode_window)
      ~since:b.db_gen
  then begin
    b.db_gen <- Mem.generation b.db_region;
    false
  end
  else true

(* Fast path: one compare, [@inline] so the per-instruction staleness
   check in the dispatch loops is two loads and a branch rather than a
   cross-module call. *)
let[@inline] stale b = Mem.generation b.db_region <> b.db_gen && stale_slow b

let is_terminator (i : Minstr.t) =
  match i with
  | Jmp _ | Jcc _ | Jmpr _ | Call _ | Callr _ | Ret | Retr _ | Retrat _ | Callrat _ | Trap _ ->
    true
  | Nop | Mov _ | Lea _ | Binop _ | Cmp _ | Push _ | Pop _ | Syscall -> false

(* Indirect terminators: the successor pc depends on runtime state
   (register, stack or RAT contents), so a single direct link cannot
   name it — these blocks carry an inline cache instead. [Callrat] is
   direct: its transfer target is baked into the encoding. *)
let is_indirect_terminator (i : Minstr.t) =
  match i with
  | Jmpr _ | Callr _ | Ret | Retr _ | Retrat _ -> true
  | Jmp _ | Jcc _ | Call _ | Callrat _ | Trap _ -> false
  | Nop | Mov _ | Lea _ | Binop _ | Cmp _ | Push _ | Pop _ | Syscall -> false

let decode_with t ~read addr =
  match t.which with
  | Desc.Cisc -> Hipstr_cisc.Isa.decode ~read addr
  | Desc.Risc -> Hipstr_risc.Isa.decode ~read addr

(* The per-retirement charge the execution engine levies for [i],
   in femtocycles — must mirror [Exec]'s charge selection exactly
   (Syscall and Trap charge nothing at retirement: the syscall fee
   is levied inside the handler, a trap stops before charging). *)
let charge_fc t (i : Minstr.t) =
  match i with
  | Syscall | Trap _ -> 0
  | Binop (Mul, _, _) -> t.qmul
  | Binop ((Divs | Rems), _, _) -> t.qdiv
  | Call _ | Callr _ | Ret | Retr _ | Retrat _ | Callrat _ -> t.q2
  | Nop | Mov _ | Lea _ | Binop _ | Cmp _ | Push _ | Pop _ | Jmp _ | Jcc _ | Jmpr _ -> t.q1

(* Decode a block starting at [start] inside [region]. Returns [None]
   when nothing cacheable could be formed (first instruction does not
   fit the region, or an uncacheable [None] verdict right at the
   start) — the interpreter falls back to single-stepping. Each
   instruction is packed straight into [t.scratch]; the block's
   [db_code] is one copy of the used prefix. *)
let decode_block t region start =
  let hi = Mem.region_hi region in
  let gen = Mem.generation region in
  let code = t.scratch in
  let count = ref 0 in
  let pos = ref start in
  let bad = ref false in
  let indirect = ref false in
  let stop = ref false in
  while not !stop do
    if !count >= max_block_instrs then stop := true
    else begin
      (* Block-local sequential fetch: while the whole decode window
         fits under the region top it also fits the arena ([watch]
         checked the region bounds at registration), so the per-byte
         bounds test in [probe8] is provably redundant and the
         unchecked reader is sound. Near the region edge, fall back
         to the checked reader, whose out-of-range contract ([-1],
         i.e. 0xFF bytes) the decoders rely on. *)
      let read = if !pos + max_decode_window <= hi then t.read_unsafe else t.read in
      match decode_with t ~read !pos with
      | None ->
        (* cache the bad verdict only when every byte the decoder may
           have looked at is inside the region *)
        if !pos + max_decode_window <= hi then bad := true;
        stop := true
      | Some (i, len) ->
        if !pos + len > hi then stop := true (* encoding crosses the region edge *)
        else begin
          let j = 4 * !count in
          let m, v1, v2 = Packed.pack i len in
          code.(j) <- m;
          code.(j + 1) <- v1;
          code.(j + 2) <- v2;
          code.(j + 3) <- charge_fc t i;
          incr count;
          pos := !pos + len;
          if is_terminator i then begin
            indirect := is_indirect_terminator i;
            stop := true
          end
        end
    end
  done;
  if !count = 0 && not !bad then None
  else
    Some
      {
        db_start = start;
        db_code = Array.sub code 0 (4 * !count);
        db_end = !pos;
        db_bad = !bad;
        db_region = region;
        db_gen = gen;
        db_indirect = !indirect;
        db_succs = [||];
      }

(* Decode-and-install slow path of [find].
   @raise Not_found when the address is not cacheable. *)
let decode_install t addr =
  match Mem.region_of t.mem addr with
  | None -> raise Not_found
  | Some region -> (
    match decode_block t region addr with
    | None -> raise Not_found
    | Some b ->
      if Hashtbl.length t.blocks >= max_entries then begin
        Hashtbl.reset t.blocks;
        (* the reset unroots every block, so kill chain links into
           them too instead of letting them pin the old table alive *)
        t.epoch <- t.epoch + 1
      end;
      Hashtbl.replace t.blocks addr b;
      t.st.misses <- t.st.misses + 1;
      b)

(* Find (or decode and install) the block starting at [addr] —
   the dispatcher's allocation-free probe. Hits are generation-checked
   here; a stale entry is dropped and re-decoded under the current
   generation.
   @raise Not_found when the address is not cacheable — not inside a
   watched region, or no cacheable block forms there — and the caller
   must fall back to plain single-step execution. *)
let find t addr =
  match Hashtbl.find t.blocks addr with
  | b ->
    if not (stale b) then begin
      t.st.hits <- t.st.hits + 1;
      b
    end
    else begin
      Hashtbl.remove t.blocks addr;
      t.st.invalidations <- t.st.invalidations + 1;
      decode_install t addr
    end
  | exception Not_found -> decode_install t addr

let lookup t addr = match find t addr with b -> Some b | exception Not_found -> None

(* Drop one stale block (the interpreter noticed a mid-block
   generation change). *)
let drop t (b : block) =
  if Hashtbl.mem t.blocks b.db_start then begin
    Hashtbl.remove t.blocks b.db_start;
    t.st.invalidations <- t.st.invalidations + 1
  end

(* Wholesale invalidation: context-switch flushes, relocation-map
   renewal and code-cache flushes all call this. Generations already
   make every write safe; dropping the table additionally models the
   cold-start and frees memory eagerly. Callers outside a run (the
   machine's flush paths) follow up with [deposit] so the batched
   invalidation counts are visible to the next export. *)
let invalidate_all t =
  let n = Hashtbl.length t.blocks in
  if n > 0 then begin
    Hashtbl.reset t.blocks;
    t.st.invalidations <- t.st.invalidations + n
  end;
  (* Epoch bump: every link installed before this point dies at its
     next probe, even when its target block object still looks fresh
     (generations only advance on writes; a flush is not a write). *)
  t.epoch <- t.epoch + 1;
  t.st.flushes <- t.st.flushes + 1

let entries t = Hashtbl.length t.blocks

(* ------------------------------------------------------------------ *)
(* Block chaining and indirect-branch inline caches.

   A direct-terminator block holds at most [max_direct_succs] links
   (a conditional branch has exactly two possible successors; every
   other direct terminator has one). An indirect-terminator block's
   links form an inline cache keyed by the runtime target pc:
   monomorphic at one entry, polymorphic up to [max_ic_succs], and
   megamorphic beyond that — it stops patching and every arrival
   takes the dispatcher's table probe, which is the semantic
   fallback at all times anyway. *)

let max_direct_succs = 2
let max_ic_succs = 4

let remove_succ (b : block) i =
  let s = b.db_succs in
  let n = Array.length s in
  if n <= 1 then b.db_succs <- [||]
  else begin
    let s' = Array.make (n - 1) s.(0) in
    Array.blit s 0 s' 0 i;
    Array.blit s (i + 1) s' i (n - 1 - i);
    b.db_succs <- s'
  end

(* The link scan behind [follow_idx]: a top-level function (a local
   [let rec] would allocate a closure per block dispatch). Returns
   the index of a followable link in [succs], or [-1]; stats are
   bumped exactly as the option-returning [follow] always did. *)
let rec follow_scan t (b : block) succs n pc i =
  if i >= n then begin
    if b.db_indirect then t.st.ic_misses <- t.st.ic_misses + 1;
    -1
  end
  else
    let s = Array.unsafe_get succs i in
    if s.sc_pc <> pc then follow_scan t b succs n pc (i + 1)
    else if s.sc_epoch = t.epoch && not (stale s.sc_blk) then begin
      (if b.db_indirect then
         if n = 1 then t.st.ic_mono_hits <- t.st.ic_mono_hits + 1
         else t.st.ic_poly_hits <- t.st.ic_poly_hits + 1
       else t.st.chain_follows <- t.st.chain_follows + 1);
      i
    end
    else begin
      remove_succ b i;
      t.st.chain_breaks <- t.st.chain_breaks + 1;
      if b.db_indirect then t.st.ic_misses <- t.st.ic_misses + 1;
      -1
    end

(* Probe [b]'s link for [pc]; the index form the dispatcher uses
   (the target block is [b.db_succs.(i).sc_blk]). A matching entry is
   followable iff its epoch is current and its target is fresh (see
   [succ]); a dead entry is severed on sight so it cannot pin a
   dropped block, and the caller falls back to [find] (which
   re-decodes and then [patch]es the new block back in). *)
let follow_idx t (b : block) pc =
  if not t.chained then -1
  else
    let succs = b.db_succs in
    follow_scan t b succs (Array.length succs) pc 0

let follow t (b : block) pc =
  let i = follow_idx t b pc in
  if i < 0 then None else Some (Array.unsafe_get b.db_succs i).sc_blk

(* Install [pred] --[pc]--> [b] after a follow miss. Dead entries are
   pruned first. A full direct set replaces its oldest slot (only
   reachable when [pred] went stale mid-trace, since a fresh block
   has at most two possible successors); a full IC goes megamorphic
   and stops patching. A stale [pred] is never patched — it is about
   to be dropped, and patching it would only delay collection. *)
let patch t (pred : block) ~pc (b : block) =
  if t.chained && not (stale pred) then begin
    let epoch = t.epoch in
    let live =
      Array.to_list pred.db_succs
      |> List.filter (fun s -> s.sc_epoch = epoch && (not (stale s.sc_blk)) && s.sc_pc <> pc)
    in
    let cap = if pred.db_indirect then max_ic_succs else max_direct_succs in
    let installed =
      let entry = { sc_pc = pc; sc_blk = b; sc_epoch = epoch } in
      if List.length live < cap then begin
        pred.db_succs <- Array.of_list (live @ [ entry ]);
        true
      end
      else if not pred.db_indirect then begin
        pred.db_succs <- Array.of_list (List.tl live @ [ entry ]);
        true
      end
      else begin
        (* megamorphic: keep the live entries, refuse the new one *)
        pred.db_succs <- Array.of_list live;
        false
      end
    in
    if installed then t.st.chain_patches <- t.st.chain_patches + 1
  end
