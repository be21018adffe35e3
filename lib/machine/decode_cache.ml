open Hipstr_isa
module Tbl = Layout.Int_tbl

(* A predecoded basic block: the instructions starting at [db_start],
   decoded under generation [db_gen] of the watched region containing
   them, up to (and including) the first control transfer, or up to a
   VM exit's [Trap], which starts a block of its own. [db_bad]
   marks a block whose decode failed at [db_end] — executing past the
   last instruction faults there, exactly as per-instruction decode
   would have.

   The instructions live in [db_code], flattened into an unboxed int
   array, four words per instruction — {!Packed} meta word, two
   payload words, and the precomputed per-retirement femtocycle
   charge. The flat dispatcher in [Exec.run_cached] retires from it
   without touching a variant block; the per-instruction decode loop
   ([Exec.run_slow]) is its oracle.

   Validity invariant: a block stands for its bytes while its guard,
   the bytes its decode read, still holds them. This module alone
   decides which bytes those are ([guard_end], [source_unwritten]) and
   keeps a copy of a block's in [db_bytes]; [Mem] answers whether
   they were written, and whether a write changed them. Instructions
   are only admitted when their full encoding fits the region, and a
   successful decode reads only its own bytes (the decoders' locality,
   pinned in test_isa), so a block's guard is [db_start, db_end)
   exactly. A
   [db_bad] verdict may have read [max_decode_window] bytes from
   [db_end], so a bad block's guard runs that far, and the verdict is
   only cached with that much headroom in the region. Where a block
   stops without a bad verdict (a terminator, an exit [Trap], the size
   cap, the region edge) decides only where the dispatcher probes
   next, not what any instruction does, so the bytes past it are no
   part of the guard. A write anywhere in the region bumps its
   generation, so [db_gen = generation db_region] proves freshness
   with one compare — checked before every instruction, which makes
   cached execution bit-identical to per-instruction decode even for
   code that rewrites itself mid-block. On a generation mismatch
   {!stale} asks [Mem.unwritten] about the guard's page stamps first,
   then, if a write landed on them, compares memory with [db_bytes]
   ([Mem.holds]): if the guard still holds its bytes the block
   re-stamps [db_gen] and lives on. Without the stamps every stub
   patch the VM writes would flush every decoded block of the
   code-cache region; without the compare, every block sharing a
   64-byte stamp page with a patched stub, or rewritten with its own
   bytes, would be decoded again. *)
type block = {
  db_start : int;
  db_code : int array;
      (** packed flat encoding: 4 ints per instruction
          (meta, payload1, payload2, femtocycle charge) *)
  db_end : int;  (** first address past the last decoded instruction *)
  db_bad : bool;  (** decode failed at [db_end] *)
  db_bytes : string;
      (** the block's guard, [db_start, db_start + length db_bytes):
          the bytes its decode read, as it read them *)
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

type t = {
  which : Desc.which;
  mem : Mem.t;
  read : int -> int;  (** preallocated reader over [mem] *)
  read_unsafe : int -> int;
      (** bounds-check-free byte reader over the backing arena; only
          handed to the decoder when the whole decode window provably
          lies inside a watched region (see [decode_block]) *)
  blocks : block Tbl.t;
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
      (** host statistics, in plain ints: they are the cache's own and
          never reach an observability registry *)
}

(* Block-size cap: a longer straight-line run simply splits into
   several blocks, so the cap bounds per-entry memory without
   changing semantics. *)
let max_block_instrs = 128

(* Upper bound on the bytes a single decode may inspect (the widest
   CISC form reads 10; RISC reads 12 for Callrat). A [None] verdict
   may have depended on that many bytes, so it is only cached with
   this much in-region headroom, and it is part of the guard of a
   [db_bad] block and of every translation's source span. *)
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

let zero (s : stats) =
  s.hits <- 0;
  s.misses <- 0;
  s.invalidations <- 0;
  s.flushes <- 0;
  s.chain_follows <- 0;
  s.chain_breaks <- 0;
  s.chain_patches <- 0;
  s.ic_mono_hits <- 0;
  s.ic_poly_hits <- 0;
  s.ic_misses <- 0

(* Empty, at epoch 0, with every count at 0. [create] allocates and
   then resets. *)
let reset t =
  Tbl.reset t.blocks;
  t.epoch <- 0;
  zero t.st

let create which mem =
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
  let core = Core_desc.for_isa which in
  let t =
    {
      which;
      mem;
      read = Mem.reader mem;
      read_unsafe = (fun a -> Mem.unsafe_read8 mem a);
      blocks = Tbl.create 16;
      epoch = 0;
      q1 = Cpu.fc_quotient ~lat:1 ~throughput:core.throughput;
      q2 = Cpu.fc_quotient ~lat:2 ~throughput:core.throughput;
      qmul = Cpu.fc_quotient ~lat:core.mul_latency ~throughput:core.throughput;
      qdiv = Cpu.fc_quotient ~lat:core.div_latency ~throughput:core.throughput;
      scratch = Array.make (4 * max_block_instrs) 0;
      st = zero_stats ();
    }
  in
  reset t;
  t

let stats t = t.st
let epoch t = t.epoch

(* The end of the guard of a block decoded up to [db_end]: its own
   instructions, and the look-ahead window past them only when the
   decode failed there. [decode_block] copies the guard's bytes into
   [db_bytes], so a block's guard is [db_start, guard_hi b). *)
let guard_end ~bad db_end = if bad then db_end + max_decode_window else db_end
let guard_hi b = b.db_start + String.length b.db_bytes

(* The bytes a translation's scan of the source span [lo, lo + len)
   read: the span, and the window past it, since the scan may stop at
   bytes it cannot decode there. *)
let source_unwritten r ~since (lo, len) =
  Mem.unwritten r ~lo ~hi:(lo + len + max_decode_window) ~since

(* Slow path, reached only on a generation mismatch: survive if the
   guard's write stamps say no write landed on it or, when one did, if
   memory there still holds the bytes the decode read; the re-stamp
   restores the fast path until the region's next write. (Neither check
   moves the region generation, so re-reading it here sees the same
   value the caller compared.) Out of line: the dispatch loop inlines
   only [stale]'s compare. *)
let[@inline never] stale_slow b =
  let r = b.db_region in
  if
    Mem.unwritten r ~lo:b.db_start ~hi:(guard_hi b) ~since:b.db_gen
    || Mem.holds r b.db_start b.db_bytes
  then begin
    b.db_gen <- Mem.generation r;
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

(* A VM exit: the PSR VM chain-patches an exit stub's [Trap] into a
   jump the first time the stub runs, so [decode_block] gives each Trap
   a block of its own (see there). *)
let is_trap (i : Minstr.t) =
  match i with
  | Trap _ -> true
  | Jmp _ | Jcc _ | Jmpr _ | Call _ | Callr _ | Ret | Retr _ | Retrat _ | Callrat _ -> false
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
   [db_code] is one copy of the used prefix, and [db_bytes] a copy of
   its guard.

   Exits start their own block: the decode stops before a [Trap] that
   is not the block's first instruction. The VM's chain patch then
   rewrites a one-instruction block, and the body block in front of
   the stub keeps its bytes and stays valid. Like the size cap, this
   decides only where the dispatcher probes next: the Trap's bytes are
   no part of the body block's guard. *)
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
      match Isa.decode t.which ~read !pos with
      | None ->
        (* cache the bad verdict only when every byte the decoder may
           have looked at is inside the region *)
        if !pos + max_decode_window <= hi then bad := true;
        stop := true
      | Some (i, len) ->
        if !pos + len > hi then stop := true (* encoding crosses the region edge *)
        else if !count > 0 && is_trap i then stop := true (* an exit starts its own block *)
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
        db_bytes = Mem.read_string t.mem start (guard_end ~bad:!bad !pos - start);
        db_region = region;
        db_gen = gen;
        db_indirect = !indirect;
        db_succs = [||];
      }

let install t (b : block) =
  if Tbl.length t.blocks >= max_entries then begin
    Tbl.reset t.blocks;
    (* the reset unroots every block, so kill chain links into
       them too instead of letting them pin the old table alive *)
    t.epoch <- t.epoch + 1
  end;
  Tbl.replace t.blocks b.db_start b

(* Decode-and-install slow path of [find].
   @raise Not_found when the address is not cacheable. *)
let decode_install t addr =
  match Mem.region_of t.mem addr with
  | None -> raise Not_found
  | Some region -> (
    match decode_block t region addr with
    | None -> raise Not_found
    | Some b ->
      install t b;
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
  match Tbl.find t.blocks addr with
  | b ->
    if not (stale b) then begin
      t.st.hits <- t.st.hits + 1;
      b
    end
    else begin
      Tbl.remove t.blocks addr;
      t.st.invalidations <- t.st.invalidations + 1;
      decode_install t addr
    end
  | exception Not_found -> decode_install t addr

(* Drop one stale block (the interpreter noticed a mid-block
   generation change). *)
let drop t (b : block) =
  if Tbl.mem t.blocks b.db_start then begin
    Tbl.remove t.blocks b.db_start;
    t.st.invalidations <- t.st.invalidations + 1
  end

(* Wholesale invalidation: context-switch flushes and code-cache
   flushes call this. Generations already make every write safe;
   dropping the table frees the blocks eagerly and kills their chain
   links (the epoch bump below). It changes host time only: the decode
   cache charges no guest cycles. The table starts at 16 buckets and
   grows on demand, so the reset costs what the table held rather than
   a fixed 1024-bucket fill. *)
let invalidate_all t =
  let n = Tbl.length t.blocks in
  if n > 0 then begin
    Tbl.reset t.blocks;
    t.st.invalidations <- t.st.invalidations + n
  end;
  (* Epoch bump: every link installed before this point dies at its
     next probe, even when its target block object still looks fresh
     (generations only advance on writes; a flush is not a write). *)
  t.epoch <- t.epoch + 1;
  t.st.flushes <- t.st.flushes + 1

let entries t = Tbl.length t.blocks

let by_start a b = compare a.db_start b.db_start
let blocks t = List.sort by_start (Tbl.fold (fun _ b acc -> b :: acc) t.blocks [])

(* ------------------------------------------------------------------ *)
(* Kept blocks: decoded blocks that outlive a wholesale invalidation.

   The PSR VM re-installs a memo-served unit after a code-cache flush
   by blitting exactly the bytes it blitted before, at the same base.
   A block decoded from those bytes is then still a valid decode, so
   the VM takes it out of the table before the flush ([keepable]) and
   puts it back after the re-install ([adopt]) instead of decoding
   again.

   A block qualifies when its guard lies inside the unit's bytes
   [bytes], laid at [base], so that the re-install writes back every
   byte its decode read, and when those are the bytes it was decoded
   from. Stamps first: [db_gen >= since] proves the block was decoded
   (or re-proven clean) after the blit at generation [since], and
   [Mem.unwritten] that no write has landed on its guard since — a
   chain patch, an eviction's restored Trap, or a guest store. When a
   write did land there, [db_bytes] is compared with the unit's bytes
   at the block's offset: a block dirtied by a write that left its
   bytes as they were, or decoded before the blit from the same bytes,
   is as valid after the re-install as one the stamps vouch for. *)
let rec same_bytes s u off i n =
  i >= n || (String.unsafe_get s i = String.unsafe_get u (off + i) && same_bytes s u off (i + 1) n)

let keepable b ~base ~bytes ~since =
  let off = b.db_start - base and n = String.length b.db_bytes in
  off >= 0
  && off + n <= String.length bytes
  && ((b.db_gen >= since && Mem.unwritten b.db_region ~lo:b.db_start ~hi:(b.db_start + n) ~since)
     || same_bytes b.db_bytes bytes off 0 n)

(* Re-install a kept block after its bytes were blitted back: fresh
   under the current generation, with no chain links (every link it
   held died with the flush's epoch bump). Counted as neither a hit
   nor a miss; the dispatcher's next probe of it is a hit. *)
let adopt t (b : block) =
  b.db_gen <- Mem.generation b.db_region;
  b.db_succs <- [||];
  install t b

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
   the index of a followable link in [succs], or [-1], and bumps the
   chain and inline-cache statistics. *)
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

(* Probe [b]'s links for [pc]: the index [i] of a followable link
   (the target block is [b.db_succs.(i).sc_blk]), or [-1]. A matching
   entry is followable iff its epoch is current and its target is
   fresh (see [succ]); a dead entry is severed on sight so it cannot
   pin a dropped block, and the caller falls back to [find] (which
   re-decodes and then [patch]es the new block back in). *)
let follow_idx t (b : block) pc =
  let succs = b.db_succs in
  follow_scan t b succs (Array.length succs) pc 0

(* Install [pred] --[pc]--> [b] after a follow miss. Dead entries are
   pruned first. A full direct set replaces its oldest slot (only
   reachable when [pred] went stale mid-trace, since a fresh block
   has at most two possible successors); a full IC goes megamorphic
   and stops patching. A stale [pred] is never patched — it is about
   to be dropped, and patching it would only delay collection. *)
let patch t (pred : block) ~pc (b : block) =
  if not (stale pred) then begin
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
