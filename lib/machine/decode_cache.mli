(** Per-ISA cache of predecoded basic blocks.

    Every simulated instruction used to be re-decoded from raw bytes
    on every execution; hot loops decode the same handful of blocks
    millions of times. This cache decodes a basic block once — from
    its start address up to the first control transfer, or up to a VM
    exit ([Trap]), which starts a block of its own — into a packed int
    array ({!Packed}) that the interpreter re-dispatches on every
    revisit.

    Correctness under self-modifying code rests on {!Mem.watch}
    generations: a block records the generation of the watched region
    its bytes live in, and {!stale} is a single integer compare the
    interpreter performs before every cached instruction. Any write
    into the region — a PSR translation installed into the code
    cache, a chained-jump patch, eviction restoring trap bytes, an
    attack payload rewriting code — bumps the generation, and the
    block then lives on only if its guard, the bytes its decode read,
    still holds them: the guard's write stamps say no write landed on
    it, or a byte compare against the copy the block keeps
    ([db_bytes]) finds them unchanged ({!stale}). Addresses outside any
    watched region (stack or heap execution by wild gadget chains) are
    never cached and fall back to per-instruction decode.

    The cache is pure simulator-side memoization: it charges no
    cycles, touches no modelled structure, and produces bit-identical
    architectural and timing results to the uncached interpreter.

    {2 The guard}

    This module alone decides which bytes a decode read.
    {!Mem.unwritten} decides whether they were written since, and for a
    decoded block, whose bytes it keeps, {!Mem.holds} whether a write
    that landed there changed them. A successful decode reads only its
    own bytes, so a block's guard is [\[db_start, db_end)]; a [db_bad]
    block's guard runs {!max_decode_window} bytes further, over what
    its failed decode read. Where a block stops otherwise (a
    terminator, an exit [Trap], the size cap, the region edge) decides
    only where the dispatcher probes next, so the bytes past it are no
    part of the guard. A PSR translation's source span always carries
    the window ({!source_unwritten}), since its scan may stop at
    undecodable bytes. Every "are these still the bytes we read?"
    question — a block's staleness, a kept block's survival of a
    flush, a translation memo hit, the binary's decoded code standing
    in for memory, a checkpoint's refusal — is answered by these.

    {2 Chaining}

    Blocks additionally carry successor links so hot traces run
    block-to-block without the dispatcher's hashtable probe: a
    direct-terminator block holds up to two links (taken /
    fall-through), an indirect-terminator block a small inline cache
    keyed by runtime target pc (monomorphic → polymorphic → megamorphic,
    at which point it stops patching). A link is followable iff it was
    installed under the current cache {!epoch} (bumped by every
    {!invalidate_all}) and its target block is not {!stale}; both are
    integer compares, and link maintenance is as model-invisible as the
    cache itself. *)

type block = {
  db_start : int;
  db_code : int array;
      (** packed flat encoding, 4 ints per instruction: {!Packed}
          meta word, two payload words, and the precomputed
          femtocycle retirement charge — what the flat dispatcher
          executes *)
  db_end : int;  (** first address past the last decoded instruction *)
  db_bad : bool;
      (** decode fails at [db_end]: executing past the last
          instruction is a bad fetch there *)
  db_bytes : string;
      (** the guard's bytes as the decode read them: the block is a
          decode of exactly these at [db_start], and its guard is
          [\[db_start, db_start + length db_bytes)] *)
  db_region : Mem.region;
  mutable db_gen : int;
      (** region generation the block's bytes are known valid under —
          re-stamped by {!stale} when a generation bump proves to have
          left the guard's bytes as they were *)
  db_indirect : bool;
      (** terminator is an indirect transfer: links form an inline
          cache rather than a direct successor pair *)
  mutable db_succs : succ array;  (** chain links, owned by {!follow_idx}/{!patch} *)
}

and succ = { sc_pc : int; sc_blk : block; sc_epoch : int }
(** A chain link: control left the owner for [sc_pc], where [sc_blk]
    was decoded. Valid iff [sc_epoch] is the cache's current epoch and
    [sc_blk] is not stale — validity is entirely target-side. *)

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;
  mutable flushes : int;  (** wholesale {!invalidate_all} calls *)
  mutable chain_follows : int;  (** direct links followed *)
  mutable chain_breaks : int;  (** dead links severed at probe time *)
  mutable chain_patches : int;  (** links installed (direct and IC) *)
  mutable ic_mono_hits : int;  (** IC hits while the cache held one entry *)
  mutable ic_poly_hits : int;  (** IC hits while the cache held several *)
  mutable ic_misses : int;  (** IC probes that fell back to {!find} *)
}

type t

val max_decode_window : int
(** Upper bound on the bytes one instruction decode may inspect, past
    its start address, on either ISA: what a failed decode may have
    read, and so the part of a guard past a [db_bad] block's end or a
    source span's end. *)

val create : Hipstr_isa.Desc.which -> Mem.t -> t
(** Create a cache for one ISA over one memory, watching the four
    standard code-bearing regions (both code sections and both
    code-cache regions; {!Mem.watch} dedupes across ISAs). *)

val reset : t -> unit
(** Back to the state {!create} returns: no blocks, epoch 0, every
    statistic 0. *)

val find : t -> int -> block
(** The block starting at an address: a fresh cached entry (hit), or
    a freshly decoded and installed one (miss) — the allocation-free
    probe the dispatcher uses.
    @raise Not_found when the address is not cacheable — outside every
    watched region, or no cacheable block forms there — and the caller
    must single-step. *)

val stale : block -> bool
(** The block's guard may no longer hold the bytes its decode read.
    Checked by the interpreter before every cached instruction, so the
    fast path is one integer compare against the region generation,
    inlined into the dispatch loop. On a mismatch an out-of-line slow
    path asks {!Mem.unwritten} about the guard's write stamps and, when
    they say written, compares memory with [db_bytes] ({!Mem.holds});
    [db_gen] is re-stamped if the write landed elsewhere in the region
    or left the guard's bytes as they were — a stub patch beside the
    block, or a store of the value a byte already held, does not cost
    a decode. *)

val source_unwritten : Mem.region -> since:int -> int * int -> bool
(** [source_unwritten r ~since (lo, len)]: no write has landed since
    generation [since] of [r] on the bytes a translation's scan of
    [\[lo, lo + len)] may have read, the span plus
    {!max_decode_window} bytes past it; false when those bytes leave
    [r] ({!Mem.unwritten}). The PSR VM's guard for the binary's
    decoded code, its memo hits and its checkpoint refusal. *)

val drop : t -> block -> unit
(** Remove one (stale) block. *)

val invalidate_all : t -> unit
(** Drop everything: wired into context-switch flushes and code-cache
    flushes. Also bumps the epoch, killing
    every chain link installed before the call. *)

val keepable : block -> base:int -> bytes:string -> since:int -> bool
(** The block's guard lies inside a unit's bytes [bytes] laid at
    [base], and holds those bytes: either the block was decoded at or
    after region generation [since] and no write has landed on the
    guard since (the stamps), or its [db_bytes] equal [bytes] at the
    block's offset. The PSR VM keeps such blocks across a code-cache
    flush for a unit whose bytes it blitted at generation [since] and
    will blit back byte for byte at the same base. *)

val adopt : t -> block -> unit
(** Re-install a {!keepable} block after its bytes were written back
    unchanged: re-stamps [db_gen] to the region's current generation,
    drops its chain links and inserts it exactly as a decode miss
    would, without counting a miss. The caller vouches that the bytes
    are the ones the block was decoded from. *)

val follow_idx : t -> block -> int -> int
(** [follow_idx t pred pc] probes [pred]'s links for the block at
    [pc] — the allocation-free probe the dispatcher uses: the index
    [i] of a followable link (the target is [pred.db_succs.(i).sc_blk]),
    or [-1]. Dead links (old epoch, or stale target) are severed and
    counted as breaks; an indirect probe that finds no valid entry
    counts an IC miss. *)

val patch : t -> block -> pc:int -> block -> unit
(** [patch t pred ~pc b] installs [pred] --[pc]--> [b] after a follow
    miss. No-op when [pred] is stale; a full (megamorphic) IC refuses
    new entries. *)

val stats : t -> stats
(** The cache's hit, miss, invalidation, flush, chain and inline-cache
    counts — their only home. They are host statistics: no
    observability registry carries them, so snapshot images, state
    dumps and metrics exports are the same on the fast path and on
    the decode oracle. *)

val epoch : t -> int
(** Current link epoch (test introspection). *)

val entries : t -> int

val blocks : t -> block list
(** Every block in the table, ascending by start. *)
