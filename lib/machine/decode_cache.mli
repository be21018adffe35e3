(** Per-ISA cache of predecoded basic blocks.

    Every simulated instruction used to be re-decoded from raw bytes
    on every execution; hot loops decode the same handful of blocks
    millions of times. This cache decodes a basic block once — from
    its start address up to the first control transfer — into a
    packed int array ({!Packed}) that the interpreter re-dispatches on
    every revisit.

    Correctness under self-modifying code rests on {!Mem.watch}
    generations: a block records the generation of the watched region
    its bytes live in, and {!stale} is a single integer compare the
    interpreter performs before every cached instruction. Any write
    into the region — a PSR translation installed into the code
    cache, a chained-jump patch, eviction restoring trap bytes, an
    attack payload rewriting code — bumps the generation and so
    invalidates every block decoded from it, lazily. Addresses
    outside any watched region (stack or heap execution by wild
    gadget chains) are never cached and fall back to per-instruction
    decode.

    The cache is pure simulator-side memoization: it charges no
    cycles, touches no modelled structure, and produces bit-identical
    architectural and timing results to the uncached interpreter.

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
  db_region : Mem.region;
  mutable db_gen : int;
      (** region generation the block's bytes are known valid under —
          re-stamped by {!stale} when a generation bump proves to have
          missed the block's pages *)
  db_indirect : bool;
      (** terminator is an indirect transfer: links form an inline
          cache rather than a direct successor pair *)
  mutable db_succs : succ array;  (** chain links, owned by {!follow}/{!patch} *)
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
  mutable ic_misses : int;  (** IC probes that fell back to {!lookup} *)
}

type t

val max_decode_window : int
(** Upper bound on the bytes one instruction decode may inspect, past
    its start address, on either ISA. Anything that caches a decode
    result must treat this many bytes as read. *)

val create :
  ?obs:Hipstr_obs.Obs.t -> isa:string -> ?chain:bool -> Hipstr_isa.Desc.which -> Mem.t -> t
(** Create a cache for one ISA over one memory, watching the four
    standard code-bearing regions (both code sections and both
    code-cache regions; {!Mem.watch} dedupes across ISAs). Counters
    are registered as [machine.<isa>.decode_cache.*],
    [machine.<isa>.chain.*] and [machine.<isa>.ic.*]. [chain]
    (default on) enables successor links; when off, {!follow} always
    misses and {!patch} is a no-op, leaving dispatch exactly as it
    was before chaining existed. *)

val lookup : t -> int -> block option
(** The block starting at an address: a generation-valid cached entry
    (hit), or a freshly decoded and installed one (miss). [None] if
    the address is not cacheable — outside every watched region, or
    no cacheable block forms there — in which case the caller must
    single-step. *)

val find : t -> int -> block
(** Exactly {!lookup}, but raising instead of optioning — the
    allocation-free probe the dispatcher uses.
    @raise Not_found when the address is not cacheable. *)

val stale : block -> bool
(** The block's bytes may have been written since it was decoded.
    Checked by the interpreter before every cached instruction, so
    the fast path is one integer compare against the region
    generation; on a mismatch the block's page span is consulted
    ({!Mem.span_clean}) and [db_gen] re-stamped if the write landed
    elsewhere in the region — a stub patch in another part of the
    code cache no longer evicts every decoded block. *)

val drop : t -> block -> unit
(** Remove one (stale) block. *)

val invalidate_all : t -> unit
(** Drop everything: wired into context-switch flushes, relocation-map
    renewal and code-cache flushes. Also bumps the epoch, killing
    every chain link installed before the call. *)

val follow : t -> block -> int -> block option
(** [follow t pred pc] probes [pred]'s links for the block at [pc].
    Dead links (old epoch, or stale target) are severed and counted
    as breaks; an indirect probe that finds no valid entry counts an
    IC miss. Always [None] when chaining is off. *)

val follow_idx : t -> block -> int -> int
(** {!follow} in index form — the allocation-free probe the
    dispatcher uses: the index [i] of a followable link (the target
    is [pred.db_succs.(i).sc_blk]), or [-1]. *)

val patch : t -> block -> pc:int -> block -> unit
(** [patch t pred ~pc b] installs [pred] --[pc]--> [b] after a follow
    miss. No-op when chaining is off or [pred] is stale; a full
    (megamorphic) IC refuses new entries. *)

val stats : t -> stats

val deposit : t -> unit
(** Deposit the counter deltas accumulated since the last deposit
    into the observability registry. Hit/miss/chain/IC events are
    counted in plain mutable ints on the hot paths ({!stats}) and
    only reach the atomic [Obs.Metrics] counters here — called at
    run exit and after out-of-run invalidations, i.e. before any
    point an export can observe the registry, so exported values are
    unchanged by the batching. *)

val chained : t -> bool

val epoch : t -> int
(** Current link epoch (test introspection). *)

val entries : t -> int
