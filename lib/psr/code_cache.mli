(** The PSR virtual machine's code cache.

    An allocator over the ISA's cache region in simulated memory.
    Translated units are looked up by *source* address. How a capacity
    shortfall is handled depends on the {!policy}:

    - {!Flush}: bump allocation; the VM drops everything on shortfall
      (the classic DBT strategy), which is what makes small caches
      produce repeated translation and migration events (Figure 13).
    - {!Fifo}: a circular claim — the write pointer marches forward,
      wrapping at the end, and {!alloc} evicts exactly the live blocks
      the new unit overlaps, oldest-placed first.
    - {!Clock}: FIFO with second chance — blocks touched by {!lookup}
      since their last reprieve are skipped once instead of evicted.

    Eviction decisions depend only on allocation order and lookups, so
    runs are deterministic for a given seed and schedule. *)

type policy = Flush | Fifo | Clock

val policy_name : policy -> string
val policy_of_string : string -> policy option

type block = {
  cb_src : int;  (** source address this unit translates *)
  cb_cache : int;
  cb_size : int;
  cb_func : string;
  cb_src_spans : (int * int) list;
      (** source (addr, len) ranges covered, including superblock
          inlining — the JIT-ROP analysis walks these *)
}

type t

val create :
  ?obs:Hipstr_obs.Obs.t ->
  ?isa:string ->
  ?policy:policy ->
  base:int ->
  capacity:int ->
  unit ->
  t
(** [obs] (default {!Hipstr_obs.Obs.disabled}) receives
    [code_cache.<isa>.allocs]/[.flushes]/[.evictions] counters and a
    [.block_bytes] histogram; [isa] namespaces them (default
    ["any"]). [policy] defaults to {!Flush}. *)

val lookup : t -> int -> int option
(** Translated cache address for a source unit start. Under {!Clock}
    this also marks the block recently-used. *)

val find : t -> int -> int option
(** {!lookup} without marking anything: a pure read, for checks that
    must not move Clock's eviction order. *)

val next_addr : t -> align:int -> int
(** Where the next [alloc ~align] will place its block (before any
    wrap-around under {!Fifo}/{!Clock}) — the single source of truth
    for the allocator's alignment arithmetic. *)

val has_room : t -> align:int -> size:int -> bool
(** Whether [alloc ~align ~size] fits without wrapping. Uses the same
    alignment path as {!alloc}, so under {!Flush} a true answer
    guarantees the next [alloc] of at most [size] bytes at [align]
    cannot raise. *)

val alloc :
  t ->
  ?align:int ->
  src:int ->
  func:string ->
  size:int ->
  src_spans:(int * int) list ->
  unit ->
  int * block list
(** Reserve [size] bytes; returns the cache address and the blocks
    this allocation displaced (overlap victims under {!Fifo}/{!Clock},
    plus a stale block for [src] itself when re-allocating a live src;
    always [[]] for a fresh src under {!Flush}). The caller must
    invalidate every returned block's stubs/RAT lines before reusing
    the region.
    @raise Invalid_argument under {!Flush} if it does not fit (check
    {!has_room}), or under any policy if a single unit exceeds the
    whole capacity. *)

val flush : t -> unit
(** Drop all translations. Counts a flush; the VM must also clear its
    RAT and stub tables and re-randomize. *)

val blocks : t -> block list
(** Live blocks, ascending by cache address. *)

val used_bytes : t -> int
(** Write-pointer offset from base — the high-water mark under
    {!Flush}; under {!Fifo}/{!Clock} it wraps with the pointer. *)

val flushes : t -> int
val evictions : t -> int
val policy : t -> policy

val policy_codec : policy Hipstr_util.Wire.codec
(** A policy field of an image: one byte, 0 flush, 1 fifo, 2 clock. *)

val sync : Hipstr_util.Wire.io -> t -> unit
(** Write, or overwrite from an image, the allocator state — cursor,
    live-block directory, Clock reference bits, flush/eviction
    counts. Translated bytes do NOT travel; the VM re-materializes
    them on restore.
    @raise Hipstr_util.Wire.Corrupt when the cursor or a block falls
    outside this cache's region, two blocks overlap or translate the
    same source, a {!Flush} block lies past the cursor, or the image
    is malformed. *)

val restore : t -> Hipstr_util.Wire.r -> unit
(** {!sync} on a raw reader. *)
