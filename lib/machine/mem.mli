(** Simulated byte-addressable guest memory.

    The address space is flat to the guest; the host backs it with a
    table of 4 KiB pages. Every page starts as one shared all-zero
    page that is never written and gets a private buffer on its first
    write, so an address space costs memory and set-up time in
    proportion to the pages the guest touches, not to its size. The
    paging is invisible through this interface: every accessor below
    behaves exactly as on a flat zero-filled array, including words
    that straddle a page edge (CISC operands need not be aligned).

    Accesses outside the configured size raise {!Fault}, which the
    execution engine converts into a simulated machine fault — this is
    how wild gadget chains crash, so the brute-force experiments
    depend on it.

    Spans of the address space holding code can be {!watch}ed: every
    write landing inside a watched region bumps that region's
    generation counter. The predecoded-block interpreter keys its
    cache entries to the generation their bytes were read under, so
    self-modifying code (the PSR translator installing or patching
    blocks, attack payloads rewriting code bytes, eviction restoring
    trap bytes) invalidates stale decodes with one integer compare.
    When the generation moved, the per-64-byte write stamps behind
    {!unwritten} say whether a write landed on a span, and {!holds}
    whether the span still holds the bytes a decode read: a write
    beside a decoded block, or one storing the bytes it already held,
    leaves the block valid. The stamps are paged the same way as the
    bytes: a 4 KiB stretch of a region gets its stamps on the first
    write into it, so watching a large code-cache region costs nothing
    until code is written there. *)

exception Fault of int
(** Raised with the offending address. *)

exception Cstring_unterminated of int
(** Raised by {!read_cstring} with the string's start address when no
    NUL terminator appears within the limit. *)

exception Bad_span of int * int
(** Raised by the bulk accessors ({!read_string}, {!blit_string},
    {!write_string}) with [(addr, len)] when the requested span has a
    negative length or crosses the end of the address space. *)

type t

type region
(** A watched span with a write generation (see {!watch}). *)

val create : int -> t
(** [create size] is zero-initialized memory of [size] bytes. It
    allocates only the page table (one slot per 4 KiB, all pointing at
    the shared zero page); page buffers come into being on first
    write.
    @raise Invalid_argument when [size] is negative. *)

val size : t -> int

val reset : t -> unit
(** Return the memory to the zero-filled state {!create} builds, at a
    cost proportional to the pages and stamp chunks written since
    creation or the last reset: each such slot goes back to the shared
    zero buffer, and its buffer is kept for this memory's next first
    write. Watched regions stay registered, at generation 0 and with no
    write recorded, exactly as {!watch} returns a new one. *)

val watch : t -> lo:int -> hi:int -> region
(** Register [\[lo, hi)] as a watched region and return its handle;
    registering the same bounds again returns the existing handle
    (regions are per-memory, shared by every watcher). Regions must
    not overlap.
    @raise Invalid_argument on bad bounds or overlap. *)

val generation : region -> int
(** Monotonic write counter: bumped by every write landing inside the
    region. Equality with a remembered value proves the region's
    bytes are unchanged since then. *)

val unwritten : region -> lo:int -> hi:int -> since:int -> bool
(** [\[lo, hi)] lies inside the region and no write has landed in it
    since generation [since]: the one check behind every cached decode
    and translation ("are these still the bytes we read?"). False for
    a span that leaves the region, whose bytes outside it are not
    watched. The region generation is compared first; only when it
    moved are the span's write stamps read. Writes are stamped at
    64-byte-page granularity, so a decoded block survives writes
    elsewhere in its region (e.g. the VM patching a stub in another
    part of the code cache) — the caller re-stamps its remembered
    generation on a true result and re-decodes on a false one. May
    report an unwritten span written when a neighbouring write shares
    its edge pages (conservative, never the reverse). Which bytes a
    decode read is {!Decode_cache}'s rule. *)

val holds : region -> int -> string -> bool
(** [holds r a s]: [\[a, a + length s)] lies inside the region and
    memory there holds exactly the bytes of [s]. A byte compare over
    the pages, allocation-free: the check that lets a block whose guard
    was written with the bytes it already held live on, where
    {!unwritten} can only say that a write landed. *)

val region_of : t -> int -> region option
(** The watched region containing an address, if any. *)

val region_lo : region -> int
val region_hi : region -> int

val read8 : t -> int -> int
(** Unsigned byte. *)

val write8 : t -> int -> int -> unit

val unsafe_read8 : t -> int -> int
(** No bounds check: the caller must have span-checked. *)

val unsafe_write8 : t -> int -> int -> unit
(** No bounds check, but still runs the region write hook. *)

val probe8 : t -> int -> int
(** Like {!read8} but returns [-1] out of bounds instead of raising —
    the instruction decoders' reader contract. *)

val reader : t -> int -> int
(** [reader t] is a reader closure over {!probe8}, allocated once;
    pass it as the [~read] argument of the ISA decoders instead of
    building a fresh closure per instruction. *)

val read32 : t -> int -> int
(** Signed 32-bit little-endian load: one overflow-safe span check,
    then a single-page word load, or a byte-wise load when the word
    straddles a page edge.
    @raise Fault at [a] when [a] is out of bounds, else at [a+3]. *)

val write32 : t -> int -> int -> unit
(** Store the low 32 bits little-endian; runs the region write hook
    once for the whole word. Faults like {!read32}. *)

val blit_string : t -> int -> string -> unit
(** Copy a string into memory at an address.
    @raise Bad_span when the destination span crosses the end of the
    address space. *)

val write_string : t -> int -> string -> unit
(** Alias of {!blit_string}, named for symmetry with
    {!read_string}. *)

val read_string : t -> int -> int -> string
(** [read_string t a n] is the [n] bytes at [a].
    @raise Bad_span when [n] is negative or [a..a+n-1] crosses the
    end of the address space. *)

val equal_span : t -> t -> int -> int -> bool
(** [equal_span t u a n] is [read_string t a n = read_string u a n]
    without copying either span: pages both memories still share as
    the zero page compare equal in O(1).
    @raise Bad_span when the span is invalid in either memory. *)

val read_cstring : ?limit:int -> t -> int -> string
(** Read a NUL-terminated string.
    @raise Cstring_unterminated if no NUL appears within [limit]
    (default 4096) bytes — an unterminated string is reported, never
    silently truncated. *)
