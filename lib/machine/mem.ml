exception Fault of int

exception Cstring_unterminated of int

exception Bad_span of int * int

(* The backing store is a table of 4 KiB pages. Every slot starts out
   pointing at [zero_page] — one all-zero buffer shared by every
   memory of the program, domains included, and never written — and a
   page gets a private buffer on its first write ({!wpage}). Creating
   a 32 MiB address space is then one 8192-slot array instead of a
   32 MiB zero fill, and two untouched pages compare equal by pointer
   ({!equal_span}). 4 KiB is the snapshot delta's page size, so every
   delta page is exactly one slot. *)
let page_bits = 12
let page_size = 1 lsl page_bits
let page_mask = page_size - 1

let zero_page = Bytes.make page_size '\000'

(* A watched span of the address space with a write generation. The
   decode cache keys predecoded blocks to the generation their bytes
   were read under; any write landing in the region bumps it, so a
   stale block is detectable with one integer compare. Alongside the
   region-wide counter each 64-byte stamp page records the generation
   of the last write that touched it, so a block whose region moved on
   can still prove its own bytes untouched ({!span_clean}) instead of
   being re-decoded — without that, every stub patch the VM writes
   into a code cache would throw away every decoded block of the
   region. Regions are few (the two code sections and the two
   code-cache regions), fixed at registration, disjoint, and kept
   sorted by [r_lo] so the write hook can stop at the first region
   starting above the address. In front of that scan sits a byte per
   64 KiB granule of the address space, set by {!watch} for every
   granule a region overlaps: a word store whose two ends land in
   unflagged granules — every data, heap and stack store, with the
   standard layout — is known to touch no region after one test.

   The stamps are paged like the bytes: one chunk of 64 stamps covers
   4 KiB of the region, and every chunk starts as the shared,
   never-written [zero_stamps] (generation 0: no write since the
   region was registered) until a write lands in it. The four standard
   regions span 18 MiB, so a flat stamp array would cost every system
   2.25 MiB of zero fill at boot, for a guest that writes a few hundred
   KiB of code. *)
let stamp_bits = 6
let chunk_bits = page_bits - stamp_bits
let chunk_mask = (1 lsl chunk_bits) - 1
let zero_stamps = Array.make (1 lsl chunk_bits) 0

let granule_bits = 16

type region = {
  r_lo : int;
  r_hi : int;
  mutable r_gen : int;
  r_stamps : int array array;
      (* last-write generation per 64-byte stamp page, in chunks of
         [1 lsl chunk_bits]; [zero_stamps] until first written *)
  mutable r_owned : int list;  (* chunks given a private array since the last {!reset} *)
  mutable r_free : int array list;  (* chunk arrays a reset took back, for reuse *)
}

type t = {
  pages : Bytes.t array;
  size : int;
  mutable regions : region array;
  granules : Bytes.t;  (* per 64 KiB granule: ['\001'] when some region overlaps it *)
  mutable owned : int list;  (* page slots given a private buffer since the last {!reset} *)
  mutable free_pages : Bytes.t list;  (* page buffers a reset took back, for reuse *)
}

let create size =
  if size < 0 then invalid_arg "Mem.create: negative size";
  {
    pages = Array.make ((size + page_mask) lsr page_bits) zero_page;
    size;
    regions = [||];
    granules = Bytes.make ((size lsr granule_bits) + 1) '\000';
    owned = [];
    free_pages = [];
  }

let size t = t.size

let watch t ~lo ~hi =
  if lo < 0 || hi > t.size || lo >= hi then invalid_arg "Mem.watch: bad region bounds";
  match Array.find_opt (fun r -> r.r_lo = lo && r.r_hi = hi) t.regions with
  | Some r -> r
  | None ->
    if Array.exists (fun r -> lo < r.r_hi && r.r_lo < hi) t.regions then
      invalid_arg "Mem.watch: overlapping region";
    let nstamps = ((hi - 1) lsr stamp_bits) - (lo lsr stamp_bits) + 1 in
    let nchunks = (nstamps + chunk_mask) lsr chunk_bits in
    let r =
      {
        r_lo = lo;
        r_hi = hi;
        r_gen = 0;
        r_stamps = Array.make nchunks zero_stamps;
        r_owned = [];
        r_free = [];
      }
    in
    let rs = Array.append t.regions [| r |] in
    Array.sort (fun a b -> compare a.r_lo b.r_lo) rs;
    t.regions <- rs;
    Bytes.fill t.granules (lo lsr granule_bits)
      (((hi - 1) lsr granule_bits) - (lo lsr granule_bits) + 1)
      '\001';
    r

(* [@inline] so the decode cache's one-compare staleness fast path
   collapses to two loads and a compare inside the dispatch loops. *)
let[@inline] generation r = r.r_gen

let region_lo r = r.r_lo
let region_hi r = r.r_hi

(* The generation stamp of [r]'s stamp page [k] (counted from the
   region's first), and setting it to the region's current generation;
   the first stamp in a chunk gives the chunk a private array. *)
let[@inline] stamp r k =
  Array.unsafe_get (Array.unsafe_get r.r_stamps (k lsr chunk_bits)) (k land chunk_mask)

let own_stamps r c =
  let s =
    match r.r_free with
    | s :: rest ->
      r.r_free <- rest;
      Array.fill s 0 (1 lsl chunk_bits) 0;
      s
    | [] -> Array.make (1 lsl chunk_bits) 0
  in
  Array.unsafe_set r.r_stamps c s;
  r.r_owned <- c :: r.r_owned;
  s

let set_stamp r k =
  let c = k lsr chunk_bits in
  let s = Array.unsafe_get r.r_stamps c in
  let s = if s == zero_stamps then own_stamps r c else s in
  Array.unsafe_set s (k land chunk_mask) r.r_gen

(* Record a write to [lo, hi] (inclusive, clamped) in [r]'s page
   stamps under the already-bumped generation. *)
let stamp_pages r lo hi =
  let lo = if lo < r.r_lo then r.r_lo else lo in
  let hi = if hi >= r.r_hi then r.r_hi - 1 else hi in
  let base = r.r_lo lsr stamp_bits in
  for k = (lo lsr stamp_bits) - base to (hi lsr stamp_bits) - base do
    set_stamp r k
  done

let rec pages_clean r k k1 since =
  k > k1 || (stamp r k <= since && pages_clean r (k + 1) k1 since)

(* No write has touched [lo, hi) (clamped to the region) since
   generation [since]. *)
let span_clean r ~lo ~hi ~since =
  let lo = if lo < r.r_lo then r.r_lo else lo in
  let hi = if hi > r.r_hi then r.r_hi else hi in
  lo >= hi
  ||
  let base = r.r_lo lsr stamp_bits in
  pages_clean r ((lo lsr stamp_bits) - base) (((hi - 1) lsr stamp_bits) - base) since

(* The scan loops below, and the page-split loops further down, are
   top-level functions taking all their state as arguments: a local
   [let rec] capturing the surrounding bindings is a closure, and on
   this path — the write hook runs on every store — that was the hot
   loop's single biggest allocation (7 minor words per write). *)
let rec region_scan rs n a i =
  if i >= n then None
  else
    let r = Array.unsafe_get rs i in
    if a < r.r_lo then None else if a < r.r_hi then Some r else region_scan rs n a (i + 1)

let region_of t a = region_scan t.regions (Array.length t.regions) a 0

(* The code-region write hook: bump the generation of the region
   containing [a], if any. Regions are sorted and disjoint, so the
   scan exits at the first region starting above [a]. It runs only
   when [a]'s granule is flagged ({!watched}): a stack or heap write
   costs one byte test on top of the store itself. *)
let rec touch_scan rs n a i =
  if i < n then begin
    let r = Array.unsafe_get rs i in
    if a < r.r_lo then ()
    else if a < r.r_hi then begin
      r.r_gen <- r.r_gen + 1;
      set_stamp r ((a lsr stamp_bits) - (r.r_lo lsr stamp_bits))
    end
    else touch_scan rs n a (i + 1)
  end

(* Some region may overlap the granule holding [a]. *)
let[@inline] watched t a = Bytes.unsafe_get t.granules (a lsr granule_bits) <> '\000'

let touch t a =
  if watched t a then begin
    let rs = t.regions in
    touch_scan rs (Array.length rs) a 0
  end

(* Bump every region overlapping [lo, hi] (inclusive), each once. *)
let rec touch_range_scan rs n lo hi i =
  if i < n then begin
    let r = Array.unsafe_get rs i in
    if hi < r.r_lo then ()
    else begin
      if lo < r.r_hi then begin
        r.r_gen <- r.r_gen + 1;
        stamp_pages r lo hi
      end;
      touch_range_scan rs n lo hi (i + 1)
    end
  end

let[@inline] touch_range t lo hi =
  let rs = t.regions in
  touch_range_scan rs (Array.length rs) lo hi 0

let check t a = if a < 0 || a >= t.size then raise (Fault a)

(* The page holding in-bounds address [a], for reading: possibly the
   shared zero page. *)
let[@inline] page t a = Array.unsafe_get t.pages (a lsr page_bits)

(* First write to a page: give its slot a private zeroed buffer, one
   a {!reset} took back if there is one. *)
let own t i =
  let p =
    match t.free_pages with
    | p :: rest ->
      t.free_pages <- rest;
      Bytes.fill p 0 page_size '\000';
      p
    | [] -> Bytes.make page_size '\000'
  in
  Array.unsafe_set t.pages i p;
  t.owned <- i :: t.owned;
  p

(* Back to the state {!create} built, at the cost of what was written
   since: every owned page slot and stamp chunk returns to the shared
   zero buffer, and its buffer is kept for this memory's next first
   write rather than left to the collector. Regions stay registered,
   at generation 0 with no write recorded, as {!watch} leaves a new
   one. *)
let reset t =
  List.iter
    (fun i ->
      t.free_pages <- Array.unsafe_get t.pages i :: t.free_pages;
      Array.unsafe_set t.pages i zero_page)
    t.owned;
  t.owned <- [];
  Array.iter
    (fun r ->
      List.iter
        (fun c ->
          r.r_free <- Array.unsafe_get r.r_stamps c :: r.r_free;
          Array.unsafe_set r.r_stamps c zero_stamps)
        r.r_owned;
      r.r_owned <- [];
      r.r_gen <- 0)
    t.regions

(* The page holding in-bounds address [a], for writing: never the
   zero page. *)
let[@inline] wpage t a =
  let i = a lsr page_bits in
  let p = Array.unsafe_get t.pages i in
  if p == zero_page then own t i else p

(* Store one byte without the write hook; the callers run it. *)
let poke t a v = Bytes.unsafe_set (wpage t a) (a land page_mask) (Char.unsafe_chr (v land 0xFF))

(* Unchecked byte accessors: callers must have span-checked already
   (the word paths below, and the decode reader after its own bounds
   test). [unsafe_write8] still runs the write hook — bypassing it
   would let a code write slip past the decode cache. *)
let unsafe_read8 t a = Char.code (Bytes.unsafe_get (page t a) (a land page_mask))

let unsafe_write8 t a v =
  poke t a v;
  touch t a

let read8 t a =
  check t a;
  unsafe_read8 t a

let write8 t a v =
  check t a;
  unsafe_write8 t a v

(* Out-of-bounds probe: [-1] instead of a fault, the contract the
   instruction decoders want ([-1 land 0xFF = 0xFF], so bytes past
   the edge of the address space decode as 0xFF exactly as the
   closure-based readers always made them). *)
let probe8 t a = if a < 0 || a >= t.size then -1 else unsafe_read8 t a

let reader t = probe8 t

(* Word load/store within one page: one native 32-bit access. The
   primitives are declared here rather than called through Stdlib's
   [Bytes.get_int32_le]/[set_int32_le], which are ordinary functions:
   a build that does not inline them (the dev profile's [-opaque]
   never does) boxes an [int32] per access, three minor words per
   guest load. Applied directly, the primitive's result feeds
   [Int32.to_int] unboxed in every build, and [Int32.to_int]
   sign-extends exactly as the byte composition in {!read32_split}
   does. Guest memory is little-endian on every host: a big-endian
   host swaps. Callers have checked that [o .. o+3] lies inside the
   page. *)
external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"
external bswap32 : int32 -> int32 = "%bswap_int32"

let[@inline] get32 b o =
  let v = get32u b o in
  Int32.to_int (if Stdlib.Sys.big_endian then bswap32 v else v)

let[@inline] set32 b o v =
  let v = Int32.of_int v in
  set32u b o (if Stdlib.Sys.big_endian then bswap32 v else v)

let[@inline] sign32 v = if v land 0x80000000 <> 0 then v - 0x100000000 else v

(* A word crossing a page edge (CISC operands need not be aligned):
   byte by byte, each byte through its own page. *)
let read32_split t a =
  sign32
    (unsafe_read8 t a
    lor (unsafe_read8 t (a + 1) lsl 8)
    lor (unsafe_read8 t (a + 2) lsl 16)
    lor (unsafe_read8 t (a + 3) lsl 24))

let write32_split t a v =
  poke t a v;
  poke t (a + 1) (v asr 8);
  poke t (a + 2) (v asr 16);
  poke t (a + 3) (v asr 24)

(* An out-of-bounds word faults at [a] when [a] itself is outside,
   else at [a+3] — the address the byte-by-byte accessors reported. *)
let word_fault t a = raise (Fault (if a < 0 || a >= t.size then a else a + 3))

(* Word accesses span-check once, then take one page's word helper or,
   across a page edge, the byte-wise split. The bound is
   [a <= t.size - 4], not [a + 3 < t.size]: the sum wraps negative for
   [a] near [max_int] and would pass the check. A store runs the region
   scan only when a granule at either end of the word is watched. Both
   accessors are [@inline]: a caller built without [-opaque] retires a
   word access with no call on its common path. *)
let[@inline] read32 t a =
  if a >= 0 && a <= t.size - 4 then
    let o = a land page_mask in
    if o <= page_size - 4 then get32 (page t a) o else read32_split t a
  else word_fault t a

let[@inline] write32 t a v =
  if a >= 0 && a <= t.size - 4 then begin
    let o = a land page_mask in
    if o <= page_size - 4 then set32 (wpage t a) o v else write32_split t a v;
    if watched t a || watched t (a + 3) then touch_range t a (a + 3)
  end
  else word_fault t a

(* Span validation for the bulk accessors. The old per-endpoint
   [check] pair accepted a negative length outright (for [n <= 0]
   the second check probes [a + n - 1] *below* [a], which is still
   in bounds for most addresses) and then fell into the host's
   [Bytes] primitives — the same class of hole [read_cstring]'s
   [Cstring_unterminated] hardening closed for unterminated scans.
   [a > t.size - n] keeps the comparison overflow-safe. *)
let check_span t a n =
  if n < 0 || a < 0 || a > t.size - n then raise (Bad_span (a, n))

(* The bytes of [a .. a+n-1] that share [a]'s page. *)
let[@inline] chunk a n =
  let room = page_size - (a land page_mask) in
  if n < room then n else room

let rec blit_pages t a s off n =
  if n > 0 then begin
    let k = chunk a n in
    Bytes.blit_string s off (wpage t a) (a land page_mask) k;
    blit_pages t (a + k) s (off + k) (n - k)
  end

let blit_string t a s =
  let n = String.length s in
  check_span t a n;
  if n > 0 then begin
    blit_pages t a s 0 n;
    touch_range t a (a + n - 1)
  end

let write_string = blit_string

let rec read_pages t a b off n =
  if n > 0 then begin
    let k = chunk a n in
    Bytes.blit (page t a) (a land page_mask) b off k;
    read_pages t (a + k) b (off + k) (n - k)
  end

let read_string t a n =
  check_span t a n;
  let b = Bytes.create n in
  read_pages t a b 0 n;
  Bytes.unsafe_to_string b

let rec equal_bytes p q i hi =
  i >= hi || (Bytes.unsafe_get p i = Bytes.unsafe_get q i && equal_bytes p q (i + 1) hi)

(* Page by page: the same buffer (both still the zero page) is equal
   without a look, a whole page is one [Bytes.equal], a partial page
   a byte loop. *)
let rec equal_pages t u a n =
  n <= 0
  ||
  let k = chunk a n and o = a land page_mask in
  let p = page t a and q = page u a in
  (p == q || if k = page_size then Bytes.equal p q else equal_bytes p q o (o + k))
  && equal_pages t u (a + k) (n - k)

let equal_span t u a n =
  check_span t a n;
  check_span u a n;
  equal_pages t u a n

let read_cstring ?(limit = 4096) t a =
  let buf = Buffer.create 16 in
  let rec go i =
    if i >= limit then raise (Cstring_unterminated a)
    else
      let c = read8 t (a + i) in
      if c = 0 then Buffer.contents buf
      else begin
        Buffer.add_char buf (Char.chr c);
        go (i + 1)
      end
  in
  go 0
