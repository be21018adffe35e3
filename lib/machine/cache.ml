type t = {
  line_bits : int;
  nsets : int;
  set_mask : int; (* nsets - 1 when nsets is a power of two, else -1 *)
  assoc : int;
  tags : int array; (* nsets * assoc; -1 = invalid *)
  stamps : int array; (* LRU timestamps *)
  miss_penalty : int;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  (* Last-access memo: the line and tag-array index of the most recent
     hit or install. Consecutive probes to the same line — the common
     case for the icache, where a basic block's instructions share a
     64-byte line — skip the set scan. Model-invisible: the memoised
     path performs exactly the clock tick, stamp refresh and hit count
     the scan would have, and tags only change on a miss install,
     where the memo is re-pointed, or on [flush], where it is
     cleared. *)
  mutable last_line : int;
  mutable last_idx : int;
}

let log2i n =
  let rec go k v = if v >= n then k else go (k + 1) (v * 2) in
  go 0 1

(* Cold and unused, in place: every line invalid, LRU clock and
   counters at 0. [create] allocates and then resets. *)
let reset t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.stamps 0 (Array.length t.stamps) 0;
  t.clock <- 0;
  t.hits <- 0;
  t.misses <- 0;
  t.last_line <- -1;
  t.last_idx <- 0

let create ?(line = 64) ~size_kb ~assoc ~miss_penalty () =
  let nlines = Int.max assoc (size_kb * 1024 / line) in
  let nsets = Int.max 1 (nlines / assoc) in
  let t =
    {
      line_bits = log2i line;
      nsets;
      set_mask = (if nsets land (nsets - 1) = 0 then nsets - 1 else -1);
      assoc;
      tags = Array.make (nsets * assoc) (-1);
      stamps = Array.make (nsets * assoc) 0;
      miss_penalty;
      clock = 0;
      hits = 0;
      misses = 0;
      last_line = -1;
      last_idx = 0;
    }
  in
  reset t;
  t

(* One probe per retired instruction (icache) plus one per memory
   operand (dcache) makes this the hottest host function after the
   dispatcher, so the set index uses a mask whenever the geometry
   allows ([line] is non-negative by construction: it is a logical
   right shift) and the way scan is bounds-check-free ([set < nsets]
   and [i < assoc] keep every index inside [nsets * assoc]). *)
(* Top-level way scan (not a local [let rec], which would close over
   [tags]/[base] and allocate on every non-memoized probe). The
   [int] annotations are load-bearing: unannotated, [tags] and [line]
   are inferred as ['a array] and ['a], and the [=] below becomes a
   call to the C [caml_equal] for every way scanned. *)
let rec find_way (tags : int array) base assoc (line : int) i =
  if i >= assoc then -1
  else if Array.unsafe_get tags (base + i) = line then i
  else find_way tags base assoc line (i + 1)

let access_scan t line =
  begin
    let set = if t.set_mask >= 0 then line land t.set_mask else line mod t.nsets in
    let base = set * t.assoc in
    let tags = t.tags in
    let i = find_way tags base t.assoc line 0 in
    if i >= 0 then begin
      Array.unsafe_set t.stamps (base + i) t.clock;
      t.hits <- t.hits + 1;
      t.last_line <- line;
      t.last_idx <- base + i;
      true
    end
    else begin
      t.misses <- t.misses + 1;
      (* Evict the least recently used way. *)
      let stamps = t.stamps in
      let victim = ref 0 in
      for i = 1 to t.assoc - 1 do
        if Array.unsafe_get stamps (base + i) < Array.unsafe_get stamps (base + !victim) then
          victim := i
      done;
      Array.unsafe_set tags (base + !victim) line;
      Array.unsafe_set stamps (base + !victim) t.clock;
      t.last_line <- line;
      t.last_idx <- base + !victim;
      false
    end
  end

(* The memo fast path is a separate small wrapper so ocamlopt can
   inline it into the per-instruction probes; the scan stays
   out-of-line. *)
let[@inline] access t addr =
  t.clock <- t.clock + 1;
  let line = addr lsr t.line_bits in
  if line = t.last_line then begin
    (* memoised repeat of the previous hit/install: same work as the
       scan's hit arm, minus the scan *)
    Array.unsafe_set t.stamps t.last_idx t.clock;
    t.hits <- t.hits + 1;
    true
  end
  else access_scan t line

let miss_penalty t = t.miss_penalty
let hits t = t.hits
let misses t = t.misses

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0

let flush t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  t.last_line <- -1

(* --- snapshot ------------------------------------------------------ *)
(* The cache model is cycle-visible (miss penalties land in the guest
   clock), so a snapshot must carry the *exact* tag/stamp state: after
   a restore the hit/miss trajectory continues precisely where the
   saved run would have, including LRU victim choices, which read the
   historical stamps. Geometry is not serialized — it is a function of
   the create-time configuration — but the array lengths are checked
   so a snapshot from a differently-shaped cache is rejected. *)

module Wire = Hipstr_util.Wire

let save w t =
  Wire.tag w "CACHE";
  Wire.int_array w t.tags;
  Wire.int_array w t.stamps;
  Wire.int w t.clock;
  Wire.int w t.hits;
  Wire.int w t.misses;
  Wire.int w t.last_line;
  Wire.int w t.last_idx

let restore t r =
  Wire.expect_tag r "CACHE";
  let tags = Wire.r_int_array r in
  let stamps = Wire.r_int_array r in
  if Array.length tags <> Array.length t.tags || Array.length stamps <> Array.length t.stamps
  then Wire.corrupt "cache geometry mismatch: image has %d tags, this cache has %d"
      (Array.length tags) (Array.length t.tags);
  let clock = Wire.r_int r in
  let hits = Wire.r_int r in
  let misses = Wire.r_int r in
  let last_line = Wire.r_int r in
  let last_idx = Wire.r_int r in
  (* The memo path stamps [last_idx] without a bounds check, so a
     memo that does not point at its own line is refused here. *)
  if last_line <> -1
     && not (last_idx >= 0 && last_idx < Array.length tags && tags.(last_idx) = last_line)
  then Wire.corrupt "cache memo points at index %d, which does not hold line %d" last_idx last_line;
  Array.blit tags 0 t.tags 0 (Array.length tags);
  Array.blit stamps 0 t.stamps 0 (Array.length stamps);
  t.clock <- clock;
  t.hits <- hits;
  t.misses <- misses;
  t.last_line <- last_line;
  t.last_idx <- last_idx
