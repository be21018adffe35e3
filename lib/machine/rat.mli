(** Hardware Return Address Table (Section 5.1 of the paper).

    Maps *source* return addresses (what translated code stores on the
    stack) to their translated code-cache targets. The modified call
    macro-op ([Callrat]) inserts entries and the modified return
    macro-op ([Retrat]) looks them up with a 1-cycle penalty; a miss
    traps to the translator. The table has a bounded capacity with
    LRU replacement — Figure 11 sweeps this capacity. *)

type t

val create : capacity:int -> t

val capacity : t -> int

val insert : t -> src:int -> translated:int -> unit

val find_translated : t -> int -> int
(** Looks up a source return address: its translated target, or [-1]
    for a miss (translated targets are always non-negative addresses),
    with no allocation — the per-return hot path. Updates recency and
    hit/miss statistics. *)

val hits : t -> int
val misses : t -> int

val reset : t -> unit
(** Back to the state {!create} returns: no entries, LRU clock and
    hit/miss counts at 0. *)

val clear : t -> unit

val remove_in_range : t -> lo:int -> hi:int -> unit
(** Drop every entry whose {e translated} target lies in [\[lo, hi)] —
    used when a code-cache block is evicted, so no RAT line can send a
    return into reused cache bytes. Mid-block entries (inserted by the
    call macro-op for fall-through continuations) are covered too,
    which a source-keyed removal would miss. Does not touch hit/miss
    statistics. *)

val sync : Hipstr_util.Wire.io -> t -> unit
(** Write, or overwrite from an image, the entries (with LRU stamps)
    and counters (snapshots).
    @raise Hipstr_util.Wire.Corrupt when the image holds more entries
    than this RAT's capacity or is malformed. *)
