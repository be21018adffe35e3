(** Set-associative cache timing model with LRU replacement.

    Only timing is modelled (data always comes from {!Mem}); an access
    returns whether it hit, and the machine charges the configured
    penalty on a miss. *)

type t

val create : ?line:int -> size_kb:int -> assoc:int -> miss_penalty:int -> unit -> t
(** [line] defaults to 64 bytes. *)

val access : t -> int -> bool
(** [access t addr] touches the line containing [addr]; true on hit. *)

val miss_penalty : t -> int
val hits : t -> int
val misses : t -> int
val reset : t -> unit
(** Back to the state {!create} returns: every line invalid, the LRU
    clock and the hit/miss counts at 0. *)

val reset_stats : t -> unit
val flush : t -> unit
(** Invalidate all lines (used when the PSR code cache is flushed). *)

val sync : Hipstr_util.Wire.io -> t -> unit
(** Write, or overwrite from an image, the exact tag/stamp/counter
    state (snapshots).
    @raise Hipstr_util.Wire.Corrupt on a geometry mismatch, a
    last-access memo that does not point at its line, or a malformed
    image. *)

val save : Hipstr_util.Wire.w -> t -> unit
val restore : t -> Hipstr_util.Wire.r -> unit
(** {!sync} on a raw writer or reader. *)
