(** Deterministic pseudo-random number generation.

    All randomness in the repository flows through this module so that
    every experiment is reproducible from a seed. The generator is
    SplitMix64, which is small, fast, and has no shared global state:
    each subsystem owns its own generator, split off a parent, so
    adding randomness to one subsystem never perturbs another. *)

type t
(** A generator. Mutable; not thread-safe (use one per domain). *)

val create : int -> t
(** [create seed] makes a fresh generator from a 63-bit seed. *)

val split : t -> t
(** [split g] derives an independent generator from [g], advancing
    [g]. Use to hand sub-components their own stream. *)

val int : t -> int -> int
(** [int g n] is uniform in [0, n). Requires [n > 0]. *)

val bits32 : t -> int
(** 32 uniform random bits as a non-negative int. *)

val bool : t -> bool

val float : t -> float
(** Uniform in [0, 1). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val permutation : t -> int -> int array
(** [permutation g n] is a uniform permutation of 0..n-1. *)

val sample_distinct : t -> int -> int -> int list
(** [sample_distinct g k n] draws [k] distinct values from [0, n).
    Requires [k <= n]. *)

val state : t -> int64
(** The full generator state — SplitMix64 is a single 64-bit word,
    so this captures the stream position exactly (snapshots). *)

val set_state : t -> int64 -> unit
(** Overwrite a generator's state in place (snapshot restore). *)
