(** Architectural CPU state and performance counters. *)

type flags = { mutable zf : bool; mutable sf : bool; mutable cf : bool; mutable vf : bool }

val fc_scale : int
(** Femtocycles per cycle: the fixed-point scale of the cycle
    accumulator, [2^20]. A power of two, so folding the integer
    accumulator back to a float cycle count is exact (the division
    only adjusts the exponent) for any run short of [2^33] cycles. *)

val fc_of_cycles : float -> int
(** Femtocycles for a float cycle cost, rounded to nearest once.
    Service costs (VM traps, migration charges) convert through this
    at charge time, so the accumulator stays integral. *)

val cycles_of_fc : int -> float
(** The exact float fold-back of a femtocycle count. Every consumer
    of the cycle clock (spans, scheduling, exports, snapshots) reads
    this same fold-back, which makes cycle floats bit-identical
    across execution variants by construction. *)

val fc_quotient : lat:int -> throughput:float -> int
(** Femtocycles for [lat / throughput] — the per-retirement charge
    for an instruction of latency [lat] on a core of the given issue
    throughput. Memoized by {!Machine.env_of} and baked into packed
    blocks by the decode cache; both compute it through this one
    function so they charge the same integer. *)

type perf = {
  mutable cycles_fc : int;
      (** cycle accumulator in femtocycles; {!cycles} folds back *)
  mutable instructions : int;
  mutable loads : int;
  mutable stores : int;
  mutable branches : int;
  mutable calls : int;
  mutable returns : int;
  mutable indirects : int;
  mutable syscalls : int;
}

val cycles : perf -> float
(** [cycles_of_fc p.cycles_fc]. *)

type t = {
  mutable pc : int;
  regs : int array;  (** 16 slots; the active ISA uses a prefix *)
  flags : flags;
  perf : perf;
}

val create : unit -> t

val reset : t -> unit
(** Back to the state {!create} returns: pc and registers 0, flags
    clear, every counter 0. *)
