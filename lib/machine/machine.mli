(** The simulated heterogeneous-ISA chip multiprocessor.

    One process (memory, architectural register state, OS) and two
    cores — a CISC big core and a RISC little core, each with its own
    caches, branch predictor and (when PSR is enabled) Return Address
    Table. Exactly one core is active at a time; {!switch_core} models
    the hardware side of execution migration (the software side — state
    transformation — is [Hipstr_migration]).

    The register file is shared storage: the migration engine rewrites
    it during a switch, so no transfer is modelled here beyond the
    cold caches the incoming core starts with. *)

type t

val create :
  ?obs:Hipstr_obs.Obs.t ->
  ?rat_capacity:int option ->
  ?decode_cache:bool ->
  ?spare:t ->
  active:Hipstr_isa.Desc.which ->
  unit ->
  t
(** [rat_capacity] defaults to [None] (native mode, no RAT);
    [Some n] enables the modified call/return macro-ops on both
    cores. [obs] (default {!Hipstr_obs.Obs.disabled}) receives
    per-core instruction/fault/syscall counters and is inherited by
    every component holding this machine (PSR VMs, the migration
    engine). Each core's i- and d-cache has its {!Core_desc} size.
    [decode_cache] (default [true]) gives each core a
    predecoded-basic-block cache, which chains blocks and
    inline-caches indirect targets: the fast path. [false]
    ([--no-decode-cache]) runs the per-instruction decode oracle
    instead. Results are bit-identical either way.

    [spare] is a retired machine to {!reset} and return instead of
    allocating a new one. Nothing may use it afterwards through the
    system that ran on it.
    @raise Invalid_argument when [spare] was created with other
    parameters or another [obs]. *)

val reset : t -> active:Hipstr_isa.Desc.which -> unit
(** Return a used machine to exactly the state {!create} builds with
    the same parameters: the two are indistinguishable to a run, its
    {!save} image and its memory. A new machine is allocated and then
    reset, so each component's pristine state is defined once. The
    cost is proportional to what the previous owner wrote
    ({!Mem.reset}) plus a refill of the caches and predictors, not to
    the address space. *)

val mem : t -> Mem.t
val cpu : t -> Cpu.t
val os : t -> Sys.t
val active : t -> Hipstr_isa.Desc.which
val desc : t -> Hipstr_isa.Desc.t
val env : t -> Exec.env
(** The execution environment of the active core. *)

val rat : t -> Rat.t option
(** The active core's RAT. *)

val obs : t -> Hipstr_obs.Obs.t
(** The observability context this machine reports into. *)

val owner : t -> int
(** The simulated-process pid this machine belongs to (0 for a
    standalone system). Span/audit records carry it so a CMP timeline
    can attribute per-process work. *)

val set_owner : t -> int -> unit

val env_of : t -> Hipstr_isa.Desc.which -> Exec.env
(** Memoized: built once per core at {!create}, so calling this per
    quantum neither allocates nor recomputes charge quotients. *)

val invalidate_decoded : t -> Hipstr_isa.Desc.which -> unit
(** Drop every predecoded block of one core's decode cache. The PSR
    VM calls this on code-cache flush; region write generations already guarantee stale blocks never
    execute, so this only frees the table eagerly. The decode cache is
    host state and charges no guest cycles. No-op without a decode
    cache. *)

val decode_cache : t -> Hipstr_isa.Desc.which -> Decode_cache.t option
(** One core's decode cache ([None] when running with
    [--no-decode-cache]). *)

val decode_cache_stats : t -> Hipstr_isa.Desc.which -> Decode_cache.stats option
(** Hit/miss/invalidation/flush plus chain/IC counts of one core's
    decode cache ([None] when running with [--no-decode-cache]): the
    one place to read them, since no observability registry carries
    host statistics. *)

val switch_core : t -> Hipstr_isa.Desc.which -> unit
(** Make the other core active. Counts a migration; register/flag
    reinterpretation is the migration engine's job. *)

val migrations : t -> int

val context_switch_flush : t -> unit
(** Model being context-switched back onto a core another process
    used meanwhile: flush both cores' caches, branch predictors and
    predecoded-block caches (learned state only; cycle/instruction
    counters survive). The CMP
    scheduler calls this on every cold reschedule, so context-switch
    cost shows up in the timing model rather than as a bolted-on
    constant. Counted as [machine.context_switch_flushes]. *)

val boot : t -> entry:int -> unit
(** Initialize SP to the stack top, arrange for a return from the
    entry function to reach the exit sentinel, and set the PC. *)

val run : t -> fuel:int -> Exec.trap option

val cycles : t -> float
(** Total cycles accumulated (across both cores). *)

val instructions : t -> int

val seconds : t -> float
(** Wall-clock seconds of simulated execution, respecting each core's
    clock frequency: cycles are converted at the frequency of the core
    they were accumulated on. *)

val sync : Hipstr_util.Wire.io -> t -> unit
(** Write, or overwrite from an image, the architectural state (pc,
    registers, flags, perf counters), the OS surface, both cores'
    cycle-visible microarchitecture (i/d-caches, branch predictors,
    RATs) and the per-core cycle attribution. Guest memory is NOT
    included — the snapshot layer delta-compresses it against the fat
    binary. Reading demands the RAT presence this machine was created
    with.
    @raise Hipstr_util.Wire.Corrupt on any mismatch. *)

val save : Hipstr_util.Wire.w -> t -> unit
(** {!sync} on a raw writer. *)
