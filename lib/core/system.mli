(** HIPStR — the paper's primary contribution, assembled.

    A {!t} is one simulated process: a fat binary loaded into a
    heterogeneous-ISA machine, optionally running under Program State
    Relocation with non-deterministic cross-ISA migration. Three
    protection modes are supported, matching the paper's evaluation
    configurations:

    - {!Native}: no defense — the victim baseline and the performance
      reference;
    - {!Psr_only}: single-ISA PSR (the "PSR" lines of Figures 7/8);
    - {!Hipstr}: PSR on both cores plus probabilistic migration on
      suspicious code-cache misses — the full defense.

    Example:
    {[
      let sys = System.create ~mode:System.Hipstr ~src:program () in
      match System.run sys ~fuel:10_000_000 with
      | System.Finished 0 -> Format.printf "ok, %.2f ms" (1000. *. System.seconds sys)
      | outcome -> ...
    ]} *)

type mode = Native | Psr_only | Hipstr

type outcome =
  | Finished of int  (** exit code *)
  | Shell_spawned  (** the attack goal: execve reached *)
  | Killed of string  (** fault — wild control flow, SFI violation, ... *)
  | Out_of_fuel

type t

val create :
  ?obs:Hipstr_obs.Obs.t ->
  ?cfg:Hipstr_psr.Config.t ->
  ?seed:int ->
  ?start_isa:Hipstr_isa.Desc.which ->
  ?pid:int ->
  ?decode_cache:bool ->
  ?boot:bool ->
  mode:mode ->
  src:string ->
  unit ->
  t
(** Compile [src] (MiniC), load, and boot. [seed] drives every
    randomized decision (default 1). [obs] (default
    {!Hipstr_obs.Obs.disabled}, which records nothing) is threaded
    through the machine, the PSR VMs and the migration engine; pass a
    context from {!Hipstr_obs.Obs.create} to get metrics. [pid]
    (default 0) tags every span and audit entry this system emits, so
    a CMP timeline can attribute per-process work. [decode_cache] (default [true]) controls the
    host-side predecoded-block cache (chained blocks and
    indirect-branch inline caches, the fast path); [false] runs the
    per-instruction decode oracle, and simulation results are
    bit-identical either way. The engine is not part of a snapshot
    image. [boot] (default [true])
    writes the initial stack/pc; snapshot restore passes [false] and
    overwrites the whole machine state instead.
    @raise Hipstr_compiler.Compile.Error on bad source.
    @raise Invalid_argument with {!Hipstr_psr.Config.validate}'s
    message when it refuses [cfg]. *)

val of_fatbin :
  ?obs:Hipstr_obs.Obs.t ->
  ?cfg:Hipstr_psr.Config.t ->
  ?seed:int ->
  ?start_isa:Hipstr_isa.Desc.which ->
  ?pid:int ->
  ?decode_cache:bool ->
  ?boot:bool ->
  ?spare:Hipstr_machine.Machine.t ->
  mode:mode ->
  Hipstr_compiler.Fatbin.t ->
  t
(** Boot an already-linked binary — used by the attack harness to
    re-spawn a victim with fresh randomization without recompiling
    (the paper's crash/re-spawn model: PSR re-randomizes, a load-time
    scheme would not). [spare] is the machine of a system that has
    retired: it is reset ({!Hipstr_machine.Machine.reset}) and reused
    instead of allocating one, with results identical to a new
    machine. The retired system must not be used again.
    @raise Invalid_argument with {!Hipstr_psr.Config.validate}'s
    message when it refuses [cfg], or when [spare] was built for
    another mode, configuration, engine or [obs]. *)

val fatbin : t -> Hipstr_compiler.Fatbin.t
val machine : t -> Hipstr_machine.Machine.t
val mode : t -> mode
val config : t -> Hipstr_psr.Config.t

val seed : t -> int
(** The seed this system was created with. *)

val start_isa : t -> Hipstr_isa.Desc.which

val vm : t -> Hipstr_isa.Desc.which -> Hipstr_psr.Vm.t
(** The PSR VM of a core. @raise Invalid_argument in [Native] mode. *)

val run : t -> fuel:int -> outcome
(** Execute up to [fuel] more instructions. The budget is per call:
    [run ~fuel:a] then [run ~fuel:b] retires at most [a + b] in
    total, exactly as many when both return [Out_of_fuel]. Splitting
    a budget across calls never changes the outputs. *)

type slice = {
  sl_outcome : outcome;
  sl_instructions : int;  (** instructions retired during this slice *)
  sl_cycles : float;  (** cycles accumulated during this slice *)
}

val run_slice : t -> fuel:int -> slice
(** One scheduler quantum: {!run} plus the delta of work done, so a
    CMP scheduler ({!Hipstr_cmp.Cmp}) can attribute it to the core
    the process occupied. Like {!run}'s, [fuel] is a per-call budget,
    and slicing a run never changes its outputs. *)

val active_isa : t -> Hipstr_isa.Desc.which
(** The ISA/core this process is currently executing on. *)

val migration_pending : t -> bool
(** A {!request_migration} has been issued and has not fired yet. *)

val request_migration : t -> unit
(** Force a migration at the next return event (used to measure
    migration overhead at arbitrary checkpoints, Figure 12). Only
    meaningful in [Hipstr] mode. *)

val output : t -> int list
(** The print-syscall trace. *)

val shell : t -> (int * int * int) option

val cycles : t -> float
val instructions : t -> int
val seconds : t -> float

val security_migrations : t -> int
val forced_migrations : t -> int

val last_migration : t -> Hipstr_migration.Transform.result option

val suspicious_events : t -> int

val cache_flushes : t -> int
(** Wholesale code-cache flushes across this system's VMs. *)

val cache_evictions : t -> int
(** Blocks displaced individually (fifo/clock policies) across VMs. *)

val memo_installs : t -> int
(** Unit re-installs served from the translation memo across VMs. *)

val retranslate_cycles : t -> float
(** Cycles spent servicing capacity misses across VMs — the
    re-translation cost block-granular eviction + the memo cut. *)

val obs : t -> Hipstr_obs.Obs.t
(** The observability context every layer of this system reports
    into. *)

val metrics : t -> Hipstr_obs.Obs.Metrics.snapshot
(** Snapshot of all counters and histograms: [psr.<isa>.*] (VM
    translation/cache events), [machine.<isa>.*] (instructions,
    faults, syscalls), [code_cache.<isa>.*], [migration.*] and
    [system.migrations.*]. When several systems share one enabled
    context (a CMP's processes, say), the counters aggregate across
    them; under {!Hipstr_obs.Obs.disabled} the snapshot is empty. *)

val mode_codec : mode Hipstr_util.Wire.codec
(** A mode field of snapshot images and memo artifacts: one byte, 0
    native, 1 psr, 2 hipstr. *)

val mode_name : mode -> string
(** ["native"], ["psr"] or ["hipstr"]: the CLI's spelling, also used in
    benchmark output. *)

val mode_of_name : string -> mode option
(** Inverse of {!mode_name}, case-insensitive. *)

val rewritten_unit : t -> (Hipstr_isa.Desc.which * int) option
(** A translated unit, live or saved in the memo, on either ISA,
    whose source bytes the program has written since its translation
    was made ({!Hipstr_psr.Vm.rewritten_unit}): the snapshot layer
    refuses to checkpoint while one exists. *)

val sync_state : Hipstr_util.Wire.io -> t -> unit
(** Write, or overwrite from an image, the system-level slice: flags,
    migration counters, the decision rng, the machine
    ({!Hipstr_machine.Machine.sync}) and every PSR VM. Guest memory,
    configuration and manifest framing live in
    [Hipstr_snapshot.Snapshot]; [last_migration] does not travel.
    Reading targets a freshly created, un-booted system (same mode,
    config and creation flags), after its guest memory was restored —
    VM restore re-materializes the code caches against it.
    @raise Hipstr_util.Wire.Corrupt on mode/ISA/shape mismatch or a
    malformed image. *)

val save_state : Hipstr_util.Wire.w -> t -> unit
(** {!sync_state} on a raw writer. *)

val sync_memo : Hipstr_util.Wire.io -> t -> unit
(** Every VM's warm-start slice (relocation maps + translation memo
    keys + history) — the artifact that lets a later run of the same
    binary/config re-install translations at memo cost instead of
    re-translating. Reading targets a freshly created system of the
    same mode/config (before it runs).
    @raise Hipstr_util.Wire.Corrupt on shape mismatch. *)

val forget_memo : t -> unit
(** Drop every VM's translation memo (cold-start arm of the warm/cold
    comparison); translation history survives. *)
