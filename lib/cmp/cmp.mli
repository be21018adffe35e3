(** The heterogeneous-CMP multi-process scheduler.

    The paper's deployment target (Table 1) is a chip multiprocessor
    with an ARM-like and an x86-like core sharing memory; HIPStR
    frames cross-ISA migration as something a *scheduler* does to a
    pool of processes. A {!t} owns N simulated cores of mixed ISA
    (default: the paper's pair) and time-slices a set of
    {!Process.t}s across them under a pluggable {!policy}:

    - {!Round_robin} — fair quantum rotation;
    - {!Load_balance} — least-loaded (by accumulated cycles) core
      picks work first, so observed-IPC imbalance drains to whichever
      core keeps up; crossing ISAs to get there is a load-triggered
      migration;
    - {!Security_first} — a process that triggered a suspicious
      code-cache miss in its last slice is preferentially rescheduled
      onto a different-ISA core, destroying any in-flight exploit
      state via [Migration.Transform] (the paper's defense, operated
      as scheduling policy).

    {b Placement.} A process runs on a core of its current ISA
    unconditionally; a [Hipstr]-mode process may be placed cross-ISA,
    in which case it runs to its next equivalence point and completes
    the migration there. Native/PSR-only processes are pinned to
    their ISA.

    {b Determinism contract.} Scheduling decisions read only state
    that is a deterministic function of the configuration and seeds —
    no wall clock, no domain identity, no hash-order iteration. Same
    CMP config + seeds ⇒ identical schedule trace, per-process
    outputs, syscall traces and metrics; and each process produces
    exactly the output its single-process [System] run with the same
    seed produces, because slicing and equivalence-point migration
    are semantics-preserving.

    {b Context switches.} A process rescheduled onto a core someone
    else used (or a different core than its last slice) restarts with
    cold caches and predictors ([Machine.context_switch_flush]), so
    scheduling pressure is visible in simulated cycles; coming back
    to its own core with nobody in between reuses the warm core
    handle. *)

type policy = Round_robin | Load_balance | Security_first

val policy_name : policy -> string
val policy_of_string : string -> policy option

type t

val default_cores : Hipstr_isa.Desc.which list
(** The paper's CMP: one x86-like big core, one ARM-like little
    core. *)

val create :
  ?obs:Hipstr_obs.Obs.t ->
  ?policy:policy ->
  ?quantum:int ->
  ?cores:Hipstr_isa.Desc.which list ->
  Process.t list ->
  t
(** [quantum] (default 20k instructions) is the slice length.
    [cores] (default {!default_cores}) may be any non-empty ISA mix.
    The process list may be empty — a serving CMP starts idle and
    admits work with {!inject}.
    @raise Invalid_argument if a non-migratable process has no
    matching core, on duplicate pids, or on an empty core list. *)

val inject : t -> Process.t -> unit
(** Admit a process at the back of the scheduling queue — the fleet
    harness's arrival path. @raise Invalid_argument on a duplicate
    pid or if a non-migratable process has no matching core. *)

val extract : t -> int -> Process.t
(** Withdraw the process with this pid from the pool, queue and
    core-affinity records (fleet live migration withdraws here and
    re-injects on the target CMP).
    @raise Invalid_argument on an unknown pid. *)

val reap : t -> Process.t list
(** Remove and return every retired process (so the harness can
    record its outcome and let its address space be collected).
    Reaped processes no longer appear in {!processes}, {!metrics} or
    the scheduling queue; the schedule trace keeps their slices. *)

val core_cycles : t -> float array
(** Accumulated cycles per core, by core id — the shard clock the
    fleet harness advances global time with. *)

val runnable_count : t -> int

val step : ?crew:Pool.crew -> ?timeline:Hipstr_obs.Obs.Timeline.t -> t -> int
(** One scheduling round: assign runnable processes to cores per the
    policy, run each for a quantum, account. Returns the number of
    slices executed.

    [crew] runs the round's slices on its domains — the
    simulated-concurrency analogue of the physically concurrent
    cores; without one they run serially in the caller. All
    scheduling decisions (assignments, cold flushes, migration
    requests) are made sequentially before any slice runs, and
    accounting folds back in core order afterwards, so every
    simulation result — schedule trace, outputs, metrics, exported
    trace/profile/audit files — is bit-identical with or without a
    crew, whatever its size.

    [timeline] delta-samples the CMP's obs context at the end of the
    accounting stage, stamped at the maximum core clock — after the
    round barrier, from the sequential section, so per-window
    translation/cache/migration series stay bit-identical for any
    crew too. *)

val run : ?jobs:int -> ?timeline:Hipstr_obs.Obs.Timeline.t -> t -> unit
(** {!step} until every process is done. The whole run shares one {!Pool.crew} of
    [min jobs cores] domains ([jobs] defaults to 1: serial, no domain
    is spawned). Terminates: each process carries a finite fuel budget
    and exhausting it retires the process as [Out_of_fuel]. *)

val processes : t -> Process.t list
val proc : t -> int -> Process.t
(** By pid. @raise Invalid_argument if unknown. *)

val policy : t -> policy
val quantum : t -> int

(** {2 Schedule trace} *)

type sched_event = {
  se_round : int;
  se_core : int;
  se_pid : int;
  se_isa : Hipstr_isa.Desc.which;  (** process ISA at slice start *)
  se_instructions : int;
  se_switched : bool;  (** cold context switch charged *)
  se_migrated : bool;  (** scheduler requested a cross-ISA move *)
  se_security : bool;  (** ... triggered by the security policy *)
  se_done : bool;  (** the process retired during this slice *)
}

val schedule : t -> sched_event list
(** Every slice ever run, oldest first — the object the determinism
    tests compare. *)

val event_to_string : t -> sched_event -> string
val schedule_to_string : t -> string

(** {2 Metrics}

    Per-core and per-process aggregates; the same numbers flow into
    the obs context as [cmp.slices], [cmp.context_switches],
    [cmp.migrations.security_policy], [cmp.migrations.load_policy]
    and [cmp.rounds] (plus [machine.context_switch_flushes] from the
    machines themselves). *)

type core_metrics = {
  cm_id : int;
  cm_isa : Hipstr_isa.Desc.which;
  cm_instructions : int;
  cm_cycles : float;
  cm_slices : int;
  cm_switches : int;
}

type proc_metrics = {
  pm_pid : int;
  pm_name : string;
  pm_outcome : Hipstr.System.outcome option;
  pm_instructions : int;
  pm_cycles : float;
  pm_slices : int;
  pm_sched_migrations : int;
  pm_security_migrations : int;
  pm_forced_migrations : int;
  pm_cache_flushes : int;  (** wholesale code-cache flushes (all VMs) *)
  pm_cache_evictions : int;  (** block-granular evictions (fifo/clock) *)
  pm_memo_installs : int;  (** re-installs served from the translation memo *)
  pm_chain_follows : int;
      (** host decode-cache chain links followed (both cores; host-side
          observability, not simulated cost) *)
  pm_ic_hits : int;  (** host indirect-branch inline-cache hits (mono + poly) *)
}

type metrics = {
  m_rounds : int;
  m_slices : int;
  m_context_switches : int;
  m_migrations_security_policy : int;
  m_migrations_load_policy : int;
  m_cores : core_metrics list;
  m_procs : proc_metrics list;
}

val metrics : t -> metrics
