(** One schedulable process on the heterogeneous CMP.

    A process owns its full program state — address space, fat
    binary, per-process PSR VMs and relocation seeds, OS state — via
    a private {!Hipstr.System.t}, plus the runtime bookkeeping the
    scheduler needs: state, accumulated work, the suspicious-event
    watermark behind the security policy, and the core it last ran on
    (so warm microarchitectural state can be reused when it lands on
    the same core again). *)

type state = Runnable | Done of Hipstr.System.outcome

type t

val create :
  ?obs:Hipstr_obs.Obs.t ->
  ?cfg:Hipstr_psr.Config.t ->
  ?seed:int ->
  ?start_isa:Hipstr_isa.Desc.which ->
  ?decode_cache:bool ->
  ?spare:Hipstr_machine.Machine.t ->
  mode:Hipstr.System.mode ->
  pid:int ->
  name:string ->
  fuel:int ->
  Hipstr_compiler.Fatbin.t ->
  t
(** Boot a process from a linked fat binary. [fuel] is its total
    instruction budget — exhausting it makes the process
    [Done Out_of_fuel], which is what guarantees {!Cmp.run}
    terminates. [seed] plays exactly the role it does for a
    single-process [System] run: same binary + same seed ⇒ same
    output and syscall trace, however the scheduler slices it.
    [spare] reboots a retired process's machine, as for
    {!Hipstr.System.of_fatbin}. *)

val pid : t -> int
val name : t -> string
val sys : t -> Hipstr.System.t
val state : t -> state
val runnable : t -> bool
val outcome : t -> Hipstr.System.outcome option

val active_isa : t -> Hipstr_isa.Desc.which
(** The ISA the process is currently executing on — the scheduler's
    placement constraint. *)

val can_migrate : t -> bool
(** True iff the process runs in [Hipstr] mode, i.e. the scheduler
    may place it on a different-ISA core (the migration fires at the
    next equivalence point, via [Migration.Transform]). *)

val flagged : t -> bool
(** The last slice triggered at least one suspicious code-cache miss
    — the security policy's signal. *)

val slices : t -> int
val instructions : t -> int
val cycles : t -> float
val ipc : t -> float
val sched_migrations : t -> int

val last_core : t -> int option
(** The core id of the previous slice, if any — [None] until first
    scheduled. *)

val set_last_core : t -> int -> unit

val request_migration : t -> unit
(** Ask for a cross-ISA move at the next equivalence point (idempotent
    while one is pending; counted in {!sched_migrations}).
    @raise Invalid_argument unless {!can_migrate}. *)

val run_slice : t -> fuel:int -> Hipstr.System.slice
(** Run one quantum (clamped to the remaining budget) and update the
    bookkeeping. @raise Invalid_argument if the process is done. *)

val sync : Hipstr_util.Wire.io -> t -> t
(** The scheduler-visible runtime slice (pid, name, fuel accounting,
    state, flags) of a process: writes it and returns the process, or
    reads it into a process around the system of the one given (see
    {!blank}). The {!Hipstr.System} underneath is NOT included —
    snapshot framing serializes it separately. Core-affinity warmth is
    deliberately dropped: the first slice after a cross-pool move is a
    cold context switch.
    @raise Hipstr_util.Wire.Corrupt on malformed images. *)

val blank : Hipstr.System.t -> t
(** A process around an already restored system, for {!sync} to read
    into. *)
