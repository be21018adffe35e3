(** The fetch-decode-execute engine.

    {!run} executes instructions of the active ISA against the CPU,
    memory, timing structures and OS until fuel runs out or control
    leaves simulated code (trap). The PSR virtual machine drives it
    quantum by quantum so it can interpose on traps.

    Two retire paths exist and nothing else: the packed block loop
    over a decode cache's [db_code] words (the fast path, chained or
    not) and the per-instruction decode loop (the oracle, taken when
    [dcode = None]). They are bit-identical by contract.

    When a Return Address Table is present ([rat <> None]) the machine
    models the paper's modified return macro-op: *every* return —
    including a stray 0xC3 reached mid-instruction by a gadget —
    translates its target through the RAT, and a miss traps to the
    translator. Without a RAT, returns jump directly (native mode). *)

type fault =
  | Bad_fetch of int  (** undecodable bytes at pc *)
  | Bad_access of int  (** memory access outside the address space *)
  | Cache_jump of int  (** indirect control transfer into a code-cache region, native mode *)

type trap =
  | Trap_stub of int  (** translated code hit an exit stub for this source address *)
  | Rat_miss of int  (** a return's source target had no RAT entry *)
  | Exit of int  (** program exited (syscall or fell off main) *)
  | Shell  (** execve reached: the attack goal *)
  | Fault of fault

type counters = {
  cn_instrs : Hipstr_obs.Obs.Metrics.counter;
  cn_faults : Hipstr_obs.Obs.Metrics.counter;
  cn_syscalls : Hipstr_obs.Obs.Metrics.counter;
}
(** Per-core observability counters, resolved once at machine
    creation so the per-instruction cost of disabled observability is
    a single branch. *)

type env = {
  cpu : Cpu.t;
  mem : Mem.t;
  reader : int -> int;
      (** preallocated decode reader over [mem] ({!Mem.reader}) — the
          hot path must not allocate a closure per instruction *)
  desc : Hipstr_isa.Desc.t;
  core : Core_desc.t;
  icache : Cache.t;
  dcache : Cache.t;
  bpred : Bpred.t;
  rat : Rat.t option;
  os : Sys.t;
  dcode : Decode_cache.t option;
      (** predecoded-block cache for this ISA; [None] runs the
          per-instruction decode oracle ([--no-decode-cache]) *)
  obs : Hipstr_obs.Obs.t;
  ctrs : counters;
  q1 : int;
  q2 : int;
  qmul : int;
  qdiv : int;
      (** memoized [latency / throughput] quotients for the fixed
          latencies (1, 2, mul, div), in femtocycles
          ({!Cpu.fc_scale}): each retirement is one integer add, and
          the fold-back to float cycles is exact, so accounting is
          bit-identical across the oracle and the packed path *)
  p_mispredict : int;
  p_icache_miss : int;
  p_dcache_miss : int;
      (** flat penalties, pre-scaled to femtocycles *)
}

val run : env -> fuel:int -> trap option
(** Run until something stops execution or [fuel] instructions have
    retired; [None] means fuel ran out. When [env.dcode] is present,
    execution dispatches whole predecoded basic blocks; results —
    architectural state, cycle floats, counters, faults — are
    bit-identical to the per-instruction oracle (see DESIGN.md,
    "Interpreter architecture"). *)

val string_of_trap : trap -> string

val decode : Hipstr_isa.Desc.which -> Mem.t -> int -> (Hipstr_isa.Minstr.t * int) option
(** Decode one instruction of the given ISA from simulated memory. *)
