(* The heterogeneous-CMP runtime: N simulated cores of mixed ISA and
   a time-sliced scheduler over a pool of processes.

   Model. Cores are scheduling slots with an ISA and occupancy
   accounting; a process's microarchitectural and program state lives
   in its own Machine (per-process address spaces — this is a
   multi-process CMP, not SMT). Each round the policy assigns
   runnable processes to cores; each assignment runs one quantum.
   Assignments within a round are simulated sequentially in core
   order, which is observationally equivalent to truly concurrent
   cores because processes share nothing.

   Placement rules. A process may occupy a core of its current ISA
   unconditionally. A Hipstr-mode process may also be placed
   cross-ISA: the scheduler requests a migration, the process runs to
   its next equivalence point on the old ISA and completes the switch
   there (Migration.Transform does the state relocation) — the
   paper's migration-at-return model. Native/PSR-only processes are
   pinned to cores of their ISA.

   Determinism. Every decision reads only process/core state that is
   itself a deterministic function of (config, seeds): no wall clock,
   no domain identity, no hash-order iteration. Same config + seeds
   ⇒ identical schedule trace, outputs, syscall traces and metrics.

   Context switches. When a process lands on a core that last ran
   somebody else, or on a different core than its own last slice, its
   warmed-up caches and predictors are gone: Machine.
   context_switch_flush models the cold restart, so scheduling
   pressure shows up in simulated cycles (measured by the
   cmp-sched-overhead bench). Returning to "its" core with nobody in
   between keeps the state warm — core handles are reused. *)

module System = Hipstr.System
module Machine = Hipstr_machine.Machine
module Desc = Hipstr_isa.Desc
module Isa = Hipstr_isa.Isa
module Obs = Hipstr_obs.Obs

type policy = Round_robin | Load_balance | Security_first

let policy_name = function
  | Round_robin -> "round-robin"
  | Load_balance -> "load-balance"
  | Security_first -> "security-first"

let policy_of_string s =
  match String.lowercase_ascii s with
  | "rr" | "round-robin" | "roundrobin" -> Some Round_robin
  | "load" | "load-balance" | "ipc" -> Some Load_balance
  | "security" | "security-first" | "sec" -> Some Security_first
  | _ -> None

type core = {
  co_id : int;
  co_isa : Desc.which;
  mutable co_instructions : int;
  mutable co_cycles : float;
  mutable co_slices : int;
  mutable co_switches : int;
  mutable co_last : int option;  (* pid of the last occupant *)
}

type sched_event = {
  se_round : int;
  se_core : int;
  se_pid : int;
  se_isa : Desc.which;  (* process ISA at slice start *)
  se_instructions : int;
  se_switched : bool;  (* cold context switch *)
  se_migrated : bool;  (* scheduler requested a cross-ISA move *)
  se_security : bool;  (* ... because the process was flagged *)
  se_done : bool;
}

type t = {
  cores : core array;
  mutable procs : Process.t array;
  policy : policy;
  quantum : int;
  obs : Obs.t;
  c_slices : Obs.Metrics.counter;
  c_switches : Obs.Metrics.counter;
  c_mig_sec : Obs.Metrics.counter;
  c_mig_load : Obs.Metrics.counter;
  c_rounds : Obs.Metrics.counter;
  mutable round : int;
  mutable queue : int list;  (* runnable pids, scheduling order *)
  mutable trace_rev : sched_event list;
}

let default_cores = [ Desc.Cisc; Desc.Risc ]

let create ?(obs = Obs.global) ?(policy = Round_robin) ?(quantum = 20_000)
    ?(cores = default_cores) procs =
  if quantum < 1 then invalid_arg "Cmp.create: quantum must be positive";
  if cores = [] then invalid_arg "Cmp.create: need at least one core";
  let core_isas = List.sort_uniq compare cores in
  List.iter
    (fun p ->
      if (not (Process.can_migrate p)) && not (List.mem (Process.active_isa p) core_isas) then
        invalid_arg
          (Printf.sprintf "Cmp.create: process %s is pinned to %s but no such core exists"
             (Process.name p)
             (Isa.name (Process.active_isa p))))
    procs;
  let pids = List.map Process.pid procs in
  if List.length (List.sort_uniq compare pids) <> List.length pids then
    invalid_arg "Cmp.create: duplicate pids";
  let metric n = Obs.Metrics.counter (Obs.metrics obs) ("cmp." ^ n) in
  {
    cores =
      Array.of_list
        (List.mapi
           (fun i isa ->
             {
               co_id = i;
               co_isa = isa;
               co_instructions = 0;
               co_cycles = 0.;
               co_slices = 0;
               co_switches = 0;
               co_last = None;
             })
           cores);
    procs = Array.of_list procs;
    policy;
    quantum;
    obs;
    c_slices = metric "slices";
    c_switches = metric "context_switches";
    c_mig_sec = metric "migrations.security_policy";
    c_mig_load = metric "migrations.load_policy";
    c_rounds = metric "rounds";
    round = 0;
    queue = pids;
    trace_rev = [];
  }

let proc t pid =
  match Array.find_opt (fun p -> Process.pid p = pid) t.procs with
  | Some p -> p
  | None -> invalid_arg "Cmp.proc: unknown pid"

(* --- dynamic process arrival/departure (the fleet harness) --- *)

let inject t p =
  if Array.exists (fun q -> Process.pid q = Process.pid p) t.procs then
    invalid_arg "Cmp.inject: duplicate pid";
  if
    (not (Process.can_migrate p))
    && not (Array.exists (fun (c : core) -> c.co_isa = Process.active_isa p) t.cores)
  then
    invalid_arg
      (Printf.sprintf "Cmp.inject: process %s is pinned to %s but no such core exists"
         (Process.name p)
         (Isa.name (Process.active_isa p)));
  t.procs <- Array.append t.procs [| p |];
  t.queue <- t.queue @ [ Process.pid p ]

(* Withdraw a live process (fleet live migration): it leaves this
   CMP's pool, queue and core-affinity records entirely, so a later
   re-injection elsewhere starts cold — exactly what moving an address
   space between pools means. *)
let extract t pid =
  match Array.find_opt (fun p -> Process.pid p = pid) t.procs with
  | None -> invalid_arg "Cmp.extract: unknown pid"
  | Some p ->
    t.procs <- Array.of_list (List.filter (fun q -> Process.pid q <> pid) (Array.to_list t.procs));
    t.queue <- List.filter (fun q -> q <> pid) t.queue;
    Array.iter (fun (c : core) -> if c.co_last = Some pid then c.co_last <- None) t.cores;
    p

let reap t =
  let dead, live = List.partition (fun p -> not (Process.runnable p)) (Array.to_list t.procs) in
  if dead <> [] then begin
    t.procs <- Array.of_list live;
    let live_pids = List.map Process.pid live in
    t.queue <- List.filter (fun pid -> List.mem pid live_pids) t.queue
  end;
  dead

let core_cycles t = Array.map (fun c -> c.co_cycles) t.cores

let runnable_count t =
  Array.fold_left (fun n p -> if Process.runnable p then n + 1 else n) 0 t.procs

let compatible core p =
  Process.active_isa p = core.co_isa || Process.can_migrate p

(* --- per-round assignment, one list of (core, pid, security?) --- *)

(* Shared helper: walk the queue, give each core (in the given order)
   the first process it can host that nobody else took this round. *)
let assign_first_fit t core_order queue =
  let taken = Hashtbl.create 8 in
  let assignments = ref [] in
  List.iter
    (fun (core : core) ->
      let rec pick = function
        | [] -> ()
        | pid :: rest ->
          let p = proc t pid in
          if (not (Hashtbl.mem taken pid)) && compatible core p then begin
            Hashtbl.replace taken pid ();
            assignments := (core, pid, false) :: !assignments
          end
          else pick rest
      in
      pick queue)
    core_order;
  List.rev !assignments

let assign_round_robin t queue = assign_first_fit t (Array.to_list t.cores) queue

(* Balance occupancy: cores in ascending accumulated-cycle order pick
   work first, so the least-loaded core never idles while a process
   waits; a slow process (low observed IPC) therefore drifts to
   whichever core keeps up, and crossing ISAs to get there is a
   load-triggered migration. *)
let assign_load_balance t queue =
  let order =
    List.sort
      (fun (a : core) b ->
        match compare a.co_cycles b.co_cycles with 0 -> compare a.co_id b.co_id | c -> c)
      (Array.to_list t.cores)
  in
  assign_first_fit t order queue

(* Security first: flagged processes (suspicious code-cache miss in
   their last slice) are scheduled before everyone else and placed on
   a core of a *different* ISA than they are executing on, so the
   pending exploit state is destroyed by relocation. *)
let assign_security t queue =
  let flagged, calm =
    List.partition (fun pid -> Process.flagged (proc t pid) && Process.can_migrate (proc t pid)) queue
  in
  let taken = Hashtbl.create 8 in
  let used_cores = Hashtbl.create 8 in
  let assignments = ref [] in
  (* flagged: want an other-ISA core; fall back to any compatible *)
  List.iter
    (fun pid ->
      let p = proc t pid in
      let prefer isa (c : core) = c.co_isa = isa && not (Hashtbl.mem used_cores c.co_id) in
      let other = Desc.other (Process.active_isa p) in
      let slot =
        match Array.find_opt (prefer other) t.cores with
        | Some c -> Some (c, true)
        | None -> (
          match
            Array.find_opt
              (fun (c : core) -> (not (Hashtbl.mem used_cores c.co_id)) && compatible c p)
              t.cores
          with
          | Some c -> Some (c, false)
          | None -> None)
      in
      match slot with
      | Some (c, security) ->
        Hashtbl.replace taken pid ();
        Hashtbl.replace used_cores c.co_id ();
        assignments := (c, pid, security) :: !assignments
      | None -> ())
    flagged;
  let free_cores =
    List.filter (fun (c : core) -> not (Hashtbl.mem used_cores c.co_id)) (Array.to_list t.cores)
  in
  let rest = assign_first_fit t free_cores (List.filter (fun pid -> not (Hashtbl.mem taken pid)) calm) in
  List.rev_append !assignments rest

let assignments_of t queue =
  match t.policy with
  | Round_robin -> assign_round_robin t queue
  | Load_balance -> assign_load_balance t queue
  | Security_first -> assign_security t queue

(* --- the scheduling loop --- *)

let runnable_pids t = List.filter (fun pid -> Process.runnable (proc t pid)) t.queue

let all_done t = Array.for_all (fun p -> not (Process.runnable p)) t.procs

(* One scheduling round, in three stages.

   Prep (sequential, core order): cold flushes, migration requests,
   scheduler audit entries, and each slice's begin stamp (the core's
   cycle clock) are all decided before any slice runs.

   Run (parallel on [crew], serial without one): the slices
   themselves. Processes share no simulated state, each core has at
   most one assignment per round, and every scheduling input was fixed
   in prep — so executing them concurrently cannot change any
   simulation result. Shared observability is domain-safe (atomic
   counters, mutex-guarded histograms/spans/audit), and the exporters
   canonically re-sort, so exported files are byte-identical to the
   serial run too. Each slice gets a [schedule] span on its core's
   clock; the nested exec/translate/migration spans land under it via
   the per-domain stack.

   Account (sequential, core order): fold results into cores, the
   trace and the queue. With [timeline], the accounting stage ends by
   delta-sampling the CMP's obs context at the maximum core clock —
   after the Pool barrier, from the sequential section, so the
   timeline inherits the round's determinism. Returns how many slices
   ran. *)
let step ?crew ?timeline t =
  let queue = runnable_pids t in
  let assignments =
    (* sort by core id so execution order is the physical core order,
       whatever order the policy discovered the pairs in *)
    List.sort
      (fun ((a : core), _, _) (b, _, _) -> compare a.co_id b.co_id)
      (assignments_of t queue)
  in
  let observing = Obs.on t.obs in
  let prepped =
    List.map
      (fun ((core : core), pid, security) ->
        let p = proc t pid in
        let isa0 = Process.active_isa p in
        (* cold restart unless this exact process is back on the core
           it warmed up, with nobody having used it in between *)
        let cold =
          match (core.co_last, Process.last_core p) with
          | _, None -> false (* first slice: everything is cold already *)
          | Some last_pid, Some last_core -> last_pid <> pid || last_core <> core.co_id
          | None, Some _ -> true (* the process warmed up a different core *)
        in
        if cold then begin
          core.co_switches <- core.co_switches + 1;
          if observing then Obs.Metrics.incr t.c_switches;
          Machine.context_switch_flush (System.machine (Process.sys p))
        end;
        let migrated =
          (* a fresh request only — a cross-ISA slice while a migration
             is already pending (waiting for its equivalence point) is
             the same migration, not a new one *)
          if
            Process.can_migrate p && isa0 <> core.co_isa
            && not (System.migration_pending (Process.sys p))
          then begin
            Process.request_migration p;
            if observing then begin
              Obs.Metrics.incr (if security then t.c_mig_sec else t.c_mig_load);
              Obs.audit_emit t.obs ~cycle:core.co_cycles ~isa:(Isa.name core.co_isa) ~pid
                (Obs.Audit.Sched_migrate { core = core.co_id; security })
            end;
            true
          end
          else false
        in
        (core, pid, security, isa0, cold, migrated, core.co_cycles))
      assignments
  in
  let run_slice _ ((core : core), pid, _security, isa0, _cold, _migrated, begin_cycle) =
    let p = proc t pid in
    let sp =
      Obs.enter_span t.obs ~name:"schedule"
        ~attrs:
          [
            ("core", string_of_int core.co_id);
            ("isa", Isa.name core.co_isa);
            ("pid", string_of_int pid);
            ("proc", Process.name p);
            ("proc_isa", Isa.name isa0);
            ("round", string_of_int t.round);
          ]
        ~cycle:begin_cycle ()
    in
    let sl = Process.run_slice p ~fuel:t.quantum in
    (* end stamp on the core clock: begin + the cycles the slice
       actually accumulated, so per-core schedule-span totals
       reconcile with [cm_cycles] exactly *)
    Obs.exit_span t.obs sp ~cycle:(begin_cycle +. sl.System.sl_cycles);
    sl
  in
  let slices =
    match crew with
    | Some c -> Pool.crew_mapi c run_slice prepped
    | None -> List.mapi run_slice prepped
  in
  List.iter2
    (fun ((core : core), pid, security, isa0, cold, migrated, _) (sl : System.slice) ->
      let p = proc t pid in
      core.co_instructions <- core.co_instructions + sl.System.sl_instructions;
      core.co_cycles <- core.co_cycles +. sl.System.sl_cycles;
      core.co_slices <- core.co_slices + 1;
      core.co_last <- Some pid;
      Process.set_last_core p core.co_id;
      if observing then Obs.Metrics.incr t.c_slices;
      t.trace_rev <-
        {
          se_round = t.round;
          se_core = core.co_id;
          se_pid = pid;
          se_isa = isa0;
          se_instructions = sl.System.sl_instructions;
          se_switched = cold;
          se_migrated = migrated;
          se_security = security;
          se_done = not (Process.runnable p);
        }
        :: t.trace_rev)
    prepped slices;
  (* rotate: everyone who ran goes to the back, in run order *)
  let ran = List.map (fun (_, pid, _) -> pid) assignments in
  t.queue <-
    List.filter (fun pid -> not (List.mem pid ran)) t.queue
    @ List.filter (fun pid -> Process.runnable (proc t pid)) ran;
  t.round <- t.round + 1;
  if observing then Obs.Metrics.incr t.c_rounds;
  (match timeline with
  | None -> ()
  | Some tl ->
    let clock = Array.fold_left (fun acc c -> Float.max acc c.co_cycles) 0. t.cores in
    Obs.Timeline.sample tl ~key:"cmp" ~clock (Obs.snapshot t.obs));
  List.length assignments

(* One crew for the whole run, no wider than the core count: a round
   runs at most one slice per core, and a helper with nothing to claim
   would only slow every minor collection. *)
let run ?(jobs = 1) ?timeline t =
  Pool.with_crew ~jobs:(min jobs (Array.length t.cores)) (fun crew ->
      (* Termination: every slice burns quantum from some process's
         finite fuel budget, and a round with runnable processes always
         schedules at least one of them (every process is compatible
         with at least one core, checked at create). *)
      while not (all_done t) do
        let scheduled = step ~crew ?timeline t in
        if scheduled = 0 then
          (* defensive: cannot happen given the create-time check, but an
             infinite idle loop would be worse than a crash *)
          failwith "Cmp.run: no process schedulable"
      done)

(* --- results --- *)

type core_metrics = {
  cm_id : int;
  cm_isa : Desc.which;
  cm_instructions : int;
  cm_cycles : float;
  cm_slices : int;
  cm_switches : int;
}

type proc_metrics = {
  pm_pid : int;
  pm_name : string;
  pm_outcome : System.outcome option;
  pm_instructions : int;
  pm_cycles : float;
  pm_slices : int;
  pm_sched_migrations : int;
  pm_security_migrations : int;
  pm_forced_migrations : int;
  pm_cache_flushes : int;
  pm_cache_evictions : int;
  pm_memo_installs : int;
  pm_chain_follows : int;
  pm_ic_hits : int;
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

(* Host-side decode-cache chaining totals, summed over both cores'
   caches of the process's machine — host observability only, never
   part of the simulated cost model. *)
let sum_dc_stats p f =
  let m = System.machine (Process.sys p) in
  List.fold_left
    (fun acc which ->
      match Machine.decode_cache_stats m which with Some st -> acc + f st | None -> acc)
    0
    [ Desc.Cisc; Desc.Risc ]

let chain_follows p = sum_dc_stats p (fun st -> st.Hipstr_machine.Decode_cache.chain_follows)

let ic_hits p =
  sum_dc_stats p (fun st ->
      st.Hipstr_machine.Decode_cache.ic_mono_hits + st.Hipstr_machine.Decode_cache.ic_poly_hits)

let metrics t =
  let trace = List.rev t.trace_rev in
  let count f = List.length (List.filter f trace) in
  {
    m_rounds = t.round;
    m_slices = List.length trace;
    m_context_switches = count (fun e -> e.se_switched);
    m_migrations_security_policy = count (fun e -> e.se_migrated && e.se_security);
    m_migrations_load_policy = count (fun e -> e.se_migrated && not e.se_security);
    m_cores =
      Array.to_list
        (Array.map
           (fun c ->
             {
               cm_id = c.co_id;
               cm_isa = c.co_isa;
               cm_instructions = c.co_instructions;
               cm_cycles = c.co_cycles;
               cm_slices = c.co_slices;
               cm_switches = c.co_switches;
             })
           t.cores);
    m_procs =
      Array.to_list
        (Array.map
           (fun p ->
             {
               pm_pid = Process.pid p;
               pm_name = Process.name p;
               pm_outcome = Process.outcome p;
               pm_instructions = Process.instructions p;
               pm_cycles = Process.cycles p;
               pm_slices = Process.slices p;
               pm_sched_migrations = Process.sched_migrations p;
               pm_security_migrations = System.security_migrations (Process.sys p);
               pm_forced_migrations = System.forced_migrations (Process.sys p);
               pm_cache_flushes = System.cache_flushes (Process.sys p);
               pm_cache_evictions = System.cache_evictions (Process.sys p);
               pm_memo_installs = System.memo_installs (Process.sys p);
               pm_chain_follows = chain_follows p;
               pm_ic_hits = ic_hits p;
             })
           t.procs);
  }

let schedule t = List.rev t.trace_rev

let processes t = Array.to_list t.procs
let policy t = t.policy
let quantum t = t.quantum

let event_to_string t e =
  Printf.sprintf "round %4d core %d(%s) pid %d [%s] instrs=%-6d%s%s%s" e.se_round e.se_core
    (Isa.name t.cores.(e.se_core).co_isa)
    e.se_pid (Isa.name e.se_isa) e.se_instructions
    (if e.se_switched then " switch" else "")
    (if e.se_migrated then if e.se_security then " migrate(security)" else " migrate(load)" else "")
    (if e.se_done then " done" else "")

let schedule_to_string t =
  String.concat "\n" (List.map (event_to_string t) (schedule t))
