(* One schedulable process: its own address space, fat binary, PSR
   VMs and relocation seeds — a Hipstr.System — plus the runtime
   state the CMP scheduler reads and writes. *)

module System = Hipstr.System
module Desc = Hipstr_isa.Desc

type state = Runnable | Done of System.outcome

type t = {
  pid : int;
  name : string;
  sys : System.t;
  fuel_limit : int;
  mutable state : state;
  mutable slices : int;
  mutable instructions : int;
  mutable cycles : float;
  mutable seen_suspicious : int;
  mutable flagged : bool;
  mutable last_core : int option;
  mutable sched_migrations : int;
}

let fresh ~pid ~name ~fuel sys =
  {
    pid;
    name;
    sys;
    fuel_limit = fuel;
    state = Runnable;
    slices = 0;
    instructions = 0;
    cycles = 0.;
    seen_suspicious = 0;
    flagged = false;
    last_core = None;
    sched_migrations = 0;
  }

let create ?obs ?cfg ?(seed = 1) ?(start_isa = Desc.Cisc) ?decode_cache ?spare ~mode
    ~pid ~name ~fuel fb =
  if fuel < 1 then invalid_arg "Process.create: fuel must be positive";
  fresh ~pid ~name ~fuel
    (System.of_fatbin ?obs ?cfg ~seed ~start_isa ~pid ?decode_cache ?spare ~mode fb)

let pid t = t.pid
let name t = t.name
let sys t = t.sys
let state t = t.state
let runnable t = t.state = Runnable
let active_isa t = System.active_isa t.sys
let can_migrate t = System.mode t.sys = System.Hipstr
let flagged t = t.flagged
let slices t = t.slices
let instructions t = t.instructions
let cycles t = t.cycles
let sched_migrations t = t.sched_migrations
let fuel_left t = t.fuel_limit - t.instructions

let ipc t = if t.cycles > 0. then float_of_int t.instructions /. t.cycles else 0.

let last_core t = t.last_core
let set_last_core t c = t.last_core <- Some c

(* A scheduler-initiated cross-ISA placement: the migration fires at
   the process's next equivalence point (return event), exactly like
   a Figure-12 forced checkpoint. *)
let request_migration t =
  if not (can_migrate t) then invalid_arg "Process.request_migration: not in Hipstr mode";
  if not (System.migration_pending t.sys) then begin
    System.request_migration t.sys;
    t.sched_migrations <- t.sched_migrations + 1
  end

let outcome t = match t.state with Done o -> Some o | Runnable -> None

(* Run one quantum. The fuel budget is the termination guarantee: a
   process that exhausts it is Done Out_of_fuel and never scheduled
   again. *)
let run_slice t ~fuel =
  if not (runnable t) then invalid_arg "Process.run_slice: process is done";
  let fuel = min fuel (fuel_left t) in
  let sl = System.run_slice t.sys ~fuel in
  t.slices <- t.slices + 1;
  t.instructions <- t.instructions + sl.System.sl_instructions;
  t.cycles <- t.cycles +. sl.System.sl_cycles;
  let susp = System.suspicious_events t.sys in
  t.flagged <- susp > t.seen_suspicious;
  t.seen_suspicious <- susp;
  (match sl.System.sl_outcome with
  | System.Out_of_fuel -> if fuel_left t <= 0 then t.state <- Done System.Out_of_fuel
  | o -> t.state <- Done o);
  sl

(* --- snapshot ------------------------------------------------------ *)
(* The scheduler-visible runtime slice only; the System underneath is
   serialized separately (Hipstr_snapshot owns that framing) and is
   paired back up through [sync io (blank sys)]. *)

module Wire = Hipstr_util.Wire
module C = Wire.C

let outcome_codec =
  C.sum
    (function System.Finished _ -> 0 | Shell_spawned -> 1 | Killed _ -> 2 | Out_of_fuel -> 3)
    [|
      C.conv (fun c -> System.Finished c) (function System.Finished c -> c | _ -> 0) C.int;
      C.const System.Shell_spawned;
      C.conv (fun m -> System.Killed m) (function System.Killed m -> m | _ -> "") C.str;
      C.const System.Out_of_fuel;
    |]

let state_codec =
  C.sum
    (function Runnable -> 0 | Done _ -> 1)
    [|
      C.const Runnable;
      C.conv (fun o -> Done o) (function Done o -> o | Runnable -> Out_of_fuel) outcome_codec;
    |]

let sync io p =
  let io = Wire.section io "PROC" in
  let pid = Wire.field io "pid" C.int p.pid in
  let name = Wire.field io "name" C.str p.name in
  let fuel_limit = Wire.field io "fuel_limit" C.int p.fuel_limit in
  let state = Wire.field io "state" state_codec p.state in
  let slices = Wire.field io "slices" C.int p.slices in
  let instructions = Wire.field io "instructions" C.int p.instructions in
  let cycles = Wire.field io "cycles" C.float p.cycles in
  let seen_suspicious = Wire.field io "seen_suspicious" C.int p.seen_suspicious in
  let flagged = Wire.field io "flagged" C.bool p.flagged in
  (* core warmth never survives a pool change: the process lands on
     fresh silicon, so its first slice there is a cold switch; the
     field is read and dropped *)
  ignore (Wire.field io "last_core" (C.option C.int) p.last_core);
  let sched_migrations = Wire.field io "sched_migrations" C.int p.sched_migrations in
  {
    pid;
    name;
    sys = p.sys;
    fuel_limit;
    state;
    slices;
    instructions;
    cycles;
    seen_suspicious;
    flagged;
    last_core = None;
    sched_migrations;
  }

let blank sys = fresh ~pid:0 ~name:"" ~fuel:0 sys
