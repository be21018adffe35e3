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

let create ?obs ?cfg ?(seed = 1) ?(start_isa = Desc.Cisc) ?decode_cache ?chain ~mode ~pid
    ~name ~fuel fb =
  if fuel < 1 then invalid_arg "Process.create: fuel must be positive";
  {
    pid;
    name;
    sys = System.of_fatbin ?obs ?cfg ~seed ~start_isa ~pid ?decode_cache ?chain ~mode fb;
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

let of_source ?obs ?cfg ?seed ?start_isa ?decode_cache ?chain ~mode ~pid ~name ~fuel src =
  create ?obs ?cfg ?seed ?start_isa ?decode_cache ?chain ~mode ~pid ~name ~fuel
    (Hipstr_compiler.Compile.to_fatbin src)

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
   paired back up by [reconstitute]. *)

module Wire = Hipstr_util.Wire

let save_outcome w (o : System.outcome) =
  match o with
  | System.Finished c ->
    Wire.u8 w 0;
    Wire.int w c
  | System.Shell_spawned -> Wire.u8 w 1
  | System.Killed msg ->
    Wire.u8 w 2;
    Wire.str w msg
  | System.Out_of_fuel -> Wire.u8 w 3

let load_outcome r =
  match Wire.r_u8 r with
  | 0 -> System.Finished (Wire.r_int r)
  | 1 -> System.Shell_spawned
  | 2 -> System.Killed (Wire.r_str r)
  | 3 -> System.Out_of_fuel
  | n -> Wire.corrupt "unknown outcome tag %d" n

let save w t =
  Wire.tag w "PROC";
  Wire.int w t.pid;
  Wire.str w t.name;
  Wire.int w t.fuel_limit;
  (match t.state with
  | Runnable -> Wire.u8 w 0
  | Done o ->
    Wire.u8 w 1;
    save_outcome w o);
  Wire.int w t.slices;
  Wire.int w t.instructions;
  Wire.float w t.cycles;
  Wire.int w t.seen_suspicious;
  Wire.bool w t.flagged;
  Wire.option w Wire.int t.last_core;
  Wire.int w t.sched_migrations

let reconstitute ~sys r =
  Wire.expect_tag r "PROC";
  let pid = Wire.r_int r in
  let name = Wire.r_str r in
  let fuel_limit = Wire.r_int r in
  let state =
    match Wire.r_u8 r with
    | 0 -> Runnable
    | 1 -> Done (load_outcome r)
    | n -> Wire.corrupt "unknown process-state tag %d" n
  in
  let slices = Wire.r_int r in
  let instructions = Wire.r_int r in
  let cycles = Wire.r_float r in
  let seen_suspicious = Wire.r_int r in
  let flagged = Wire.r_bool r in
  let (_ : int option) = Wire.r_option r Wire.r_int in
  let sched_migrations = Wire.r_int r in
  {
    pid;
    name;
    sys;
    fuel_limit;
    state;
    slices;
    instructions;
    cycles;
    seen_suspicious;
    flagged;
    (* core warmth never survives a pool change: the process lands on
       fresh silicon, so its first slice there is a cold switch *)
    last_core = None;
    sched_migrations;
  }
