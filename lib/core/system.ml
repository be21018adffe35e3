open Hipstr_isa
module Compile = Hipstr_compiler.Compile
module Fatbin = Hipstr_compiler.Fatbin
module Machine = Hipstr_machine.Machine
module Exec = Hipstr_machine.Exec
module Sys' = Hipstr_machine.Sys
module Config = Hipstr_psr.Config
module Vm = Hipstr_psr.Vm
module Code_cache = Hipstr_psr.Code_cache
module Transform = Hipstr_migration.Transform
module Rng = Hipstr_util.Rng
module Obs = Hipstr_obs.Obs

type mode = Native | Psr_only | Hipstr

type outcome = Finished of int | Shell_spawned | Killed of string | Out_of_fuel

type t = {
  sys_mode : mode;
  cfg : Config.t;
  fb : Fatbin.t;
  m : Machine.t;
  vms : (Desc.which * Vm.t) list;
  rng : Rng.t;
  observ : Obs.t;
  c_sec_mig : Obs.Metrics.counter;
  c_forced_mig : Obs.Metrics.counter;
  mutable started : bool;
  mutable security_migrations : int;
  mutable forced_migrations : int;
  mutable migration_requested : bool;
  mutable last_migration : Transform.result option;
  sys_seed : int;
  sys_start_isa : Desc.which;
}

let boot_system ?(obs = Obs.global) ?(cfg = Config.default) ?(seed = 1) ?(start_isa = Desc.Cisc)
    ?(pid = 0) ?(decode_cache = true) ?(boot = true) ?spare ~mode fb =
  let rat_capacity = match mode with Native -> None | Psr_only | Hipstr -> Some cfg.rat_capacity in
  let m = Machine.create ~obs ~rat_capacity ~decode_cache ?spare ~active:start_isa () in
  Machine.set_owner m pid;
  Fatbin.load fb (Machine.mem m);
  if boot then Machine.boot m ~entry:(Fatbin.entry fb start_isa);
  let vms =
    match mode with
    | Native -> []
    | Psr_only -> [ (start_isa, Vm.create cfg ~seed start_isa fb m) ]
    | Hipstr ->
      [
        (Desc.Cisc, Vm.create cfg ~seed Desc.Cisc fb m);
        (Desc.Risc, Vm.create cfg ~seed Desc.Risc fb m);
      ]
  in
  {
    sys_mode = mode;
    cfg;
    fb;
    m;
    vms;
    rng = Rng.create (seed lxor 0x600D);
    observ = obs;
    c_sec_mig = Obs.Metrics.counter (Obs.metrics obs) "system.migrations.security";
    c_forced_mig = Obs.Metrics.counter (Obs.metrics obs) "system.migrations.forced";
    started = false;
    security_migrations = 0;
    forced_migrations = 0;
    migration_requested = false;
    last_migration = None;
    sys_seed = seed;
    sys_start_isa = start_isa;
  }

let of_fatbin ?obs ?cfg ?seed ?start_isa ?pid ?decode_cache ?boot ?spare ~mode fb =
  boot_system ?obs ?cfg ?seed ?start_isa ?pid ?decode_cache ?boot ?spare ~mode fb

let create ?obs ?cfg ?seed ?start_isa ?pid ?decode_cache ?boot ~mode ~src () =
  boot_system ?obs ?cfg ?seed ?start_isa ?pid ?decode_cache ?boot ~mode
    (Compile.to_fatbin src)

let fatbin t = t.fb
let machine t = t.m
let mode t = t.sys_mode
let config t = t.cfg
let seed t = t.sys_seed
let start_isa t = t.sys_start_isa
let obs t = t.observ
let metrics t = Obs.Metrics.snapshot (Obs.metrics t.observ)

(* A process kill is an observable event: the defense destroying an
   exploit is exactly what the paper's security tables count. Every
   kill goes through here, so each leaves one audit entry. *)
let killed t msg =
  Obs.audit_emit t.observ ~cycle:(Machine.cycles t.m)
    ~isa:(Isa.name (Machine.active t.m))
    ~pid:(Machine.owner t.m)
    (Obs.Audit.Fault { reason = msg });
  Killed msg

let vm t which =
  match List.assoc_opt which t.vms with
  | Some v -> v
  | None -> invalid_arg "System.vm: no PSR VM in this mode/ISA"

let active_vm t = vm t (Machine.active t.m)
let other_vm t = List.assoc_opt (Desc.other (Machine.active t.m)) t.vms

let output t = Sys'.output (Machine.os t.m)
let shell t = (Machine.os t.m).Sys'.shell
let cycles t = Machine.cycles t.m
let instructions t = Machine.instructions t.m
let seconds t = Machine.seconds t.m
let security_migrations t = t.security_migrations
let forced_migrations t = t.forced_migrations
let last_migration t = t.last_migration

let suspicious_events t =
  List.fold_left (fun acc (_, v) -> acc + (Vm.stats v).Vm.suspicious) 0 t.vms

let cache_flushes t =
  List.fold_left (fun acc (_, v) -> acc + Code_cache.flushes (Vm.cache v)) 0 t.vms

let cache_evictions t =
  List.fold_left (fun acc (_, v) -> acc + (Vm.stats v).Vm.evictions) 0 t.vms

let memo_installs t =
  List.fold_left (fun acc (_, v) -> acc + (Vm.stats v).Vm.memo_installs) 0 t.vms

let retranslate_cycles t =
  List.fold_left (fun acc (_, v) -> acc +. (Vm.stats v).Vm.retranslate_cycles) 0. t.vms

let request_migration t =
  if t.sys_mode = Hipstr then begin
    t.migration_requested <- true;
    (* force the next return through the VM so we get a hook *)
    match (Machine.env t.m).Exec.rat with
    | Some rat -> Hipstr_machine.Rat.clear rat
    | None -> ()
  end

(* Mirror compulsory translations onto the idle core: a unit start
   that is a block entry or call-site return on this ISA has a
   well-defined counterpart on the other. *)
let mirror_translations t =
  match (t.sys_mode, other_vm t) with
  | Hipstr, Some ovm ->
    let from_isa = Machine.active t.m in
    let to_isa = Desc.other from_isa in
    List.iter
      (fun src ->
        let counterpart =
          match Fatbin.block_starting_at t.fb from_isa src with
          | Some (fs, l) -> Some (Fatbin.image fs to_isa).Fatbin.im_block_addr.(l)
          | None -> (
            match Fatbin.callsite_of_ret t.fb from_isa src with
            | Some (fs, site) -> Fatbin.callsite_ret fs to_isa site
            | None -> None)
        in
        match counterpart with
        | Some dst -> ignore (Vm.pretranslate ovm dst)
        | None -> ())
      (Vm.drain_new_units (active_vm t))
  | _ -> (
    match t.vms with
    | [ (_, v) ] -> ignore (Vm.drain_new_units v)
    | _ -> ())

let psr_mode t =
  Transform.Psr
    {
      map_from = (fun fs -> Vm.map_of (vm t (Machine.active t.m)) fs);
      map_to = (fun fs -> Vm.map_of (vm t (Desc.other (Machine.active t.m))) fs);
    }

(* Perform a migration for a suspicious (or forced) event. Returns the
   outcome if the process dies, None to continue. *)
let migrate_inner t ~forced kind target_src =
  let mode_ = psr_mode t in
  let result =
    match kind with
    | Vm.Kreturn -> Transform.at_return t.m t.fb mode_ ~target_src
    | Vm.Kicall { call_src; nargs; _ } ->
      Transform.at_call t.m t.fb mode_ ~call_src ~target_src ~nargs
  in
  t.last_migration <- Some result;
  if Obs.on t.observ then Obs.Metrics.incr (if forced then t.c_forced_mig else t.c_sec_mig);
  match result.Transform.r_resume_src with
  | None -> Some (killed t "migration: unmappable control-flow target (exploit destroyed)")
  | Some resume -> (
    let nvm = active_vm t in
    match kind with
    | Vm.Kreturn ->
      Vm.enter nvm resume;
      None
    | Vm.Kicall { src_ret; is_call; _ } ->
      if is_call then begin
        let from_isa = Desc.other (Machine.active t.m) in
        let src_ret' =
          match Fatbin.callsite_of_ret t.fb from_isa src_ret with
          | Some (fs, site) -> (
            match Fatbin.callsite_ret fs (Machine.active t.m) site with
            | Some r -> r
            | None -> src_ret)
          | None -> src_ret
        in
        Vm.complete_call nvm ~callee_src:resume ~src_ret:src_ret';
        None
      end
      else begin
        Vm.enter nvm resume;
        None
      end)

(* The [migration] span covers the full software cost of one ISA
   switch: stack transformation (a nested span), the destination-side
   re-entry translations, and call completion. The audit records the
   decision's outcome. *)
let migrate t ~forced kind target_src =
  let from_isa = Isa.name (Machine.active t.m) in
  let sp =
    Obs.enter_span t.observ ~name:"migration"
      ~attrs:
        [
          ("from", from_isa);
          ("forced", string_of_bool forced);
          ("pid", string_of_int (Machine.owner t.m));
        ]
      ~cycle:(Machine.cycles t.m) ()
  in
  let r = migrate_inner t ~forced kind target_src in
  Obs.exit_span t.observ sp ~cycle:(Machine.cycles t.m);
  (if Obs.on t.observ then
     let outcome = match r with Some _ -> "killed" | None -> "resumed" in
     let frames, words, cost =
       match t.last_migration with
       | Some res -> (res.Transform.r_frames, res.Transform.r_words, res.Transform.r_cycles)
       | None -> (0, 0, 0.)
     in
     Obs.audit_emit t.observ ~cycle:(Machine.cycles t.m)
       ~isa:(Isa.name (Machine.active t.m))
       ~pid:(Machine.owner t.m)
       (Obs.Audit.Migration
          {
            to_isa = Isa.name (Machine.active t.m);
            forced;
            frames;
            words;
            cost_cycles = cost;
            outcome;
          }));
  r

let run_native t ~fuel =
  match Machine.run t.m ~fuel with
  | None -> Out_of_fuel
  | Some (Exec.Exit c) -> Finished c
  | Some Exec.Shell -> Shell_spawned
  | Some (Exec.Fault _ as trap) -> killed t (Exec.string_of_trap trap)
  | Some (Exec.Trap_stub _ | Exec.Rat_miss _) -> killed t "unexpected trap in native mode"

let run_protected t ~fuel =
  if not t.started then begin
    t.started <- true;
    Vm.enter (active_vm t) (Fatbin.entry t.fb (Machine.active t.m));
    mirror_translations t
  end;
  let remaining = ref fuel in
  let result = ref None in
  while !result = None && !remaining > 0 do
    let before = Machine.instructions t.m in
    let stop = Machine.run t.m ~fuel:!remaining in
    remaining := !remaining - (Machine.instructions t.m - before);
    match stop with
    | None -> result := Some Out_of_fuel
    | Some (Exec.Exit c) -> result := Some (Finished c)
    | Some Exec.Shell -> result := Some Shell_spawned
    | Some (Exec.Fault _ as trap) -> result := Some (killed t (Exec.string_of_trap trap))
    | Some ((Exec.Trap_stub _ | Exec.Rat_miss _) as trap) -> (
      let v = active_vm t in
      let finish_resolution = function
        | Vm.Continue -> mirror_translations t
        | Vm.Exit c -> result := Some (Finished c)
        | Vm.Fault f -> result := Some (killed t f)
      in
      (* A requested (performance/measurement) migration fires at the
         next return event, suspicious or not. *)
      match trap with
      | Exec.Rat_miss src
        when t.migration_requested && t.sys_mode = Hipstr
             && src <> Hipstr_machine.Layout.exit_sentinel
             && Fatbin.callsite_of_ret t.fb (Machine.active t.m) src <> None -> (
        t.migration_requested <- false;
        t.forced_migrations <- t.forced_migrations + 1;
        Obs.audit_emit t.observ ~cycle:(Machine.cycles t.m)
          ~isa:(Isa.name (Machine.active t.m))
          ~pid:(Machine.owner t.m)
          (Obs.Audit.Decision { target_src = src; migrate = true; forced = true });
        match migrate t ~forced:true Vm.Kreturn src with
        | Some final -> result := Some final
        | None -> mirror_translations t)
      | _ -> (
      match Vm.on_trap v trap with
      | Vm.Benign r -> finish_resolution r

      | Vm.Suspicious { target_src; kind; resolve } ->
        let forced = t.migration_requested in
        let probabilistic =
          t.sys_mode = Hipstr && Rng.float t.rng < t.cfg.Config.migrate_prob
        in
        let will_migrate = t.sys_mode = Hipstr && (forced || probabilistic) in
        Obs.audit_emit t.observ ~cycle:(Machine.cycles t.m)
          ~isa:(Isa.name (Machine.active t.m))
          ~pid:(Machine.owner t.m)
          (Obs.Audit.Decision { target_src; migrate = will_migrate; forced });
        if will_migrate then begin
          t.migration_requested <- false;
          if forced then t.forced_migrations <- t.forced_migrations + 1
          else t.security_migrations <- t.security_migrations + 1;
          match migrate t ~forced kind target_src with
          | Some final -> result := Some final
          | None -> mirror_translations t
        end
        else finish_resolution (resolve ())))
  done;
  match !result with Some r -> r | None -> Out_of_fuel

(* One [exec] span per run call, stamped on the machine's cycle
   clock: every cycle the system ever charges (execution, VM service,
   migration) lands inside some run call, so the exec-span total
   reconciles with [cycles t] exactly. *)
let run t ~fuel =
  let sp =
    Obs.enter_span t.observ ~name:"exec"
      ~attrs:
        [
          ("isa", Isa.name (Machine.active t.m));
          ("pid", string_of_int (Machine.owner t.m));
        ]
      ~cycle:(Machine.cycles t.m) ()
  in
  let r =
    match t.sys_mode with
    | Native -> run_native t ~fuel
    | Psr_only | Hipstr -> run_protected t ~fuel
  in
  Obs.exit_span t.observ sp ~cycle:(Machine.cycles t.m);
  r

let active_isa t = Machine.active t.m

let migration_pending t = t.migration_requested

type slice = { sl_outcome : outcome; sl_instructions : int; sl_cycles : float }

(* One scheduler quantum: run and report the work actually done, so a
   CMP can attribute instructions/cycles to the core the slice ran
   on. Fuel stays cumulative across slices — slicing a run changes
   nothing about its semantics. *)
let run_slice t ~fuel =
  let i0 = instructions t and c0 = cycles t in
  let outcome = run t ~fuel in
  { sl_outcome = outcome; sl_instructions = instructions t - i0; sl_cycles = cycles t -. c0 }

(* --- snapshot ------------------------------------------------------ *)
(* The system-level slice: scheduler-visible flags and counters, the
   migration-decision rng, the machine, and each VM. Guest memory and
   the manifest framing around all of this belong to [Hipstr_snapshot];
   [last_migration] is a transient measurement of the most recent
   transform and does not travel: a restored system starts without
   one. *)

module Wire = Hipstr_util.Wire
module C = Wire.C

let mode_codec = C.enum [| Native; Psr_only; Hipstr |]
let mode_name = function Native -> "native" | Psr_only -> "psr" | Hipstr -> "hipstr"

let mode_of_name s =
  match String.lowercase_ascii s with
  | "native" -> Some Native
  | "psr" -> Some Psr_only
  | "hipstr" -> Some Hipstr
  | _ -> None

let rewritten_unit t =
  List.find_map
    (fun (which, v) -> Option.map (fun src -> (which, src)) (Vm.rewritten_unit v))
    t.vms

(* One record per VM, each tagged with its ISA. Reading walks this
   system's VMs in the same order and demands exactly as many records
   as it has VMs. *)
let sync_vms io t sync =
  let n = List.length t.vms in
  ignore (Wire.field io "vms" (C.int_in ~lo:n ~hi:n) n);
  List.iter
    (fun (which, v) ->
      let isa = Wire.field io "isa" Isa.codec which in
      if isa <> which then
        Wire.corrupt "%s VM record where this system has %s" (Isa.name isa) (Isa.name which);
      sync io v)
    t.vms

let sync_state io t =
  let io = Wire.section io "SYSTEM" in
  let mode = Wire.field io "mode" mode_codec t.sys_mode in
  if mode <> t.sys_mode then
    Wire.corrupt "image was taken in mode %s, this system is mode %s" (mode_name mode)
      (mode_name t.sys_mode);
  t.started <- Wire.field io "started" C.bool t.started;
  t.security_migrations <- Wire.field io "security_migrations" C.int t.security_migrations;
  t.forced_migrations <- Wire.field io "forced_migrations" C.int t.forced_migrations;
  t.migration_requested <- Wire.field io "migration_requested" C.bool t.migration_requested;
  Rng.set_state t.rng (Wire.field io "rng" C.i64 (Rng.state t.rng));
  Machine.sync io t.m;
  sync_vms io t Vm.sync_state

let save_state w t = sync_state (Wire.writing w) t
let sync_memo io t = sync_vms (Wire.section io "MEMO") t Vm.sync_meta

let forget_memo t = List.iter (fun (_, v) -> Vm.forget_memo v) t.vms
