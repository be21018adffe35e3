module System = Hipstr.System
module Machine = Hipstr_machine.Machine
module Cpu = Hipstr_machine.Cpu
module Workloads = Hipstr_workloads.Workloads
module Surface = Hipstr_attacks.Surface
module Stats = Hipstr_util.Stats
open Hipstr_isa

type perf = {
  pf_cycles : float;
  pf_instructions : int;
  pf_calls : int;
  pf_returns : int;
  pf_seconds : float;
}

let run_workload ?cfg ?(seed = 1) ?(isa = Desc.Cisc) ~mode (w : Workloads.t) =
  let sys = System.of_fatbin ?cfg ~seed ~start_isa:isa ~mode (Workloads.fatbin w) in
  (match System.run sys ~fuel:(3 * w.w_fuel) with
  | System.Finished _ -> ()
  | System.Shell_spawned -> failwith (w.w_name ^ ": unexpected shell")
  | System.Killed m -> failwith (w.w_name ^ ": killed: " ^ m)
  | System.Out_of_fuel -> failwith (w.w_name ^ ": out of fuel"));
  let m = System.machine sys in
  let p = (Machine.cpu m).Cpu.perf in
  ( sys,
    {
      pf_cycles = Cpu.cycles p;
      pf_instructions = p.instructions;
      pf_calls = p.calls;
      pf_returns = p.returns;
      pf_seconds = Machine.seconds m;
    } )

let perf_now sys =
  let m = System.machine sys in
  let p = (Machine.cpu m).Cpu.perf in
  {
    pf_cycles = Cpu.cycles p;
    pf_instructions = p.instructions;
    pf_calls = p.calls;
    pf_returns = p.returns;
    pf_seconds = Machine.seconds m;
  }

(* The baseline memo caches are shared across experiments — and, when
   a sweep runs under Cmp.Pool, across domains. Computing under the
   lock makes each baseline run exactly once process-wide, so a
   parallel sweep performs the identical set of simulations as a
   serial one. *)
let memo mu cache key compute =
  Mutex.protect mu (fun () ->
      match Hashtbl.find_opt cache key with
      | Some v -> v
      | None ->
        let v = compute () in
        Hashtbl.replace cache key v;
        v)

let native_cache : (string, perf) Hashtbl.t = Hashtbl.create 16
let native_mu = Mutex.create ()

let native_perf (w : Workloads.t) =
  memo native_mu native_cache w.w_name (fun () ->
      let _, p = run_workload ~mode:System.Native w in
      p)

let relative ~native p = native.pf_cycles /. p.pf_cycles

let run_steady ?cfg ?(seed = 1) ?(isa = Desc.Cisc) ~mode (w : Workloads.t) =
  let warmup = max 1000 ((native_perf w).pf_instructions / 4) in
  let sys = System.of_fatbin ?cfg ~seed ~start_isa:isa ~mode (Workloads.fatbin w) in
  (match System.run sys ~fuel:warmup with
  | System.Out_of_fuel -> ()
  | System.Finished _ -> () (* tiny program: whole run is the window *)
  | o ->
    failwith
      (w.w_name ^ ": warmup stopped: "
      ^ (match o with System.Killed m -> m | _ -> "shell")));
  let before = perf_now sys in
  let mig_before = System.security_migrations sys in
  (match System.run sys ~fuel:(3 * w.w_fuel) with
  | System.Finished _ -> ()
  | System.Out_of_fuel -> failwith (w.w_name ^ ": out of fuel (steady)")
  | System.Killed m -> failwith (w.w_name ^ ": killed (steady): " ^ m)
  | System.Shell_spawned -> failwith (w.w_name ^ ": shell"));
  let after = perf_now sys in
  ( sys,
    {
      pf_cycles = after.pf_cycles -. before.pf_cycles;
      pf_instructions = after.pf_instructions - before.pf_instructions;
      pf_calls = after.pf_calls - before.pf_calls;
      pf_returns = after.pf_returns - before.pf_returns;
      pf_seconds = after.pf_seconds -. before.pf_seconds;
    },
    System.security_migrations sys - mig_before )

let native_steady_cache : (string, perf) Hashtbl.t = Hashtbl.create 16
let native_steady_mu = Mutex.create ()

let native_steady (w : Workloads.t) =
  memo native_steady_mu native_steady_cache w.w_name (fun () ->
      let _, p, _ = run_steady ~mode:System.Native w in
      p)

let surface_cache : (string, Surface.report) Hashtbl.t = Hashtbl.create 16
let surface_mu = Mutex.create ()

let surface_of (w : Workloads.t) =
  memo surface_mu surface_cache w.w_name (fun () ->
      Surface.analyze ~seed:1 ~name:w.w_name (Workloads.fatbin w) Desc.Cisc)

let spec_workloads = Workloads.all
let with_httpd = Workloads.all @ [ Workloads.httpd ]

let pct = Stats.percent
