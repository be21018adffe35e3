(* The CMP scheduler and the Domain pool.

   Two contracts are under test. (1) Scheduling is semantically
   invisible: a process time-sliced across a mixed-ISA CMP — cold
   context switches, cross-ISA placement, equivalence-point
   migrations and all — produces exactly the output, outcome and
   shell state of its standalone System run with the same seed.
   (2) Parallelism is deterministic: a Pool run with ~jobs:4 is
   bit-identical to ~jobs:1 — same results in the same order, same
   merged observability totals — because results are indexed by task,
   per-task randomness derives only from (seed, index), and child obs
   contexts merge in task order. *)

module Desc = Hipstr_isa.Desc
module System = Hipstr.System
module Config = Hipstr_psr.Config
module Workloads = Hipstr_workloads.Workloads
module Registry = Hipstr_experiments.Registry
module Obs = Hipstr_obs.Obs
module Cmp = Hipstr_cmp.Cmp
module Process = Hipstr_cmp.Process
module Pool = Hipstr_cmp.Pool

(* --- helpers --- *)

let mk_proc ?(obs = Obs.disabled) ?cfg ~mode ~fuel ~seed ~start_isa ~pid name =
  let w = Workloads.find name in
  Process.create ~obs ?cfg ~seed ~start_isa ~mode ~pid ~name:w.Workloads.w_name ~fuel
    (Workloads.fatbin w)

(* The four cheapest workloads that all finish well under their fuel. *)
let quad = [ "gobmk"; "httpd"; "mcf"; "bzip2" ]

let quad_procs ?obs ?cfg ~mode ~fuel () =
  List.mapi
    (fun i name ->
      mk_proc ?obs ?cfg ~mode ~fuel ~seed:(i + 1)
        ~start_isa:(if i mod 2 = 0 then Desc.Cisc else Desc.Risc)
        ~pid:i name)
    quad

let outputs cmp =
  List.map (fun p -> System.output (Process.sys p)) (Cmp.processes cmp)

(* --- the Pool --- *)

let test_pool_map_matches_serial () =
  let items = List.init 40 (fun i -> i) in
  let f x = (x * x) + 7 in
  let serial = Pool.map ~jobs:1 f items in
  Alcotest.(check (list int)) "jobs:1 = List.map" (List.map f items) serial;
  Alcotest.(check (list int)) "jobs:4 = jobs:1" serial (Pool.map ~jobs:4 f items);
  Alcotest.(check (list int)) "jobs > items" serial (Pool.map ~jobs:64 f items);
  Alcotest.(check (list int)) "empty list" [] (Pool.map ~jobs:4 f [])

let test_pool_mapi_seeded_deterministic () =
  let items = List.init 24 (fun i -> i) in
  let f rng i x = (i, x, Hipstr_util.Rng.int rng 1_000_000) in
  let a = Pool.mapi_seeded ~jobs:1 ~seed:42 f items in
  let b = Pool.mapi_seeded ~jobs:4 ~seed:42 f items in
  Alcotest.(check bool) "same draws whatever the domain count" true (a = b);
  let c = Pool.mapi_seeded ~jobs:4 ~seed:43 f items in
  Alcotest.(check bool) "seed actually feeds the rngs" true (a <> c)

let test_pool_map_obs_merges_exactly () =
  let count obs = Obs.Metrics.counter_value (Obs.snapshot obs) "work.done" in
  let work obs x =
    let c = Obs.Metrics.counter (Obs.metrics obs) "work.done" in
    Obs.Metrics.incr ~by:x c;
    x
  in
  let items = List.init 32 (fun i -> i + 1) in
  let expected = List.fold_left ( + ) 0 items in
  let serial_obs = Obs.create ~sink:Obs.Sink.null () in
  ignore (Pool.map_obs ~jobs:1 ~obs:serial_obs work items);
  let par_obs = Obs.create ~sink:Obs.Sink.null () in
  ignore (Pool.map_obs ~jobs:4 ~obs:par_obs work items);
  Alcotest.(check int) "serial total" expected (count serial_obs);
  Alcotest.(check int) "parallel total identical" expected (count par_obs)

let test_pool_error_propagates () =
  let boom i _ = if i = 3 then failwith "task-3" else i in
  match Pool.mapi ~jobs:4 boom (List.init 8 (fun i -> i)) with
  | exception Failure m -> Alcotest.(check string) "the failing task's exception" "task-3" m
  | _ -> Alcotest.fail "exception swallowed by the pool"

(* One crew, many calls: the helpers outlive each call and serve the
   next one, and every call still equals its serial counterpart. *)
let test_crew_serves_many_calls () =
  Pool.with_crew ~jobs:3 (fun crew ->
      for call = 1 to 200 do
        let items = List.init (call mod 9) (fun i -> (call * 31) + i) in
        let f i x = (i * 1000) + (x * x) in
        Alcotest.(check (list int))
          (Printf.sprintf "call %d = List.mapi" call)
          (List.mapi f items) (Pool.crew_mapi crew f items)
      done)

(* A failing call re-raises its lowest-index exception and leaves the
   crew idle and whole: the next call on it runs clean. *)
let test_crew_reraises_then_serves () =
  Pool.with_crew ~jobs:4 (fun crew ->
      let boom i x = if i = 5 || i = 2 then failwith (Printf.sprintf "task-%d" i) else x in
      (match Pool.crew_mapi crew boom (List.init 16 (fun i -> i)) with
      | exception Failure m -> Alcotest.(check string) "lowest-index failure wins" "task-2" m
      | _ -> Alcotest.fail "exception swallowed by the crew");
      let items = List.init 16 (fun i -> i) in
      Alcotest.(check (list int)) "the same crew then serves a clean call" items
        (Pool.crew_mapi crew (fun _ x -> x) items))

(* Leaving the scope by an exception still dismisses and joins every
   helper: the test returns instead of hanging on a live domain. *)
exception Body_failed

let test_crew_joins_on_raise () =
  match
    Pool.with_crew ~jobs:3 (fun crew ->
        ignore (Pool.crew_mapi crew (fun i x -> i + x) (List.init 8 (fun i -> i)));
        raise Body_failed)
  with
  | exception Body_failed -> ()
  | () -> Alcotest.fail "body exception swallowed"

let test_obs_counter_domain_hammer () =
  (* 4 domains x 100k increments on one counter: the exact total must
     survive, which is precisely what a non-atomic int would lose. *)
  let obs = Obs.create ~sink:Obs.Sink.null () in
  let c = Obs.Metrics.counter (Obs.metrics obs) "hammer" in
  let per_domain = 100_000 in
  let hit () =
    for _ = 1 to per_domain do
      Obs.Metrics.incr c
    done
  in
  let domains = List.init 4 (fun _ -> Domain.spawn hit) in
  List.iter Domain.join domains;
  Alcotest.(check int) "exact total" (4 * per_domain) (Obs.Metrics.value c)

(* --- scheduler determinism --- *)

let test_schedule_deterministic () =
  let build () =
    let cmp =
      Cmp.create ~obs:Obs.disabled ~policy:Cmp.Security_first ~quantum:3_000
        (quad_procs ~mode:System.Hipstr ~fuel:300_000 ())
    in
    Cmp.run cmp;
    cmp
  in
  let a = build () and b = build () in
  Alcotest.(check string)
    "identical schedule trace" (Cmp.schedule_to_string a) (Cmp.schedule_to_string b);
  Alcotest.(check bool) "identical outputs" true (outputs a = outputs b);
  Alcotest.(check bool) "identical metrics" true (Cmp.metrics a = Cmp.metrics b)

(* --- the equivalence contract --- *)

(* Fuel-capped PSR processes: slicing with a cumulative fuel budget
   must be invisible down to the instruction count, because pinned
   processes never migrate and caches don't steer control flow. *)
let test_sliced_psr_equals_standalone () =
  let fuel = 60_000 in
  let cmp =
    Cmp.create ~obs:Obs.disabled ~policy:Cmp.Round_robin ~quantum:1_000
      (quad_procs ~mode:System.Psr_only ~fuel ())
  in
  Cmp.run cmp;
  List.iteri
    (fun i name ->
      let w = Workloads.find name in
      let p = Cmp.proc cmp i in
      let alone =
        System.of_fatbin ~obs:Obs.disabled ~seed:(i + 1)
          ~start_isa:(if i mod 2 = 0 then Desc.Cisc else Desc.Risc)
          ~mode:System.Psr_only (Workloads.fatbin w)
      in
      let alone_outcome = System.run alone ~fuel in
      Alcotest.(check bool)
        (name ^ ": same outcome") true
        (Process.outcome p = Some alone_outcome);
      Alcotest.(check (list int))
        (name ^ ": same output") (System.output alone)
        (System.output (Process.sys p));
      Alcotest.(check int)
        (name ^ ": same instruction count") (System.instructions alone)
        (System.instructions (Process.sys p)))
    quad

(* Full Hipstr runs: the scheduler forces cross-ISA migrations the
   standalone run never sees, yet completed processes must agree on
   outcome, print trace and shell state. *)
let test_cmp_hipstr_equals_standalone () =
  let fuel = 3_000_000 in
  let cmp =
    Cmp.create ~obs:Obs.disabled ~policy:Cmp.Security_first ~quantum:5_000
      (quad_procs ~mode:System.Hipstr ~fuel ())
  in
  Cmp.run cmp;
  List.iteri
    (fun i name ->
      let w = Workloads.find name in
      let p = Cmp.proc cmp i in
      (match Process.outcome p with
      | Some (System.Finished _) -> ()
      | o ->
        Alcotest.failf "%s did not finish under the CMP (%s)" name
          (match o with Some _ -> "non-exit outcome" | None -> "still runnable"));
      let alone =
        System.of_fatbin ~obs:Obs.disabled ~seed:(i + 1)
          ~start_isa:(if i mod 2 = 0 then Desc.Cisc else Desc.Risc)
          ~mode:System.Hipstr (Workloads.fatbin w)
      in
      let alone_outcome = System.run alone ~fuel in
      Alcotest.(check bool)
        (name ^ ": same outcome") true
        (Process.outcome p = Some alone_outcome);
      Alcotest.(check (list int))
        (name ^ ": same output") (System.output alone)
        (System.output (Process.sys p));
      Alcotest.(check bool)
        (name ^ ": same shell state") true
        (System.shell alone = System.shell (Process.sys p)))
    quad

(* --- policy behavior --- *)

let test_security_policy_migrates_flagged () =
  (* gobmk and httpd hit suspicious code-cache misses; under the
     security policy those slices must be followed by preferential
     cross-ISA placement. *)
  let cmp =
    Cmp.create ~obs:Obs.disabled ~policy:Cmp.Security_first ~quantum:2_000
      (quad_procs ~mode:System.Hipstr ~fuel:3_000_000 ())
  in
  Cmp.run cmp;
  let m = Cmp.metrics cmp in
  Alcotest.(check bool)
    "security-policy migrations happened" true
    (m.Cmp.m_migrations_security_policy > 0);
  Alcotest.(check bool) "context switches counted" true (m.Cmp.m_context_switches > 0);
  (* every security-marked event in the trace lands the process on a
     core of the other ISA *)
  List.iter
    (fun (e : Cmp.sched_event) ->
      if e.se_security && e.se_migrated then
        let core_isa =
          List.nth (List.map (fun c -> c.Cmp.cm_isa) m.Cmp.m_cores) e.se_core
        in
        Alcotest.(check bool) "security placement crosses ISAs" true (core_isa <> e.se_isa))
    (Cmp.schedule cmp)

let test_pinned_processes_never_migrate () =
  let cmp =
    Cmp.create ~obs:Obs.disabled ~policy:Cmp.Load_balance ~quantum:2_000
      (quad_procs ~mode:System.Psr_only ~fuel:100_000 ())
  in
  Cmp.run cmp;
  List.iteri
    (fun i _ ->
      let p = Cmp.proc cmp i in
      Alcotest.(check int) "no scheduler migrations" 0 (Process.sched_migrations p);
      Alcotest.(check bool) "ISA unchanged" true
        (Process.active_isa p = if i mod 2 = 0 then Desc.Cisc else Desc.Risc))
    quad;
  (* both cores did real work under load balancing *)
  let m = Cmp.metrics cmp in
  List.iter
    (fun (cm : Cmp.core_metrics) ->
      Alcotest.(check bool) "core saw slices" true (cm.cm_slices > 0))
    m.Cmp.m_cores

let test_create_validation () =
  let p () = mk_proc ~mode:System.Psr_only ~fuel:1_000 ~seed:1 ~start_isa:Desc.Cisc ~pid:0 "mcf" in
  (* an empty process list is legal: a serving CMP starts idle and
     admits work with inject (the fleet harness's arrival path) *)
  let idle = Cmp.create [] in
  Alcotest.(check int) "idle cmp has no runnable work" 0 (Cmp.runnable_count idle);
  Cmp.inject idle (p ());
  Alcotest.(check int) "injected process is runnable" 1 (Cmp.runnable_count idle);
  (match Cmp.inject idle (p ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate injected pid accepted");
  (match Cmp.create ~cores:[] [ p () ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty core list accepted");
  (match Cmp.create ~quantum:0 [ p () ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero quantum accepted");
  (match Cmp.create [ p (); p () ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate pids accepted");
  (* a PSR (pinned) cisc process with only risc cores has nowhere to run *)
  match Cmp.create ~cores:[ Desc.Risc ] [ p () ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "pinned process without a home core accepted"

(* --- a real sweep, serial vs parallel --- *)

let test_experiment_sweep_parallel_identical () =
  let es =
    List.filter_map Registry.find [ "table1"; "fig3"; "fig4"; "ablation-pad" ]
  in
  Alcotest.(check int) "sweep has 4 experiments" 4 (List.length es);
  let serial = Registry.run_many ~jobs:1 es in
  let parallel = Registry.run_many ~jobs:4 es in
  Alcotest.(check (list string)) "-j 4 bit-identical to -j 1" serial parallel

let () =
  Alcotest.run "cmp"
    [
      ( "pool",
        [
          Alcotest.test_case "map matches serial" `Quick test_pool_map_matches_serial;
          Alcotest.test_case "mapi_seeded deterministic" `Quick
            test_pool_mapi_seeded_deterministic;
          Alcotest.test_case "map_obs merges exactly" `Quick test_pool_map_obs_merges_exactly;
          Alcotest.test_case "errors propagate" `Quick test_pool_error_propagates;
          Alcotest.test_case "crew serves 200 calls" `Quick test_crew_serves_many_calls;
          Alcotest.test_case "crew re-raises, then serves" `Quick test_crew_reraises_then_serves;
          Alcotest.test_case "crew joins when its body raises" `Quick test_crew_joins_on_raise;
          Alcotest.test_case "counter survives 4-domain hammer" `Quick
            test_obs_counter_domain_hammer;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "schedule deterministic" `Quick test_schedule_deterministic;
          Alcotest.test_case "sliced psr = standalone" `Quick test_sliced_psr_equals_standalone;
          Alcotest.test_case "cmp hipstr = standalone" `Quick test_cmp_hipstr_equals_standalone;
          Alcotest.test_case "create validation" `Quick test_create_validation;
        ] );
      ( "policies",
        [
          Alcotest.test_case "security policy migrates flagged" `Quick
            test_security_policy_migrates_flagged;
          Alcotest.test_case "pinned never migrate" `Quick test_pinned_processes_never_migrate;
        ] );
      ( "sweeps",
        [
          Alcotest.test_case "experiment sweep -j4 = -j1" `Quick
            test_experiment_sweep_parallel_identical;
        ] );
    ]
