(* The golden generator. [bench ARTIFACT [-j N]] prints one committed
   golden to stdout and writes no file:

     tables   every Registry.all experiment, one line per cell
              (BENCH_tables.tsv)
     obs      phase-attributed cycle breakdowns (BENCH_obs.json)
     cache    the code-cache churn policy sweep (BENCH_cache.json)
     interp   the interpreter's guest numbers (BENCH_interp.json)
     fleet    the fleet serving sweep (BENCH_fleet.json)
     migrate  the migration-cost decomposition (BENCH_migrate.json)

   Every number in them derives from the simulated clock (cycles,
   counts, image bytes), so each output is byte-identical on any host
   and at any -j, which fans the experiments (tables) or each fleet
   run's shards (fleet) across N domains. The root dune file pipes
   every artifact into [diff -u] against its committed file in
   [dune runtest]; [make goldens] rewrites them all on purpose. Host
   time is hostbench's job. *)

module Desc = Hipstr_isa.Desc
module System = Hipstr.System
module Config = Hipstr_psr.Config
module Workloads = Hipstr_workloads.Workloads
module Registry = Hipstr_experiments.Registry
module Obs = Hipstr_obs.Obs
module Code_cache = Hipstr_psr.Code_cache
module Vm = Hipstr_psr.Vm
module Json = Hipstr_util.Json

let print_json doc =
  print_string (Json.to_string_pretty doc);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* The paper's tables and figures, one line per cell, so a diff names
   the figure, the row and the column of every moved number. *)

let tables ~jobs =
  List.iter print_string
    (Hipstr_cmp.Pool.map ~jobs
       (fun e -> Hipstr_util.Table.cells ~id:e.Registry.ex_id (e.Registry.ex_run ()))
       Registry.all)

(* ------------------------------------------------------------------ *)
(* Phase-attributed cycle breakdowns per workload.

   Each workload runs once in Hipstr mode against a fresh obs context
   with one scheduler-requested migration mid-run, so every phase the
   span profiler knows (exec, translate, migration, stack_transform,
   context_switch_flush) appears with its simulated-cycle share. *)

let observed_keys =
  [
    ("translations", [ "psr.cisc.translations"; "psr.risc.translations" ]);
    ("cache-hits", [ "psr.cisc.cache_hits"; "psr.risc.cache_hits" ]);
    ( "cache-misses",
      [
        "psr.cisc.cache_misses.compulsory";
        "psr.cisc.cache_misses.capacity";
        "psr.risc.cache_misses.compulsory";
        "psr.risc.cache_misses.capacity";
      ] );
    ("migrations", [ "system.migrations.security"; "system.migrations.forced" ]);
    ("stack-transforms", [ "migration.stack_transforms" ]);
  ]

let obs_breakdown_fuel = 120_000

let obs_breakdown_workload (w : Workloads.t) =
  let obs = Obs.create () in
  let sys =
    System.of_fatbin ~obs ~seed:11 ~start_isa:Desc.Cisc ~mode:System.Hipstr
      (Workloads.fatbin w)
  in
  ignore (System.run sys ~fuel:(obs_breakdown_fuel / 2));
  System.request_migration sys;
  ignore (System.run sys ~fuel:(obs_breakdown_fuel / 2));
  let snap = Obs.snapshot obs in
  let phases =
    List.map
      (fun (name, n, cycles) ->
        Json.Obj
          [ ("phase", Json.Str name); ("count", Json.num_of_int n); ("cycles", Json.Num cycles) ])
      (Obs.Export.span_rollup obs)
  in
  let counters =
    List.map
      (fun (label, keys) ->
        let total =
          List.fold_left (fun acc k -> acc + Obs.Metrics.counter_value snap k) 0 keys
        in
        (label, Json.num_of_int total))
      observed_keys
  in
  let audit = Obs.audit obs in
  let audit_counts =
    List.map
      (fun label ->
        ( label,
          Json.num_of_int
            (Obs.Audit.count audit (fun e -> Obs.Audit.kind_label e.Obs.Audit.au_kind = label)) ))
      [ "suspicious"; "decision"; "migration"; "fault"; "sched-migrate" ]
  in
  Json.Obj
    [
      ("name", Json.Str w.Workloads.w_name);
      ("fuel", Json.num_of_int obs_breakdown_fuel);
      ("instructions", Json.num_of_int (System.instructions sys));
      ("cycles", Json.Num (System.cycles sys));
      ("phases", Json.List phases);
      ("counters", Json.Obj counters);
      ("audit", Json.Obj audit_counts);
    ]

let obs_breakdown () =
  Json.Obj
    [
      ("schema", Json.Str "hipstr-bench-obs/1");
      ("mode", Json.Str "hipstr");
      ("seed", Json.num_of_int 11);
      ( "workloads",
        Json.List (List.map obs_breakdown_workload (Workloads.all @ [ Workloads.httpd ])) );
    ]

(* ------------------------------------------------------------------ *)
(* The cache-churn sweep.

   The acceptance experiment for block-granular eviction: run the
   churn-heavy workloads under capacities small enough that the legacy
   flush policy wipes the cache tens to thousands of times, and
   compare capacity misses / retranslation cycles / end-to-end cycles
   against fifo and clock eviction with the translation memo. *)

let churn_fuel = 2_000_000
let churn_workloads = [ "gobmk"; "sphinx3"; "milc"; "bzip2" ]
let churn_capacities = [ 4096; 6144 ]
let churn_policies = [ Code_cache.Flush; Code_cache.Fifo; Code_cache.Clock ]

let churn_point ~name ~capacity policy =
  let w = Workloads.find name in
  let cfg = { Config.default with cache_bytes = capacity; cc_policy = policy } in
  let sys =
    System.of_fatbin ~obs:(Obs.create ()) ~cfg ~seed:9 ~start_isa:Desc.Cisc
      ~mode:System.Psr_only (Workloads.fatbin w)
  in
  ignore (System.run sys ~fuel:churn_fuel);
  let vm_stat f =
    List.fold_left
      (fun acc isa ->
        match System.vm sys isa with
        | vm -> acc + f (Vm.stats vm)
        | exception Invalid_argument _ -> acc)
      0 [ Desc.Cisc; Desc.Risc ]
  in
  ( Json.Obj
      [
        ("policy", Json.Str (Code_cache.policy_name policy));
        ("cycles", Json.Num (System.cycles sys));
        ("flushes", Json.num_of_int (System.cache_flushes sys));
        ("evictions", Json.num_of_int (System.cache_evictions sys));
        ("memo_installs", Json.num_of_int (System.memo_installs sys));
        ("translations", Json.num_of_int (vm_stat (fun s -> s.Vm.translations)));
        ("capacity_misses", Json.num_of_int (vm_stat (fun s -> s.Vm.capacity_misses)));
        ("retranslate_cycles", Json.Num (System.retranslate_cycles sys));
      ],
    System.retranslate_cycles sys )

let cache_churn () =
  let points =
    List.map
      (fun name ->
        let caps =
          List.map
            (fun capacity ->
              let flush_json, flush_retrans = churn_point ~name ~capacity Code_cache.Flush in
              let rest =
                List.map
                  (fun p ->
                    let j, r = churn_point ~name ~capacity p in
                    let reduction =
                      if flush_retrans > 0. then 100. *. (flush_retrans -. r) /. flush_retrans
                      else 0.
                    in
                    Json.Obj
                      [
                        ("point", j); ("retranslate_reduction_pct", Json.Num reduction);
                      ])
                  (List.filter (fun p -> p <> Code_cache.Flush) churn_policies)
              in
              Json.Obj
                [
                  ("capacity", Json.num_of_int capacity);
                  ("flush", flush_json);
                  ("eviction", Json.List rest);
                ])
            churn_capacities
        in
        Json.Obj [ ("name", Json.Str name); ("capacities", Json.List caps) ])
      churn_workloads
  in
  Json.Obj
    [
      ("schema", Json.Str "hipstr-bench-cache/1");
      ("mode", Json.Str "psr");
      ("seed", Json.num_of_int 9);
      ("fuel", Json.num_of_int churn_fuel);
      ("workloads", Json.List points);
    ]

(* ------------------------------------------------------------------ *)
(* The interpreter's guest numbers.

   For each workload x mode, the default engine's instruction count
   and cycle float over [interp_fuel] instructions, each checked equal
   (instructions, cycles, output) to the same run on the
   per-instruction decode oracle ([decode_cache:false]); a divergence
   fails the run. Host throughput is hostbench's calibrated [suite]
   [mips]. *)

let interp_fuel = 2_000_000
let interp_workloads = [ "gobmk"; "bzip2"; "mcf" ]

let interp_modes = [ System.Native; System.Psr_only; System.Hipstr ]

let interp_run ~name ~mode ~decode_cache =
  let sys =
    System.of_fatbin ~obs:Obs.disabled ~seed:9 ~start_isa:Desc.Cisc ~decode_cache ~mode
      (Workloads.fatbin (Workloads.find name))
  in
  ignore (System.run sys ~fuel:interp_fuel);
  sys

let interp () =
  let points =
    List.map
      (fun name ->
        let modes =
          List.map
            (fun mode ->
              let mode_name = System.mode_name mode in
              let sys = interp_run ~name ~mode ~decode_cache:true in
              let oracle = interp_run ~name ~mode ~decode_cache:false in
              if
                System.instructions sys <> System.instructions oracle
                || System.cycles sys <> System.cycles oracle
                || System.output sys <> System.output oracle
              then
                failwith
                  (Printf.sprintf
                     "interp sweep: %s/%s diverged from the oracle (instrs %d vs %d, cycles \
                      %.17g vs %.17g)"
                     name mode_name (System.instructions sys) (System.instructions oracle)
                     (System.cycles sys) (System.cycles oracle));
              Json.Obj
                [
                  ("mode", Json.Str mode_name);
                  ("instructions", Json.num_of_int (System.instructions sys));
                  ("cycles", Json.Num (System.cycles sys));
                ])
            interp_modes
        in
        Json.Obj [ ("name", Json.Str name); ("modes", Json.List modes) ])
      interp_workloads
  in
  Json.Obj
    [
      ("schema", Json.Str "hipstr-bench-interp/4");
      ("seed", Json.num_of_int 9);
      ("fuel", Json.num_of_int interp_fuel);
      ("workloads", Json.List points);
    ]

(* ------------------------------------------------------------------ *)
(* The fleet serving sweep.

   The acceptance experiment for the fleet subsystem: one seeded
   traffic trace of [fleet_procs] connections served under every
   scheduling policy at a moderate and an overload arrival rate,
   reporting throughput and the p50/p95/p99 tail of open-loop request
   latency: 6 x 100 = 600 staged httpd processes. At 24 connections
   per point the three policies produced identical rows; at 100 they
   do not. *)

module Traffic = Hipstr_fleet.Traffic
module Fleet = Hipstr_fleet.Fleet

let fleet_procs = 100
let fleet_arrivals = [ Traffic.Poisson 25.; Traffic.Poisson 100. ]
let fleet_policies =
  [ Hipstr_cmp.Cmp.Round_robin; Hipstr_cmp.Cmp.Load_balance; Hipstr_cmp.Cmp.Security_first ]

let fleet_point ~jobs ~arrival policy =
  let conns =
    Traffic.generate ~seed:1 ~procs:fleet_procs ~arrival ~mix:Traffic.default_mix ()
  in
  let cfg = { Fleet.default with fl_policy = policy } in
  let r = Fleet.run ~jobs cfg conns in
  let pc q = Fleet.latency_percentile r q in
  Json.Obj
    [
      ("policy", Json.Str (Hipstr_cmp.Cmp.policy_name policy));
      ("arrival", Json.Str (Traffic.arrival_name arrival));
      ("procs", Json.num_of_int fleet_procs);
      ("completed", Json.num_of_int r.Fleet.r_completed);
      ("killed", Json.num_of_int r.Fleet.r_killed);
      ("shell", Json.num_of_int r.Fleet.r_shell);
      ("out_of_fuel", Json.num_of_int r.Fleet.r_out_of_fuel);
      ("waves", Json.num_of_int r.Fleet.r_waves);
      ("makespan_cycles", Json.Num r.Fleet.r_makespan);
      ("throughput_per_mcycle", Json.Num (Fleet.throughput r));
      ( "latency_cycles",
        Json.Obj
          [
            ("p50", Json.Num (pc 50.));
            ("p95", Json.Num (pc 95.));
            ("p99", Json.Num (pc 99.));
            ("max", Json.Num (pc 100.));
          ] );
      ( "kinds",
        Json.List
          (List.filter_map
             (fun (k, total, completed, killed) ->
               if total = 0 then None
               else
                 Some
                   (Json.Obj
                      [
                        ("kind", Json.Str (Traffic.kind_name k));
                        ("total", Json.num_of_int total);
                        ("completed", Json.num_of_int completed);
                        ("killed", Json.num_of_int killed);
                      ]))
             (Fleet.by_kind r)) );
    ]

let fleet ~jobs =
  let points =
    List.concat_map
      (fun arrival -> List.map (fleet_point ~jobs ~arrival) fleet_policies)
      fleet_arrivals
  in
  Json.Obj
    [
      ("schema", Json.Str "hipstr-bench-fleet/1");
      ("seed", Json.num_of_int 1);
      ("mode", Json.Str "hipstr");
      ("procs_per_point", Json.num_of_int fleet_procs);
      ("mix", Json.Str (Traffic.mix_name Traffic.default_mix));
      ("points", Json.List points);
    ]

(* ------------------------------------------------------------------ *)
(* The migration-cost decomposition.

   For every workload: run to a mid-flight checkpoint under an
   evicting code-cache policy, take the snapshot image, and decompose
   the cost of relocating the process to another pool:

   - checkpoint/transfer: the snapshot cost model applied to the real
     image size (serialization scan + interconnect shipping);
   - stack transform: the cycles charged by a forced cross-ISA
     migration fired right after landing (0 when the remaining region
     has no return event to fire it at — reported as migrated=false);
   - retranslate + warm-up, warm vs cold: restore re-materializes
     translated code for free in simulated terms, so the pessimistic
     arrival is modeled by flushing the code caches on landing —
     every translated unit must be re-established before the process
     is back to speed. Warm keeps the translation memo the image
     carries and re-installs at memo cost; cold drops it too (a
     target pool that has never seen the binary) and pays full
     translation cost. Warm must come out cheaper (the snapshot test
     suite checks that a warm start is). *)

module Snapshot = Hipstr_snapshot.Snapshot

let migrate_seed = 7

let migrate_point (w : Workloads.t) =
  let fb = Workloads.fatbin w in
  let cfg = { Config.default with cc_policy = Code_cache.Clock; cache_bytes = 4_096 } in
  let fuel = 3 * w.Workloads.w_fuel in
  let boot () =
    System.of_fatbin ~obs:(Obs.create ()) ~cfg ~seed:migrate_seed ~start_isa:Desc.Cisc
      ~mode:System.Hipstr fb
  in
  (* adaptive checkpoint point, same idea as the round-trip suite:
     back off until the partial run genuinely stops mid-flight *)
  let rec interrupted_at partial =
    let sys = boot () in
    match System.run sys ~fuel:partial with
    | System.Out_of_fuel -> sys
    | _ when partial > 64 -> interrupted_at (partial / 4)
    | _ -> failwith (w.Workloads.w_name ^ ": finished in under 64 instructions")
  in
  let sys = interrupted_at (w.Workloads.w_fuel / 5) in
  let image = Snapshot.checkpoint ~workload:w.Workloads.w_name sys in
  let bytes = String.length image in
  let checkpoint_cycles = Snapshot.checkpoint_cycles ~bytes in
  let transfer_cycles = Snapshot.transfer_cycles ~bytes in
  let restore () = fst (Snapshot.restore ~obs:(Obs.create ()) ~fatbin:fb image) in
  let transform_cycles, migrated =
    let sys = restore () in
    System.request_migration sys;
    ignore (System.run sys ~fuel);
    match System.last_migration sys with
    | Some r -> (r.Hipstr_migration.Transform.r_cycles, true)
    | None -> (0., false)
  in
  let flush_vms sys =
    List.iter
      (fun isa ->
        match System.vm sys isa with
        | vm -> Vm.flush vm
        | exception Invalid_argument _ -> ())
      [ Desc.Cisc; Desc.Risc ]
  in
  let finish sys =
    flush_vms sys;
    let before = System.retranslate_cycles sys in
    ignore (System.run sys ~fuel);
    (System.retranslate_cycles sys -. before, System.memo_installs sys)
  in
  let warm_retrans, warm_installs = finish (restore ()) in
  let cold_retrans, _ =
    let sys = restore () in
    System.forget_memo sys;
    finish sys
  in
  Json.Obj
    [
      ("workload", Json.Str w.Workloads.w_name);
      ("image_bytes", Json.num_of_int bytes);
      ("checkpoint_cycles", Json.Num checkpoint_cycles);
      ("transfer_cycles", Json.Num transfer_cycles);
      ("transform_cycles", Json.Num transform_cycles);
      ("migrated", Json.Bool migrated);
      ("retranslate_warm_cycles", Json.Num warm_retrans);
      ("retranslate_cold_cycles", Json.Num cold_retrans);
      ("warm_memo_installs", Json.num_of_int warm_installs);
      ( "total_warm_cycles",
        Json.Num (checkpoint_cycles +. transfer_cycles +. transform_cycles +. warm_retrans) );
      ( "total_cold_cycles",
        Json.Num (checkpoint_cycles +. transfer_cycles +. transform_cycles +. cold_retrans) );
    ]

let migrate () =
  let points = List.map migrate_point Workloads.all in
  let total key =
    List.fold_left
      (fun acc p ->
        match p with
        | Json.Obj fields -> (
          match List.assoc key fields with Json.Num v -> acc +. v | _ -> acc)
        | _ -> acc)
      0. points
  in
  Json.Obj
    [
      ("schema", Json.Str "hipstr-bench-migrate/1");
      ("seed", Json.num_of_int migrate_seed);
      ("mode", Json.Str "hipstr");
      ("cc_policy", Json.Str "clock");
      ("cache_bytes", Json.num_of_int 4_096);
      ("total_warm_cycles", Json.Num (total "total_warm_cycles"));
      ("total_cold_cycles", Json.Num (total "total_cold_cycles"));
      ("points", Json.List points);
    ]

(* ------------------------------------------------------------------ *)

let usage () =
  prerr_endline "usage: bench (tables|obs|cache|interp|fleet|migrate) [-j N]";
  exit 2

let () =
  let artifact, jobs =
    match List.tl (Array.to_list Sys.argv) with
    | [ artifact ] -> (artifact, 1)
    | [ artifact; "-j"; v ] -> (
      match int_of_string_opt v with Some n when n >= 1 -> (artifact, n) | _ -> usage ())
    | _ -> usage ()
  in
  match artifact with
  | "tables" -> tables ~jobs
  | "obs" -> print_json (obs_breakdown ())
  | "cache" -> print_json (cache_churn ())
  | "interp" -> print_json (interp ())
  | "fleet" -> print_json (fleet ~jobs)
  | "migrate" -> print_json (migrate ())
  | _ -> usage ()
