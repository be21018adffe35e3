(* The benchmark harness.

   Part 1 regenerates every table and figure of the paper's
   evaluation (the same rows/series, on the simulated substrate) via
   the experiment registry — run `dune exec bench/main.exe` and diff
   against EXPERIMENTS.md.

   Part 2 runs Bechamel micro-benchmarks of the substrate primitives
   the experiments lean on — one Test.make per component — so
   regressions in the simulator itself are visible. Pass
   `--micro-only` or `--tables-only` to run half of it, `--obs-only`
   to emit just the BENCH_obs.json phase breakdown, `--cache-only`
   for the BENCH_cache.json churn sweep, `--interp-only` for the
   BENCH_interp.json interpreter guest numbers, `--fleet-only`
   (optionally with `--fleet-procs N`) for the BENCH_fleet.json fleet
   serving sweep, or `--migrate-only` for the BENCH_migrate.json
   migration-cost decomposition. *)

module Desc = Hipstr_isa.Desc
module Minstr = Hipstr_isa.Minstr
module System = Hipstr.System
module Config = Hipstr_psr.Config
module Workloads = Hipstr_workloads.Workloads
module Registry = Hipstr_experiments.Registry
module Mem = Hipstr_machine.Mem
module Machine = Hipstr_machine.Machine
module Fatbin = Hipstr_compiler.Fatbin
module Galileo = Hipstr_galileo.Galileo
module Rng = Hipstr_util.Rng
module Obs = Hipstr_obs.Obs
module Code_cache = Hipstr_psr.Code_cache
module Vm = Hipstr_psr.Vm
open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Part 1: the paper's tables and figures. *)

(* Every System an experiment creates reports into Obs.global, so the
   delta of its counters across one experiment is that experiment's
   observed activity — the cache-miss/migration columns the paper
   states but a wall-clock-only harness cannot check. *)
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

let observed_line before after =
  String.concat "  "
    (List.map
       (fun (label, keys) ->
         let total snap =
           List.fold_left (fun acc k -> acc + Obs.Metrics.counter_value snap k) 0 keys
         in
         Printf.sprintf "%s=%d" label (total after - total before))
       observed_keys)

let run_tables ~jobs =
  print_endline "=====================================================================";
  print_endline " HIPStR reproduction: every table and figure of the evaluation";
  print_endline "=====================================================================";
  if jobs <= 1 then
    List.iter
      (fun e ->
        let t0 = Unix.gettimeofday () in
        let before = Obs.snapshot Obs.global in
        Registry.run_and_print e;
        let after = Obs.snapshot Obs.global in
        Printf.printf "[%s regenerated in %.1fs; observed: %s]\n" e.Registry.ex_id
          (Unix.gettimeofday () -. t0)
          (observed_line before after))
      Registry.all
  else begin
    (* Parallel sweep: per-experiment output is buffered and printed
       in registry order (bit-identical tables to -j 1); wall-clock
       attribution is whole-sweep since experiments overlap. *)
    let t0 = Unix.gettimeofday () in
    let before = Obs.snapshot Obs.global in
    let outputs = Registry.run_many ~jobs Registry.all in
    let after = Obs.snapshot Obs.global in
    List.iter print_string outputs;
    Printf.printf "[%d experiments regenerated in %.1fs on %d domains; observed: %s]\n"
      (List.length outputs)
      (Unix.gettimeofday () -. t0)
      jobs (observed_line before after)
  end

(* ------------------------------------------------------------------ *)
(* Part 1.5: phase-attributed cycle breakdowns per workload.

   Each workload runs once in Hipstr mode against a fresh obs context
   with one scheduler-requested migration mid-run, so every phase the
   span profiler knows (exec, translate, migration, stack_transform,
   context_switch_flush) appears with its simulated-cycle share. The
   result lands in BENCH_obs.json — the machine-readable companion to
   the human tables above, diffable across commits. *)

module Json = Hipstr_util.Json

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

let run_obs_breakdown () =
  let doc =
    Json.Obj
      [
        ("schema", Json.Str "hipstr-bench-obs/1");
        ("mode", Json.Str "hipstr");
        ("seed", Json.num_of_int 11);
        ( "workloads",
          Json.List (List.map obs_breakdown_workload (Workloads.all @ [ Workloads.httpd ])) );
      ]
  in
  Out_channel.with_open_bin "BENCH_obs.json" (fun oc ->
      Out_channel.output_string oc (Json.to_string_pretty doc);
      Out_channel.output_string oc "\n");
  Printf.printf "[phase-attributed cycle breakdowns written to BENCH_obs.json]\n"

(* ------------------------------------------------------------------ *)
(* Part 1.6: the cache-churn sweep.

   The acceptance experiment for block-granular eviction: run the
   churn-heavy workloads under capacities small enough that the legacy
   flush policy wipes the cache tens to thousands of times, and
   compare capacity misses / retranslation cycles / end-to-end cycles
   against fifo and clock eviction with the translation memo. The
   result lands in BENCH_cache.json. *)

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

let run_cache_churn () =
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
  let doc =
    Json.Obj
      [
        ("schema", Json.Str "hipstr-bench-cache/1");
        ("mode", Json.Str "psr");
        ("seed", Json.num_of_int 9);
        ("fuel", Json.num_of_int churn_fuel);
        ("workloads", Json.List points);
      ]
  in
  Out_channel.with_open_bin "BENCH_cache.json" (fun oc ->
      Out_channel.output_string oc (Json.to_string_pretty doc);
      Out_channel.output_string oc "\n");
  Printf.printf "[cache-churn policy sweep written to BENCH_cache.json]\n"

(* ------------------------------------------------------------------ *)
(* Part 1.7: the interpreter's guest numbers.

   For each workload x mode, the default engine's instruction count
   and cycle float over [interp_fuel] instructions, each checked equal
   (instructions, cycles, output) to the same run on the
   per-instruction decode oracle ([decode_cache:false]). Host
   throughput is hostbench's calibrated [suite] [mips], so nothing in
   BENCH_interp.json depends on the host: the file is deterministic. *)

let interp_fuel = 2_000_000
let interp_workloads = [ "gobmk"; "bzip2"; "mcf" ]

let interp_modes =
  [ ("native", System.Native); ("psr", System.Psr_only); ("hipstr", System.Hipstr) ]

let interp_run ~name ~mode ~decode_cache =
  let sys =
    System.of_fatbin ~obs:Obs.disabled ~seed:9 ~start_isa:Desc.Cisc ~decode_cache ~mode
      (Workloads.fatbin (Workloads.find name))
  in
  ignore (System.run sys ~fuel:interp_fuel);
  sys

let run_interp () =
  print_endline "";
  print_endline "=====================================================================";
  print_endline " Interpreter guest numbers (default engine, checked against the oracle)";
  print_endline "=====================================================================";
  let points =
    List.map
      (fun name ->
        let modes =
          List.map
            (fun (mode_name, mode) ->
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
              Printf.printf "  %-8s %-7s %9d instrs  %14.0f cycles\n%!" name mode_name
                (System.instructions sys) (System.cycles sys);
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
  let doc =
    Json.Obj
      [
        ("schema", Json.Str "hipstr-bench-interp/4");
        ("seed", Json.num_of_int 9);
        ("fuel", Json.num_of_int interp_fuel);
        ("workloads", Json.List points);
      ]
  in
  Out_channel.with_open_bin "BENCH_interp.json" (fun oc ->
      Out_channel.output_string oc (Json.to_string_pretty doc);
      Out_channel.output_string oc "\n");
  Printf.printf "[interpreter guest numbers written to BENCH_interp.json]\n"

(* ------------------------------------------------------------------ *)
(* Part 1.8: the fleet serving sweep.

   The acceptance experiment for the fleet subsystem: one seeded
   traffic trace served under every scheduling policy at a moderate
   and an overload arrival rate, reporting throughput and the
   p50/p95/p99 tail of open-loop request latency. Everything in
   BENCH_fleet.json derives from the simulated clock, so the file is
   byte-identical whatever -j was (the -j N vs -j 1 diff is the smoke
   test). The default sweep drives 6 x [fleet_procs] = 600 staged
   httpd processes; --fleet-procs scales it down for smoke runs. *)

module Traffic = Hipstr_fleet.Traffic
module Fleet = Hipstr_fleet.Fleet

let fleet_default_procs = 100
let fleet_arrivals = [ Traffic.Poisson 25.; Traffic.Poisson 100. ]
let fleet_policies =
  [ Hipstr_cmp.Cmp.Round_robin; Hipstr_cmp.Cmp.Load_balance; Hipstr_cmp.Cmp.Security_first ]

let fleet_point ~jobs ~procs ~arrival policy =
  let conns =
    Traffic.generate ~seed:1 ~procs ~arrival ~mix:Traffic.default_mix ()
  in
  let cfg = { Fleet.default with fl_policy = policy } in
  let r = Fleet.run ~jobs cfg conns in
  let pc q = Fleet.latency_percentile r q in
  Printf.printf
    "  %-14s %-12s procs=%-4d completed=%-4d killed=%-3d thpt=%.3f/Mcycle p50=%.0f p95=%.0f \
     p99=%.0f\n\
     %!"
    (Hipstr_cmp.Cmp.policy_name policy)
    (Traffic.arrival_name arrival)
    procs r.Fleet.r_completed r.Fleet.r_killed (Fleet.throughput r) (pc 50.) (pc 95.) (pc 99.);
  Json.Obj
    [
      ("policy", Json.Str (Hipstr_cmp.Cmp.policy_name policy));
      ("arrival", Json.Str (Traffic.arrival_name arrival));
      ("procs", Json.num_of_int procs);
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

let run_fleet ~jobs ~procs =
  print_endline "";
  print_endline "=====================================================================";
  print_endline " Fleet serving sweep (policy x arrival rate, open-loop tail latency)";
  print_endline "=====================================================================";
  let points =
    List.concat_map
      (fun arrival -> List.map (fleet_point ~jobs ~procs ~arrival) fleet_policies)
      fleet_arrivals
  in
  let doc =
    Json.Obj
      [
        ("schema", Json.Str "hipstr-bench-fleet/1");
        ("seed", Json.num_of_int 1);
        ("mode", Json.Str "hipstr");
        ("procs_per_point", Json.num_of_int procs);
        ("mix", Json.Str (Traffic.mix_name Traffic.default_mix));
        ("points", Json.List points);
      ]
  in
  Out_channel.with_open_bin "BENCH_fleet.json" (fun oc ->
      Out_channel.output_string oc (Json.to_string_pretty doc);
      Out_channel.output_string oc "\n");
  Printf.printf "[fleet serving sweep written to BENCH_fleet.json]\n"

(* ------------------------------------------------------------------ *)
(* Part 1.9: the migration-cost microbenchmark.

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
     suite and the bench gate pin that down).

   Everything derives from the simulated clock, so BENCH_migrate.json
   is byte-stable across hosts and -j values. *)

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
  Printf.printf
    "  %-12s image=%-7d ckpt=%-8.0f xfer=%-8.0f transform=%-8.0f retranslate: warm=%-7.0f \
     cold=%-7.0f (installs=%d%s)\n\
     %!"
    w.Workloads.w_name bytes checkpoint_cycles transfer_cycles transform_cycles warm_retrans
    cold_retrans warm_installs
    (if migrated then "" else ", no return point to migrate at");
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

let run_migrate () =
  print_endline "";
  print_endline "=====================================================================";
  print_endline " Migration-cost decomposition (checkpoint/transfer/transform/retranslate)";
  print_endline "=====================================================================";
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
  let warm = total "total_warm_cycles" and cold = total "total_cold_cycles" in
  Printf.printf "  total migration cost: warm=%.0f cold=%.0f cycles (memo saves %.1f%%)\n" warm
    cold
    (if cold > 0. then 100. *. (cold -. warm) /. cold else 0.);
  let doc =
    Json.Obj
      [
        ("schema", Json.Str "hipstr-bench-migrate/1");
        ("seed", Json.num_of_int migrate_seed);
        ("mode", Json.Str "hipstr");
        ("cc_policy", Json.Str "clock");
        ("cache_bytes", Json.num_of_int 4_096);
        ("total_warm_cycles", Json.Num warm);
        ("total_cold_cycles", Json.Num cold);
        ("points", Json.List points);
      ]
  in
  Out_channel.with_open_bin "BENCH_migrate.json" (fun oc ->
      Out_channel.output_string oc (Json.to_string_pretty doc);
      Out_channel.output_string oc "\n");
  Printf.printf "[migration-cost decomposition written to BENCH_migrate.json]\n"

(* ------------------------------------------------------------------ *)
(* Part 2: Bechamel micro-benchmarks of the substrate. *)

let prepared_httpd =
  lazy
    (let fb = Workloads.fatbin Workloads.httpd in
     let mem = Mem.create Hipstr_machine.Layout.mem_size in
     Fatbin.load fb mem;
     (fb, mem))

let bench_decode =
  Test.make ~name:"cisc-decode-1k"
    (Staged.stage @@ fun () ->
    let fb, mem = Lazy.force prepared_httpd in
    let read a = try Mem.read8 mem a with Mem.Fault _ -> -1 in
    let base = (Fatbin.find_func fb "main").fs_cisc.im_entry in
    let acc = ref 0 in
    for i = 0 to 999 do
      match Hipstr_cisc.Isa.decode ~read (base + (i mod 256)) with
      | Some (_, len) -> acc := !acc + len
      | None -> ()
    done;
    !acc)

let bench_encode =
  Test.make ~name:"cisc-encode-1k"
    (Staged.stage @@ fun () ->
    let acc = ref 0 in
    for i = 0 to 999 do
      let s = Hipstr_cisc.Isa.encode ~at:0x10000 (Minstr.Mov (Reg (i mod 5), Imm i)) in
      acc := !acc + String.length s
    done;
    !acc)

let bench_machine_steps =
  Test.make ~name:"simulator-10k-steps"
    (Staged.stage @@ fun () ->
    let w = Workloads.find "bzip2" in
    let sys = System.of_fatbin ~start_isa:Desc.Cisc ~mode:System.Native (Workloads.fatbin w) in
    ignore (System.run sys ~fuel:10_000);
    System.instructions sys)

(* The observability contract: with obs disabled every instrumented
   site costs one load-and-branch, so this must sit within noise of
   simulator-10k-steps (which runs with the default enabled context);
   the null-sink variant bounds the enabled-counters cost. *)
let bench_obs_disabled =
  Test.make ~name:"obs-disabled-overhead"
    (Staged.stage @@ fun () ->
    let w = Workloads.find "bzip2" in
    let sys =
      System.of_fatbin ~obs:Obs.disabled ~start_isa:Desc.Cisc ~mode:System.Native
        (Workloads.fatbin w)
    in
    ignore (System.run sys ~fuel:10_000);
    System.instructions sys)

let bench_obs_null_sink =
  Test.make ~name:"obs-null-sink-overhead"
    (Staged.stage @@ fun () ->
    let w = Workloads.find "bzip2" in
    let sys =
      System.of_fatbin ~obs:(Obs.create ()) ~start_isa:Desc.Cisc ~mode:System.Native
        (Workloads.fatbin w)
    in
    ignore (System.run sys ~fuel:10_000);
    System.instructions sys)

let bench_translator =
  Test.make ~name:"psr-translate-program"
    (Staged.stage @@ fun () ->
    let w = Workloads.find "mcf" in
    let sys = System.of_fatbin ~seed:3 ~start_isa:Desc.Cisc ~mode:System.Psr_only (Workloads.fatbin w) in
    ignore (System.run sys ~fuel:50_000);
    (Hipstr_psr.Vm.stats (System.vm sys Desc.Cisc)).translations)

let bench_reloc_map =
  Test.make ~name:"reloc-map-generate"
    (Staged.stage @@ fun () ->
    let fb, _ = Lazy.force prepared_httpd in
    let fs = Fatbin.find_func fb "handle_request" in
    let rng = Rng.create 77 in
    Hipstr_psr.Reloc_map.generate Config.default rng Hipstr_cisc.Isa.desc fs ~hot_regs:[])

let bench_galileo =
  Test.make ~name:"galileo-mine-httpd"
    (Staged.stage @@ fun () ->
    let fb, mem = Lazy.force prepared_httpd in
    List.length (Galileo.mine_program mem fb Desc.Cisc))

let bench_migration =
  Test.make ~name:"forced-migration"
    (Staged.stage @@ fun () ->
    let w = Workloads.find "hmmer" in
    let cfg = { Config.default with migrate_prob = 0.0 } in
    let sys =
      System.of_fatbin ~cfg ~seed:7 ~start_isa:Desc.Cisc ~mode:System.Hipstr (Workloads.fatbin w)
    in
    ignore (System.run sys ~fuel:20_000);
    System.request_migration sys;
    ignore (System.run sys ~fuel:200_000);
    System.forced_migrations sys)

(* The CMP scheduler's own cost: the same total work (4 processes of
   20k instructions each) run through Cmp with an aggressive quantum
   (many context switches) vs directly, one System after another. The
   gap is scheduler bookkeeping + cold-cache restarts. *)
let cmp_procs () =
  let w = Workloads.find "mcf" in
  let fb = Workloads.fatbin w in
  List.init 4 (fun i ->
      Hipstr_cmp.Process.create ~obs:Obs.disabled ~seed:(i + 1)
        ~start_isa:(if i mod 2 = 0 then Desc.Cisc else Desc.Risc)
        ~mode:System.Psr_only ~pid:i ~name:w.w_name ~fuel:20_000 fb)

let bench_cmp_sched =
  Test.make ~name:"cmp-sched-overhead"
    (Staged.stage @@ fun () ->
    let cmp =
      Hipstr_cmp.Cmp.create ~obs:Obs.disabled ~policy:Hipstr_cmp.Cmp.Round_robin ~quantum:2_000
        (cmp_procs ())
    in
    Hipstr_cmp.Cmp.run cmp;
    Hipstr_cmp.Cmp.rounds cmp)

let bench_cmp_baseline =
  Test.make ~name:"cmp-single-baseline"
    (Staged.stage @@ fun () ->
    List.fold_left
      (fun acc p ->
        ignore (Hipstr_cmp.Process.run_slice p ~fuel:20_000);
        acc + Hipstr_cmp.Process.instructions p)
      0 (cmp_procs ()))

let run_micro () =
  print_endline "";
  print_endline "=====================================================================";
  print_endline " Bechamel micro-benchmarks of the substrate";
  print_endline "=====================================================================";
  let test =
    Test.make_grouped ~name:"substrate"
      [
        bench_decode;
        bench_encode;
        bench_machine_steps;
        bench_obs_disabled;
        bench_obs_null_sink;
        bench_translator;
        bench_reloc_map;
        bench_galileo;
        bench_migration;
        bench_cmp_sched;
        bench_cmp_baseline;
      ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:100 ~quota:(Time.second 0.5) ~kde:(Some 100) () in
  let raw = Benchmark.all cfg instances test in
  let results =
    Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]) Instance.monotonic_clock raw
  in
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] -> Printf.printf "  %-36s %14.1f ns/run\n" name est
      | _ -> Printf.printf "  %-36s (no estimate)\n" name)
    results

let () =
  let args = Array.to_list Sys.argv in
  let obs_only = List.mem "--obs-only" args in
  let cache_only = List.mem "--cache-only" args in
  let interp_only = List.mem "--interp-only" args in
  let fleet_only = List.mem "--fleet-only" args in
  let migrate_only = List.mem "--migrate-only" args in
  let solo = obs_only || cache_only || interp_only || fleet_only || migrate_only in
  let tables = (not (List.mem "--micro-only" args)) && not solo in
  let micro = (not (List.mem "--tables-only" args)) && not solo in
  let jobs =
    let rec find = function
      | "-j" :: v :: _ -> (
        match int_of_string_opt v with
        | Some n when n >= 1 -> n
        | _ -> failwith ("bench: bad -j value " ^ v))
      | _ :: rest -> find rest
      | [] -> 1
    in
    find args
  in
  let fleet_procs =
    let rec find = function
      | "--fleet-procs" :: v :: _ -> (
        match int_of_string_opt v with
        | Some n when n >= 1 -> n
        | _ -> failwith ("bench: bad --fleet-procs value " ^ v))
      | _ :: rest -> find rest
      | [] -> fleet_default_procs
    in
    find args
  in
  if tables then run_tables ~jobs;
  if tables || obs_only then run_obs_breakdown ();
  if tables || cache_only then run_cache_churn ();
  if tables || interp_only then run_interp ();
  if tables || fleet_only then run_fleet ~jobs ~procs:fleet_procs;
  if tables || migrate_only then run_migrate ();
  if micro then run_micro ()
