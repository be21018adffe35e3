(* The fleet serving subsystem: seeded traffic generation is
   reproducible, parallel waves are bit-identical to sequential ones,
   and the serving outcomes carry
   the paper's security story — the overflow mix that kills a native
   fleet is neutralized under PSR/HIPStR. *)

module Obs = Hipstr_obs.Obs
module Desc = Hipstr_isa.Desc
module System = Hipstr.System
module Cmp = Hipstr_cmp.Cmp
module Traffic = Hipstr_fleet.Traffic
module Fleet = Hipstr_fleet.Fleet

(* a hostile-heavy mix so every kind shows up in small traces *)
let test_mix =
  { Traffic.mx_valid = 60; mx_oversized = 20; mx_malformed = 10; mx_attack = 10 }

let gen ?(seed = 7) ?(procs = 32) ?(arrival = Traffic.Poisson 50.) () =
  Traffic.generate ~seed ~procs ~arrival ~mix:test_mix ()

(* --- generator ----------------------------------------------------- *)

let test_generate_reproducible () =
  let a = gen () and b = gen () in
  Alcotest.(check bool) "same seed, same trace" true (a = b);
  let c = gen ~seed:8 () in
  Alcotest.(check bool) "different seed, different trace" true (a <> c);
  let arrivals = List.map (fun c -> c.Traffic.cn_arrival) a in
  Alcotest.(check bool) "arrivals are sorted" true
    (List.sort compare arrivals = arrivals);
  List.iteri
    (fun i c ->
      Alcotest.(check int) "ids are dense" i c.Traffic.cn_id;
      Alcotest.(check int) "tenants tile" (i mod 4) c.Traffic.cn_tenant;
      Alcotest.(check bool) "every conn has a line" true (Array.length c.Traffic.cn_line > 0))
    a;
  (* every kind with positive weight appears in a 32-conn trace of
     this mix; a zero-weight kind never does *)
  let kinds_of t = List.sort_uniq compare (List.map (fun c -> c.Traffic.cn_kind) t) in
  Alcotest.(check int) "all four kinds drawn" 4 (List.length (kinds_of a));
  let only_valid =
    Traffic.generate ~seed:7 ~procs:32 ~arrival:(Traffic.Poisson 50.)
      ~mix:{ Traffic.mx_valid = 1; mx_oversized = 0; mx_malformed = 0; mx_attack = 0 }
      ()
  in
  Alcotest.(check (list bool)) "zero weights never drawn" []
    (List.filter (fun b -> not b)
       (List.map (fun c -> c.Traffic.cn_kind = Traffic.Valid) only_valid)
    |> List.map (fun _ -> false))

let test_bursty_batches () =
  let t = gen ~arrival:(Traffic.Bursty { rate = 50.; burst = 4 }) () in
  (* within a burst the gap is zero; the long-run count is unchanged *)
  List.iteri
    (fun i c ->
      if i mod 4 <> 0 then
        let prev = List.nth t (i - 1) in
        Alcotest.(check (float 1e-9))
          (Printf.sprintf "conn %d rides its burst" i)
          prev.Traffic.cn_arrival c.Traffic.cn_arrival)
    t;
  Alcotest.(check int) "all connections generated" 32 (List.length t)

let test_parsers () =
  (match Traffic.arrival_of_string "poisson:25" with
  | Ok (Traffic.Poisson r) -> Alcotest.(check (float 1e-9)) "poisson rate" 25. r
  | _ -> Alcotest.fail "poisson:25 rejected");
  (match Traffic.arrival_of_string "bursty:12.5:8" with
  | Ok (Traffic.Bursty { rate; burst }) ->
    Alcotest.(check (float 1e-9)) "bursty rate" 12.5 rate;
    Alcotest.(check int) "burst" 8 burst
  | _ -> Alcotest.fail "bursty:12.5:8 rejected");
  List.iter
    (fun s ->
      match Traffic.arrival_of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s accepted" s)
    [ "poisson:0"; "poisson:-3"; "poisson"; "bursty:5:0"; "bursty:5"; "uniform:1" ];
  (match Traffic.mix_of_string "60,20,10,10" with
  | Ok m -> Alcotest.(check bool) "positional mix" true (m = test_mix)
  | Error e -> Alcotest.fail e);
  (match Traffic.mix_of_string "valid=60,oversized=20,malformed=10,attack=10" with
  | Ok m -> Alcotest.(check bool) "named mix" true (m = test_mix)
  | Error e -> Alcotest.fail e);
  List.iter
    (fun s ->
      match Traffic.mix_of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s accepted" s)
    [ "0,0,0,0"; "1,2,3"; "-1,2,3,4"; "valid=1,bogus=2" ]

let test_parser_rejections_actionable () =
  (* each rejection names the offending part, so a bad --mix dies
     with a message the user can act on *)
  let expect_error what input needle parse =
    match parse input with
    | Ok _ -> Alcotest.failf "%s: '%s' accepted" what input
    | Error e ->
      let contains s sub =
        let n = String.length sub in
        let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
        n = 0 || go 0
      in
      if not (contains e needle) then
        Alcotest.failf "%s: error for '%s' does not mention %S: %s" what input needle e
  in
  let mix = expect_error "mix" and arrival = expect_error "arrival" in
  mix "valid=3,attack=2,valid=4" "duplicate weight for 'valid'" Traffic.mix_of_string;
  mix "attack=1,attack=1" "duplicate" Traffic.mix_of_string;
  mix "0,0,0,0" "sum to zero" Traffic.mix_of_string;
  mix "valid=0,attack=0" "sum to zero" Traffic.mix_of_string;
  mix "-1,2,3,4" "negative" Traffic.mix_of_string;
  mix "valid=1,bogus=2" "unknown request kind 'bogus'" Traffic.mix_of_string;
  arrival "poisson:0" "must be positive" Traffic.arrival_of_string;
  arrival "poisson:abc" "rate" Traffic.arrival_of_string;
  arrival "uniform:1" "unknown arrival model" Traffic.arrival_of_string;
  (* duplicates that happen to agree are still duplicates *)
  (match Traffic.mix_of_string "valid=5,valid=5" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "agreeing duplicate accepted");
  (* named form with omitted kinds still works *)
  match Traffic.mix_of_string "valid=9,attack=1" with
  | Ok m ->
    Alcotest.(check int) "named valid" 9 m.Traffic.mx_valid;
    Alcotest.(check int) "omitted kind defaults to 0" 0 m.Traffic.mx_oversized
  | Error e -> Alcotest.fail e

(* --- fleet determinism --------------------------------------------- *)

let fleet_cfg ?(mode = System.Psr_only) () =
  {
    Fleet.default with
    fl_shards = 4;
    fl_mode = mode;
    fl_max_live = 4;
    fl_policy = Cmp.Round_robin;
  }

let run_with_exports ?mode ~jobs () =
  let obs = Obs.create () in
  let r = Fleet.run ~jobs ~obs (fleet_cfg ?mode ()) (gen ()) in
  (r, Obs.Export.metrics_json obs, Obs.Export.audit_jsonl obs)

let test_jobs_bit_identical () =
  let r1, m1, a1 = run_with_exports ~jobs:1 () in
  let r4, m4, a4 = run_with_exports ~jobs:4 () in
  Alcotest.(check bool) "-j4 records = -j1 records" true (r1.Fleet.r_records = r4.Fleet.r_records);
  Alcotest.(check (float 1e-9)) "same makespan" r1.Fleet.r_makespan r4.Fleet.r_makespan;
  Alcotest.(check int) "same wave count" r1.Fleet.r_waves r4.Fleet.r_waves;
  Alcotest.(check string) "metrics_json bytes identical" m1 m4;
  Alcotest.(check string) "audit_jsonl bytes identical" a1 a4

(* Each Fleet.run opens and joins its own crew, so a second run in
   the same process starts from fresh helpers: both must read exactly
   like the serial run. *)
let test_rerun_bit_identical () =
  let _, m1, a1 = run_with_exports ~jobs:1 () in
  List.iter
    (fun label ->
      let _, m2, a2 = run_with_exports ~jobs:2 () in
      Alcotest.(check string) (label ^ " -j2 metrics = -j1") m1 m2;
      Alcotest.(check string) (label ^ " -j2 audit = -j1") a1 a2)
    [ "first"; "second" ]

(* --- live migration ------------------------------------------------- *)

let test_live_migration_bit_identical () =
  (* a fast open-loop trace piles arrivals up, so shard queues drain
     unevenly and rebalancing every wave forces cross-shard moves; the
     decision runs in the sequential post-barrier section, so -j4 must
     stay byte-identical to -j1 *)
  let conns = gen ~procs:40 ~arrival:(Traffic.Poisson 500.) () in
  let run jobs =
    let obs = Obs.create () in
    let cfg = { (fleet_cfg ()) with Fleet.fl_migrate_every = 1 } in
    let r = Fleet.run ~jobs ~obs cfg conns in
    (r, Obs.Export.metrics_json obs, Obs.Export.audit_jsonl obs)
  in
  let r1, m1, a1 = run 1 in
  let r4, m4, a4 = run 4 in
  Alcotest.(check bool) "at least one live migration" true (r1.Fleet.r_live_migrations > 0);
  Alcotest.(check int) "same migration count across jobs" r1.Fleet.r_live_migrations
    r4.Fleet.r_live_migrations;
  Alcotest.(check bool) "-j4 records = -j1 records" true (r1.Fleet.r_records = r4.Fleet.r_records);
  Alcotest.(check (float 1e-9)) "same makespan" r1.Fleet.r_makespan r4.Fleet.r_makespan;
  Alcotest.(check string) "metrics_json bytes identical" m1 m4;
  Alcotest.(check string) "audit_jsonl bytes identical" a1 a4;
  (* migration moves work, it never loses it *)
  Alcotest.(check int) "every connection served" 40 (List.length r1.Fleet.r_records);
  Alcotest.(check int) "outcome counts partition the trace" 40
    (r1.Fleet.r_completed + r1.Fleet.r_killed + r1.Fleet.r_shell + r1.Fleet.r_out_of_fuel);
  Alcotest.(check int) "no shells" 0 r1.Fleet.r_shell;
  Alcotest.(check int) "nothing spins" 0 r1.Fleet.r_out_of_fuel

let test_live_migration_counter () =
  let obs = Obs.create () in
  let cfg = { (fleet_cfg ()) with Fleet.fl_migrate_every = 1 } in
  let r = Fleet.run ~obs cfg (gen ~procs:40 ~arrival:(Traffic.Poisson 500.) ()) in
  let snap = Obs.metrics obs |> Obs.Metrics.snapshot in
  Alcotest.(check int) "fleet.live_migrations counter matches the result"
    r.Fleet.r_live_migrations
    (Obs.Metrics.counter_value snap "fleet.live_migrations");
  match List.assoc_opt "fleet.migration.cost_cycles" snap.Obs.Metrics.snap_histograms with
  | None -> Alcotest.fail "fleet.migration.cost_cycles histogram missing"
  | Some h ->
    Alcotest.(check int) "one cost sample per migration" r.Fleet.r_live_migrations
      h.Obs.Metrics.hs_count

let test_latency_percentile_empty_raises () =
  (* regression: a percentile over zero served requests used to read
     as a silent 0.; it must refuse instead *)
  let r = Fleet.run (fleet_cfg ()) [] in
  Alcotest.(check int) "no records on an empty trace" 0 (List.length r.Fleet.r_records);
  Alcotest.check_raises "empty percentile refuses"
    (Invalid_argument "Fleet.latency_percentile: no completed requests") (fun () ->
      ignore (Fleet.latency_percentile r 99.))

(* --- serving semantics --------------------------------------------- *)

let check_record_invariants r =
  List.iteri
    (fun i x ->
      Alcotest.(check int) "records sorted by id" i x.Fleet.rr_id;
      Alcotest.(check bool) "admitted after arrival" true
        (x.Fleet.rr_admitted >= x.Fleet.rr_arrival);
      Alcotest.(check bool) "finished after admission" true
        (x.Fleet.rr_finished >= x.Fleet.rr_admitted);
      Alcotest.(check bool) "latency consistent" true
        (Float.abs (x.Fleet.rr_latency -. (x.Fleet.rr_finished -. x.Fleet.rr_arrival)) < 1e-9);
      Alcotest.(check int) "shard by id" (x.Fleet.rr_id mod 4) x.Fleet.rr_shard)
    r.Fleet.r_records;
  Alcotest.(check int) "every connection served" 32 (List.length r.Fleet.r_records);
  Alcotest.(check int) "outcome counts partition the trace" 32
    (r.Fleet.r_completed + r.Fleet.r_killed + r.Fleet.r_shell + r.Fleet.r_out_of_fuel)

let test_psr_fleet_rides_out_the_mix () =
  let r = Fleet.run (fleet_cfg ~mode:System.Psr_only ()) (gen ()) in
  check_record_invariants r;
  (* relocation contains the hostile kinds: benign traffic always
     completes, a hostile line is either neutralized (completes) or
     caught as a clean wild-return kill — never a shell, never a spin *)
  Alcotest.(check int) "no shells" 0 r.Fleet.r_shell;
  Alcotest.(check int) "nothing spins" 0 r.Fleet.r_out_of_fuel;
  List.iter
    (fun x ->
      match (x.Fleet.rr_kind, x.Fleet.rr_outcome) with
      | (Traffic.Valid | Traffic.Malformed), System.Finished 0 -> ()
      | (Traffic.Valid | Traffic.Malformed), _ ->
        Alcotest.failf "benign conn %d did not complete" x.Fleet.rr_id
      | (Traffic.Oversized | Traffic.Attack), (System.Finished 0 | System.Killed _) -> ()
      | (Traffic.Oversized | Traffic.Attack), _ ->
        Alcotest.failf "hostile conn %d escaped containment" x.Fleet.rr_id)
    r.Fleet.r_records;
  Alcotest.(check bool) "most of the trace completes" true (r.Fleet.r_completed >= 24);
  Alcotest.(check bool) "throughput positive" true (Fleet.throughput r > 0.);
  let p50 = Fleet.latency_percentile r 50. and p99 = Fleet.latency_percentile r 99. in
  Alcotest.(check bool) "percentiles monotone" true (0. <= p50 && p50 <= p99)

let test_native_fleet_bleeds () =
  (* the same trace against an unprotected fleet: every oversized
     line kills its server, attacks divert or kill *)
  let r =
    Fleet.run (fleet_cfg ~mode:System.Native ()) (gen ())
  in
  check_record_invariants r;
  let kinds = Fleet.by_kind r in
  let stat k =
    let _, total, completed, killed = List.find (fun (k', _, _, _) -> k' = k) kinds in
    (total, completed, killed)
  in
  let total_o, completed_o, killed_o = stat Traffic.Oversized in
  Alcotest.(check bool) "trace has oversized lines" true (total_o > 0);
  Alcotest.(check int) "every oversized line kills a native server" total_o killed_o;
  Alcotest.(check int) "none complete" 0 completed_o;
  let total_v, completed_v, _ = stat Traffic.Valid in
  Alcotest.(check int) "valid lines still complete" total_v completed_v;
  let total_m, completed_m, _ = stat Traffic.Malformed in
  Alcotest.(check int) "malformed lines are rejected, not fatal" total_m completed_m;
  Alcotest.(check bool) "the native fleet bled" true (r.Fleet.r_killed > 0)

let test_fleet_metrics_namespaces () =
  let obs = Obs.create () in
  let r = Fleet.run ~obs (fleet_cfg ()) (gen ()) in
  let snap = Obs.metrics obs |> Obs.Metrics.snapshot in
  let counter n = Obs.Metrics.counter_value snap n in
  Alcotest.(check int) "fleet.requests" 32 (counter "fleet.requests");
  Alcotest.(check int) "fleet.completed" r.Fleet.r_completed (counter "fleet.completed");
  Alcotest.(check int) "fleet.waves" r.Fleet.r_waves (counter "fleet.waves");
  let hist n = List.assoc_opt n snap.Obs.Metrics.snap_histograms in
  (match hist "fleet.latency_cycles" with
  | None -> Alcotest.fail "fleet.latency_cycles histogram missing"
  | Some h ->
    Alcotest.(check int) "one latency sample per request" 32 h.Obs.Metrics.hs_count;
    let p99 = Obs.Metrics.p99 h in
    Alcotest.(check bool) "bucketed p99 brackets the exact one" true
      (p99 >= Fleet.latency_percentile r 99. /. 2.
      && p99 <= Float.max 1. (2. *. Fleet.latency_percentile r 99.)));
  (* per-tenant namespaces: the four tenants partition the trace *)
  let tenant_reqs = List.init 4 (fun t -> counter (Printf.sprintf "fleet.tenant.t%d.requests" t)) in
  Alcotest.(check int) "tenant requests sum to the trace" 32
    (List.fold_left ( + ) 0 tenant_reqs);
  List.iter
    (fun (t, recs) ->
      Alcotest.(check int)
        (Printf.sprintf "tenant %d counter matches records" t)
        (List.length recs)
        (counter (Printf.sprintf "fleet.tenant.t%d.requests" t)))
    (Fleet.by_tenant r);
  (* per-kind latency namespaces exist for every kind in the trace *)
  List.iter
    (fun (k, total, _, _) ->
      if total > 0 then
        match hist (Printf.sprintf "fleet.kind.%s.latency_cycles" (Traffic.kind_name k)) with
        | Some h -> Alcotest.(check int) (Traffic.kind_name k ^ " sample count") total h.Obs.Metrics.hs_count
        | None -> Alcotest.failf "fleet.kind.%s.latency_cycles missing" (Traffic.kind_name k))
    (Fleet.by_kind r)

let test_admission_cap_respected () =
  (* a one-shard fleet with max_live 2: arrivals queue but everything
     is eventually served, and queueing shows up as latency *)
  let cfg = { (fleet_cfg ()) with fl_shards = 1; fl_max_live = 2 } in
  let r = Fleet.run cfg (gen ~procs:12 ~arrival:(Traffic.Poisson 500.) ()) in
  Alcotest.(check int) "every queued connection served" 12 (List.length r.Fleet.r_records);
  Alcotest.(check bool) "queueing delays admission" true
    (List.exists (fun x -> x.Fleet.rr_admitted > x.Fleet.rr_arrival +. 1e-9) r.Fleet.r_records)

let test_latency_percentile_exact () =
  (* Fleet.latency_percentile against an independent reimplementation
     of linear-interpolated percentiles over the sorted latencies *)
  let r = Fleet.run (fleet_cfg ()) (gen ()) in
  let sorted = List.sort compare (Fleet.latencies r) in
  let arr = Array.of_list sorted in
  let n = Array.length arr in
  Alcotest.(check int) "one latency per record" (List.length r.Fleet.r_records) n;
  let exact q =
    let rank = q /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) and hi = int_of_float (Float.ceil rank) in
    let frac = rank -. Float.floor rank in
    (arr.(lo) *. (1. -. frac)) +. (arr.(hi) *. frac)
  in
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "p%g matches the sorted list" q)
        (exact q)
        (Fleet.latency_percentile r q))
    [ 0.; 10.; 25.; 50.; 75.; 90.; 95.; 99.; 99.9; 100. ];
  Alcotest.(check (float 1e-9)) "p0 is the minimum" arr.(0) (Fleet.latency_percentile r 0.);
  Alcotest.(check (float 1e-9)) "p100 is the maximum" arr.(n - 1)
    (Fleet.latency_percentile r 100.)

(* --- timeline ------------------------------------------------------ *)

let attack_mix =
  { Traffic.mx_valid = 55; mx_oversized = 15; mx_malformed = 5; mx_attack = 25 }

let timeline_run ~jobs conns =
  let obs = Obs.create () in
  let tl = Obs.Timeline.create ~window:20_000. () in
  let r = Fleet.run ~jobs ~obs ~timeline:tl (fleet_cfg ()) conns in
  (r, tl)

let test_timeline_windows_and_burst () =
  let conns =
    Traffic.generate ~seed:11 ~procs:64 ~arrival:(Traffic.Bursty { rate = 40.; burst = 16 })
      ~mix:attack_mix ()
  in
  let r, tl = timeline_run ~jobs:1 conns in
  Alcotest.(check bool) "at least 10 windows" true (Obs.Timeline.window_count tl >= 10);
  let windows = Obs.Timeline.windows tl in
  (* the per-wave outcome counts reconcile with the run totals *)
  let sum name =
    List.fold_left (fun acc w -> acc + Obs.Timeline.counter_value w name) 0 windows
  in
  Alcotest.(check int) "windowed completions sum to the run's" r.Fleet.r_completed
    (sum "fleet.completed");
  Alcotest.(check int) "windowed kills sum to the run's" r.Fleet.r_killed (sum "fleet.killed");
  (* per-window latency p99: under the open-loop burst the tail
     visibly spikes — the loaded windows dwarf the quiet ones *)
  let p99s =
    List.filter_map
      (fun w ->
        match Obs.Timeline.histogram w "fleet.latency_cycles" with
        | Some h when h.Obs.Metrics.hs_count > 0 -> Some (Obs.Metrics.p99 h)
        | _ -> None)
      windows
  in
  Alcotest.(check bool) "several windows carry latency samples" true (List.length p99s >= 5);
  let sorted = List.sort compare p99s in
  let quietest = List.hd sorted in
  let median = List.nth sorted (List.length sorted / 2) in
  let worst = List.nth sorted (List.length sorted - 1) in
  (* each burst deepens the admission queue, so the loaded windows'
     p99 towers over the quiet start of a burst *)
  Alcotest.(check bool) "p99 spikes during the burst" true (worst >= 2. *. quietest);
  Alcotest.(check bool) "the spike clears the median too" true (worst >= 1.5 *. median)

let test_timeline_bit_identical_across_jobs () =
  let conns =
    Traffic.generate ~seed:11 ~procs:48 ~arrival:(Traffic.Bursty { rate = 40.; burst = 12 })
      ~mix:attack_mix ()
  in
  let _, tl1 = timeline_run ~jobs:1 conns in
  let _, tl4 = timeline_run ~jobs:4 conns in
  Alcotest.(check string) "timeline_json bytes identical" (Obs.Export.timeline_json tl1)
    (Obs.Export.timeline_json tl4);
  Alcotest.(check string) "timeline_csv bytes identical" (Obs.Export.timeline_csv tl1)
    (Obs.Export.timeline_csv tl4);
  (* the SLO report derives from the timeline, so it inherits the
     byte-identity (and its cumulative columns are monotone) *)
  let obj = Obs.Slo.objective ~target:200_000. ~budget:0.1 in
  let rep1 = Obs.Slo.evaluate obj ~latency:"fleet.latency_cycles" tl1 in
  let rep4 = Obs.Slo.evaluate obj ~latency:"fleet.latency_cycles" tl4 in
  Alcotest.(check bool) "slo reports identical" true (rep1 = rep4);
  ignore
    (List.fold_left
       (fun (creq, cvio) (w : Obs.Slo.window_report) ->
         Alcotest.(check bool) "cumulative requests monotone" true
           (w.Obs.Slo.sw_cum_requests >= creq);
         Alcotest.(check bool) "cumulative violations monotone" true
           (w.Obs.Slo.sw_cum_violations >= cvio -. 1e-9);
         (w.Obs.Slo.sw_cum_requests, w.Obs.Slo.sw_cum_violations))
       (0, 0.) rep1)

let test_policies_all_serve () =
  List.iter
    (fun policy ->
      let cfg = { (fleet_cfg ()) with fl_policy = policy } in
      let r = Fleet.run cfg (gen ~procs:16 ()) in
      Alcotest.(check int) "all served" 16 (List.length r.Fleet.r_records);
      Alcotest.(check int) "no shells" 0 r.Fleet.r_shell)
    [ Cmp.Round_robin; Cmp.Load_balance; Cmp.Security_first ]

(* --- machine reuse --------------------------------------------------- *)

module Machine = Hipstr_machine.Machine
module Mem = Hipstr_machine.Mem
module Decode_cache = Hipstr_machine.Decode_cache
module Process = Hipstr_cmp.Process
module Snapshot = Hipstr_snapshot.Snapshot
module Wire = Hipstr_util.Wire

let image save x =
  let w = Wire.writer () in
  save w x;
  Wire.contents w

let outcome_label = function
  | System.Finished c -> Printf.sprintf "finished(%d)" c
  | System.Shell_spawned -> "shell"
  | System.Killed m -> "killed(" ^ m ^ ")"
  | System.Out_of_fuel -> "out_of_fuel"

let decode_stats m which =
  Option.map
    (fun (s : Decode_cache.stats) ->
      [
        s.hits; s.misses; s.invalidations; s.flushes; s.chain_follows; s.chain_breaks;
        s.chain_patches; s.ic_mono_hits; s.ic_poly_hits; s.ic_misses;
      ])
    (Machine.decode_cache_stats m which)

let run_out p = System.run (Process.sys p) ~fuel:Traffic.default_fuel

(* Host-side state no image carries: each core's decode-cache epoch,
   and the write generation of each standard code-bearing region. *)
let host_marks m =
  List.map
    (fun which -> Option.fold ~none:(-1) ~some:Decode_cache.epoch (Machine.decode_cache m which))
    [ Desc.Cisc; Desc.Risc ]
  @ List.map
      (fun a -> Option.fold ~none:(-1) ~some:Mem.generation (Mem.region_of (Machine.mem m) a))
      Hipstr_machine.Layout.
        [ cisc_code_base; risc_code_base; cisc_cache_base; risc_cache_base ]

(* The first connection of an attack-heavy trace whose standalone run
   under [mode] ends as [want] says. Relocation rarely turns an exploit
   into a kill: `fleet-run --procs 100 --mix 0,50,0,50 --seed 7` in
   hipstr mode kills 2 of its 100 connections. *)
let hostile =
  Traffic.generate ~seed:7 ~procs:200 ~arrival:(Traffic.Poisson 50.)
    ~mix:{ Traffic.mx_valid = 1; mx_oversized = 1; mx_malformed = 0; mx_attack = 2 }
    ()

let conn_where ~mode want =
  match
    List.find_opt (fun c -> want (run_out (Traffic.spawn ~obs:Obs.disabled ~mode c))) hostile
  with
  | Some c -> c
  | None -> Alcotest.fail "no connection in the trace ends as required"

let finished = function System.Finished _ -> true | _ -> false
let killed = function System.Killed _ -> true | _ -> false

(* Connection B booted on the machine connection A left behind must be
   indistinguishable from B booted on a new machine: the same machine
   image, system image and memory right after boot, and the same
   outcome, output, instruction count, cycle bits, decode-cache
   statistics, machine image and memory after the run. *)
let check_reset_is_fresh ~label ~mode ~retire a b =
  let obs = Obs.create () in
  let pa = Traffic.spawn ~obs ~mode ~start_isa:Desc.Cisc a in
  retire pa;
  let spare = System.machine (Process.sys pa) in
  let boot ?spare () = Traffic.spawn ~obs ~mode ~start_isa:Desc.Risc ?spare b in
  let reused = boot ~spare () and fresh = boot () in
  let sr = Process.sys reused and sf = Process.sys fresh in
  let mr = System.machine sr and mf = System.machine sf in
  Alcotest.(check bool) (label ^ ": booted on the spare") true (mr == spare);
  let same_state when_ =
    Alcotest.(check string)
      (Printf.sprintf "%s: machine image %s" label when_)
      (image Machine.save mf) (image Machine.save mr);
    Alcotest.(check bool)
      (Printf.sprintf "%s: memory %s" label when_)
      true
      (Mem.equal_span (Machine.mem mf) (Machine.mem mr) 0 (Mem.size (Machine.mem mf)));
    Alcotest.(check (list int))
      (Printf.sprintf "%s: decode epochs and region generations %s" label when_)
      (host_marks mf) (host_marks mr)
  in
  same_state "after boot";
  Alcotest.(check string) (label ^ ": system image after boot") (image System.save_state sf)
    (image System.save_state sr);
  let of_ = run_out fresh and or_ = run_out reused in
  Alcotest.(check string) (label ^ ": outcome") (outcome_label of_) (outcome_label or_);
  Alcotest.(check (list int)) (label ^ ": output") (System.output sf) (System.output sr);
  Alcotest.(check int) (label ^ ": instructions") (System.instructions sf) (System.instructions sr);
  Alcotest.(check int64) (label ^ ": cycle bits")
    (Int64.bits_of_float (System.cycles sf))
    (Int64.bits_of_float (System.cycles sr));
  List.iter
    (fun which ->
      Alcotest.(check (option (list int)))
        (label ^ ": decode-cache stats")
        (decode_stats mf which) (decode_stats mr which))
    [ Desc.Cisc; Desc.Risc ];
  same_state "after the run"

let test_reset_is_fresh () =
  let valid = conn_where ~mode:System.Hipstr finished in
  let b =
    List.find
      (fun c -> c.Traffic.cn_id <> valid.Traffic.cn_id && c.Traffic.cn_kind = Traffic.Valid)
      hostile
  in
  let finish want p =
    let o = run_out p in
    Alcotest.(check bool) ("A ends as required: " ^ outcome_label o) true (want o)
  in
  (* A crosses ISAs, so the migration count and per-core cycle split
     it leaves are not zero *)
  let finish_migrated p =
    System.request_migration (Process.sys p);
    finish finished p;
    Alcotest.(check bool) "A migrated across ISAs" true
      (Machine.migrations (System.machine (Process.sys p)) > 0)
  in
  let migrate p =
    (match System.run (Process.sys p) ~fuel:300 with
    | System.Out_of_fuel -> ()
    | o -> Alcotest.failf "A ended before its checkpoint (%s)" (outcome_label o));
    ignore (Snapshot.checkpoint_process p)
  in
  check_reset_is_fresh ~label:"hipstr completed" ~mode:System.Hipstr ~retire:finish_migrated
    valid b;
  check_reset_is_fresh ~label:"hipstr killed" ~mode:System.Hipstr ~retire:(finish killed)
    (conn_where ~mode:System.Hipstr killed)
    b;
  check_reset_is_fresh ~label:"hipstr migrated" ~mode:System.Hipstr ~retire:migrate valid b;
  check_reset_is_fresh ~label:"psr" ~mode:System.Psr_only ~retire:(finish finished)
    (conn_where ~mode:System.Psr_only finished)
    b;
  check_reset_is_fresh ~label:"native" ~mode:System.Native ~retire:(finish killed)
    (conn_where ~mode:System.Native killed)
    b

(* A live migration restores onto a spare of the target shard: the
   process must continue exactly as it does restored onto a new
   machine — the same machine image and memory after the restore, and
   the same outcome, output, instruction count, cycle bits, machine
   image and memory after the run. *)
let test_restore_onto_spare () =
  let obs = Obs.create () in
  let b = conn_where ~mode:System.Hipstr finished in
  let pb = Traffic.spawn ~obs ~mode:System.Hipstr ~start_isa:Desc.Cisc b in
  System.request_migration (Process.sys pb);
  (match System.run (Process.sys pb) ~fuel:300 with
  | System.Out_of_fuel -> ()
  | o -> Alcotest.failf "B ended before its checkpoint (%s)" (outcome_label o));
  let image_b = Snapshot.checkpoint_process pb in
  let a = List.find (fun c -> c.Traffic.cn_id <> b.Traffic.cn_id) hostile in
  let pa = Traffic.spawn ~obs ~mode:System.Hipstr ~start_isa:Desc.Risc a in
  ignore (run_out pa);
  let spare = System.machine (Process.sys pa) in
  let restore ?spare () =
    fst
      (Snapshot.restore_process ~obs ~merge_obs:false ?spare ~fatbin:(Traffic.fatbin ()) image_b)
  in
  let reused = restore ~spare () and fresh = restore () in
  let sr = Process.sys reused and sf = Process.sys fresh in
  let mr = System.machine sr and mf = System.machine sf in
  Alcotest.(check bool) "restored onto the spare" true (mr == spare);
  let same_state when_ =
    Alcotest.(check string) ("machine image " ^ when_) (image Machine.save mf)
      (image Machine.save mr);
    Alcotest.(check bool) ("memory " ^ when_) true
      (Mem.equal_span (Machine.mem mf) (Machine.mem mr) 0 (Mem.size (Machine.mem mf)))
  in
  same_state "after the restore";
  let of_ = run_out fresh and or_ = run_out reused in
  Alcotest.(check bool) ("B finishes: " ^ outcome_label of_) true (finished of_);
  Alcotest.(check bool) "B migrated across ISAs after the restore" true (Machine.migrations mf > 0);
  Alcotest.(check string) "outcome" (outcome_label of_) (outcome_label or_);
  Alcotest.(check (list int)) "output" (System.output sf) (System.output sr);
  Alcotest.(check int) "instructions" (System.instructions sf) (System.instructions sr);
  Alcotest.(check int64) "cycle bits"
    (Int64.bits_of_float (System.cycles sf))
    (Int64.bits_of_float (System.cycles sr));
  same_state "after the run"

let test_spare_of_another_shape_refused () =
  let c = List.hd (gen ~procs:1 ()) in
  let obs = Obs.create () in
  let spare = System.machine (Process.sys (Traffic.spawn ~obs ~mode:System.Hipstr c)) in
  let refused label f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: spare accepted" label
  in
  refused "a hipstr machine for a native connection" (fun () ->
      Traffic.spawn ~obs ~mode:System.Native ~spare c);
  refused "another obs" (fun () -> Traffic.spawn ~obs:(Obs.create ()) ~mode:System.Hipstr ~spare c);
  refused "another engine" (fun () ->
      System.of_fatbin ~obs ~decode_cache:false ~spare ~mode:System.Hipstr (Traffic.fatbin ()))

let () =
  Alcotest.run "fleet"
    [
      ( "traffic",
        [
          Alcotest.test_case "seeded generation reproducible" `Quick test_generate_reproducible;
          Alcotest.test_case "bursty arrivals batch" `Quick test_bursty_batches;
          Alcotest.test_case "arrival and mix parsers" `Quick test_parsers;
          Alcotest.test_case "parser rejections are actionable" `Quick
            test_parser_rejections_actionable;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "-j4 bit-identical to -j1" `Quick test_jobs_bit_identical;
          Alcotest.test_case "replay bit-identical" `Quick test_rerun_bit_identical;
        ] );
      ( "live migration",
        [
          Alcotest.test_case "migration bit-identical across jobs" `Quick
            test_live_migration_bit_identical;
          Alcotest.test_case "migration counters reconcile" `Quick test_live_migration_counter;
          Alcotest.test_case "empty percentile refuses" `Quick
            test_latency_percentile_empty_raises;
        ] );
      ( "serving",
        [
          Alcotest.test_case "psr fleet rides out the mix" `Quick test_psr_fleet_rides_out_the_mix;
          Alcotest.test_case "native fleet bleeds" `Quick test_native_fleet_bleeds;
          Alcotest.test_case "metrics namespaces" `Quick test_fleet_metrics_namespaces;
          Alcotest.test_case "admission cap respected" `Quick test_admission_cap_respected;
          Alcotest.test_case "latency percentiles exact" `Quick test_latency_percentile_exact;
          Alcotest.test_case "all policies serve" `Quick test_policies_all_serve;
        ] );
      ( "machine reuse",
        [
          Alcotest.test_case "reset machine boots like a new one" `Quick test_reset_is_fresh;
          Alcotest.test_case "spare of another shape refused" `Quick
            test_spare_of_another_shape_refused;
          Alcotest.test_case "restore onto a spare matches a new machine" `Quick
            test_restore_onto_spare;
        ] );
      ( "timeline",
        [
          Alcotest.test_case "windows reconcile, burst spikes p99" `Quick
            test_timeline_windows_and_burst;
          Alcotest.test_case "bit-identical across jobs" `Quick
            test_timeline_bit_identical_across_jobs;
        ] );
    ]
