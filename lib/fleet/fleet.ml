(* The fleet harness: hundreds–thousands of staged httpd connections
   sharded across a pool of heterogeneous CMPs, driven open-loop on
   one global guest-cycle clock.

   Model. Shard s owns every connection with cn_id ≡ s (mod shards)
   and one Cmp.t (its own cores, scheduler queue and obs child). Time
   advances in waves: each wave, every busy shard admits the arrivals
   that are due (bounded by fl_max_live so an overloaded shard queues
   instead of booting unbounded address spaces), runs one scheduling
   round, and reaps completions; the global clock then advances by
   the *maximum* per-core cycle delta any shard accumulated — a
   gang-scheduled epoch model, so shard clocks never drift apart by
   more than one round. When every shard is idle the clock jumps to
   the next pending arrival.

   Work distribution and determinism. One Pool crew serves every
   wave of a run. A wave's busy shards form one dynamic queue claimed
   by atomic fetch-and-add: an idle domain takes the next whole-CMP
   quantum in shard index order. Every simulated decision happens
   inside exactly one shard and reads only that shard's state,
   results are folded back in shard index order, and request
   latencies are stamped by the caller after the wave barrier — so
   -j N and -j 1 are bit-identical (the fleet determinism suite diffs
   the exports).

   Latency. A request's latency is wave-end clock minus arrival time,
   in guest cycles: it includes admission queueing (open-loop sojourn
   time), which is what makes the p99-vs-arrival-rate curves in
   BENCH_fleet.json hockey-stick under overload. Service cycles (the
   process's own accumulated cycles) are recorded separately. *)

module Obs = Hipstr_obs.Obs
module Stats = Hipstr_util.Stats
module Desc = Hipstr_isa.Desc
module System = Hipstr.System
module Config = Hipstr_psr.Config
module Process = Hipstr_cmp.Process
module Cmp = Hipstr_cmp.Cmp
module Pool = Hipstr_cmp.Pool
module Snapshot = Hipstr_snapshot.Snapshot
module Machine = Hipstr_machine.Machine

type config = {
  fl_shards : int;
  fl_cores : Desc.which list;  (* per shard *)
  fl_policy : Cmp.policy;
  fl_quantum : int;
  fl_mode : System.mode;
  fl_cfg : Config.t option;
  fl_seed : int;
  fl_fuel : int;  (* per-connection instruction budget *)
  fl_max_live : int;  (* admission cap per shard *)
  fl_migrate_every : int;  (* rebalance period in waves; 0 = off *)
}

let default =
  {
    fl_shards = 4;
    fl_cores = Cmp.default_cores;
    fl_policy = Cmp.Round_robin;
    fl_quantum = 2_000;
    fl_mode = System.Hipstr;
    fl_cfg = None;
    fl_seed = 1;
    fl_fuel = Traffic.default_fuel;
    fl_max_live = 8;
    fl_migrate_every = 0;
  }

type req_record = {
  rr_id : int;
  rr_tenant : int;
  rr_kind : Traffic.kind;
  rr_shard : int;
  rr_arrival : float;
  rr_admitted : float;
  rr_finished : float;
  rr_latency : float;  (* rr_finished - rr_arrival, guest cycles *)
  rr_service_cycles : float;
  rr_instructions : int;
  rr_outcome : System.outcome;
}

type result = {
  r_records : req_record list;  (* by cn_id *)
  r_makespan : float;  (* clock when the last request finished *)
  r_waves : int;
  r_completed : int;
  r_killed : int;
  r_shell : int;
  r_out_of_fuel : int;
  r_live_migrations : int;  (* cross-shard checkpoint/restore moves *)
}

let outcome_label = function
  | System.Finished _ -> "completed"
  | System.Shell_spawned -> "shell"
  | System.Killed _ -> "killed"
  | System.Out_of_fuel -> "out_of_fuel"

(* --- per-shard state ----------------------------------------------- *)

type shard = {
  sh_id : int;
  sh_obs : Obs.t;
  sh_cmp : Cmp.t;
  mutable sh_pending : Traffic.conn list;  (* future arrivals, in order *)
  mutable sh_prev_cycles : float array;
  sh_live : (int, Traffic.conn * float) Hashtbl.t;  (* pid -> conn, admitted stamp *)
  mutable sh_spares : Machine.t list;
      (* machines of connections this shard reaped or migrated away,
         rebooted by its next admissions; at most [fl_max_live] *)
}

(* A connection left the shard for good (reaped, or checkpointed for a
   live migration): keep its machine for the next admission. Booting
   on a reset machine is indistinguishable from booting on a new one
   ([Machine.reset]) and skips the ~28k words a new machine allocates.
   A spare holds the shard's obs counters, so it never leaves the
   shard. *)
let retire cfg sh p =
  if List.length sh.sh_spares < cfg.fl_max_live then
    sh.sh_spares <- System.machine (Process.sys p) :: sh.sh_spares

(* The next machine an arrival on this shard boots or restores onto. *)
let take_spare sh =
  match sh.sh_spares with
  | m :: rest ->
    sh.sh_spares <- rest;
    Some m
  | [] -> None

(* A completed connection as reported by a shard task, before the
   caller stamps it with the wave-end clock. *)
type completion = {
  co_conn : Traffic.conn;
  co_admitted : float;
  co_outcome : System.outcome;
  co_service : float;
  co_instructions : int;
}

let shard_wave cfg sh ~now =
  let ncores = List.length cfg.fl_cores in
  let rec admit () =
    match sh.sh_pending with
    | c :: rest when c.Traffic.cn_arrival <= now && Hashtbl.length sh.sh_live < cfg.fl_max_live ->
      sh.sh_pending <- rest;
      (* start ISA tiles the shard's core list so a pinned-mode fleet
         spreads over both ISAs deterministically *)
      let start_isa = List.nth cfg.fl_cores (c.Traffic.cn_id mod ncores) in
      let p =
        Traffic.spawn ~obs:sh.sh_obs ?cfg:cfg.fl_cfg ~seed:cfg.fl_seed ~start_isa
          ~fuel:cfg.fl_fuel ?spare:(take_spare sh) ~mode:cfg.fl_mode c
      in
      Cmp.inject sh.sh_cmp p;
      Hashtbl.replace sh.sh_live (Process.pid p) (c, now);
      admit ()
    | _ -> ()
  in
  admit ();
  if Cmp.runnable_count sh.sh_cmp > 0 then ignore (Cmp.step sh.sh_cmp);
  let cycles = Cmp.core_cycles sh.sh_cmp in
  let delta = ref 0. in
  Array.iteri (fun i c -> delta := Float.max !delta (c -. sh.sh_prev_cycles.(i))) cycles;
  sh.sh_prev_cycles <- cycles;
  let completions =
    List.map
      (fun p ->
        let pid = Process.pid p in
        let conn, admitted = Hashtbl.find sh.sh_live pid in
        Hashtbl.remove sh.sh_live pid;
        let co =
          {
            co_conn = conn;
            co_admitted = admitted;
            co_outcome =
              (match Process.outcome p with Some o -> o | None -> assert false);
            co_service = Process.cycles p;
            co_instructions = Process.instructions p;
          }
        in
        retire cfg sh p;
        co)
      (Cmp.reap sh.sh_cmp)
  in
  (!delta, completions)

let run ?(jobs = 1) ?(obs = Obs.disabled) ?timeline cfg conns =
  if cfg.fl_shards < 1 then invalid_arg "Fleet.run: shards must be positive";
  if cfg.fl_max_live < 1 then invalid_arg "Fleet.run: max_live must be positive";
  if cfg.fl_fuel < 1 then invalid_arg "Fleet.run: fuel must be positive";
  if cfg.fl_cores = [] then invalid_arg "Fleet.run: need at least one core per shard";
  let shards =
    Array.init cfg.fl_shards (fun s ->
        let sh_obs = Obs.child obs in
        {
          sh_id = s;
          sh_obs;
          sh_cmp =
            Cmp.create ~obs:sh_obs ~policy:cfg.fl_policy ~quantum:cfg.fl_quantum
              ~cores:cfg.fl_cores [];
          sh_pending = List.filter (fun c -> c.Traffic.cn_id mod cfg.fl_shards = s) conns;
          sh_prev_cycles = Array.make (List.length cfg.fl_cores) 0.;
          sh_live = Hashtbl.create 16;
          sh_spares = [];
        })
  in
  let observing = Obs.on obs in
  let m = Obs.metrics obs in
  let observe_completion r =
    if observing then begin
      let pre = Printf.sprintf "fleet.tenant.t%d" r.rr_tenant in
      Obs.Metrics.incr (Obs.Metrics.counter m (pre ^ ".requests"));
      Obs.Metrics.incr (Obs.Metrics.counter m (pre ^ "." ^ outcome_label r.rr_outcome));
      Obs.Metrics.observe (Obs.Metrics.histogram m (pre ^ ".latency_cycles")) r.rr_latency;
      Obs.Metrics.observe (Obs.Metrics.histogram m (pre ^ ".service_cycles")) r.rr_service_cycles;
      Obs.Metrics.observe (Obs.Metrics.histogram m "fleet.latency_cycles") r.rr_latency;
      Obs.Metrics.observe (Obs.Metrics.histogram m "fleet.service_cycles") r.rr_service_cycles;
      Obs.Metrics.observe
        (Obs.Metrics.histogram m (Printf.sprintf "fleet.kind.%s.latency_cycles" (Traffic.kind_name r.rr_kind)))
        r.rr_latency
    end
  in
  let records = ref [] in
  let makespan = ref 0. in
  let clock = ref 0. in
  let waves = ref 0 in
  let live_migrations = ref 0 in
  let fb = lazy (Traffic.fatbin ()) in
  (* Cross-shard live migration: every fl_migrate_every waves, in the
     sequential section after the wave barrier, move one runnable
     process from the most-loaded shard to the least-loaded one via
     checkpoint_process/restore_process — the same wire image the CLI
     writes to disk, so "migration" and "checkpoint to a file, restore
     on another pool" are literally the same operation. Everything
     here reads only post-barrier shard state and ties break by shard
     index / lowest pid, so the rebalance schedule (and therefore the
     whole run) stays bit-identical for any -j. The migrated process
     restarts cold on the target pool (core affinity is dropped by the
     image) and its metrics deltas accrue to the target's obs child;
     the source child already holds everything up to the move, and the
     end-of-run merge folds both into the parent. *)
  let rebalance () =
    let load sh = Cmp.runnable_count sh.sh_cmp in
    let src = ref shards.(0) and tgt = ref shards.(0) in
    Array.iter
      (fun sh ->
        if load sh > load !src then src := sh;
        if load sh < load !tgt then tgt := sh)
      shards;
    let src = !src and tgt = !tgt in
    if load src - load tgt >= 2 then begin
      let cand =
        List.fold_left
          (fun acc p ->
            if Process.outcome p <> None then acc
            else
              match acc with
              | Some q when Process.pid q <= Process.pid p -> acc
              | _ -> Some p)
          None (Cmp.processes src.sh_cmp)
      in
      match cand with
      | None -> ()
      | Some p ->
        let pid = Process.pid p in
        let p = Cmp.extract src.sh_cmp pid in
        let image = Snapshot.checkpoint_process p in
        retire cfg src p;
        let p', _ =
          Snapshot.restore_process ~obs:tgt.sh_obs ~merge_obs:false ?spare:(take_spare tgt)
            ~fatbin:(Lazy.force fb) image
        in
        Cmp.inject tgt.sh_cmp p';
        (match Hashtbl.find_opt src.sh_live pid with
        | Some entry ->
          Hashtbl.remove src.sh_live pid;
          Hashtbl.replace tgt.sh_live pid entry
        | None -> assert false);
        incr live_migrations;
        if observing then begin
          let bytes = String.length image in
          Obs.Metrics.incr (Obs.Metrics.counter m "fleet.live_migrations");
          Obs.Metrics.observe
            (Obs.Metrics.histogram m "fleet.migration.image_bytes")
            (float_of_int bytes);
          Obs.Metrics.observe
            (Obs.Metrics.histogram m "fleet.migration.cost_cycles")
            (Snapshot.checkpoint_cycles ~bytes +. Snapshot.transfer_cycles ~bytes)
        end
    end
  in
  let shard_busy ~now sh =
    Cmp.runnable_count sh.sh_cmp > 0
    ||
    match sh.sh_pending with
    | c :: _ -> c.Traffic.cn_arrival <= now && Hashtbl.length sh.sh_live < cfg.fl_max_live
    | [] -> false
  in
  let live () =
    Array.exists (fun sh -> sh.sh_pending <> [] || Hashtbl.length sh.sh_live > 0) shards
  in
  (* One crew for the whole run, no wider than the shard count: a
     wave runs at most one task per shard. *)
  Pool.with_crew ~jobs:(min jobs cfg.fl_shards) (fun crew ->
    while live () do
      let now = !clock in
      match List.filter (shard_busy ~now) (Array.to_list shards) with
      | [] ->
        (* every shard drained its live set: jump to the next arrival *)
        let next =
          Array.fold_left
            (fun acc sh ->
              match sh.sh_pending with
              | c :: _ -> Float.min acc c.Traffic.cn_arrival
              | [] -> acc)
            infinity shards
        in
        assert (next > now && next < infinity);
        clock := next
      | busy ->
        incr waves;
        let outs = Pool.crew_mapi crew (fun _ sh -> shard_wave cfg sh ~now) busy in
        let wave_delta = List.fold_left (fun acc (d, _) -> Float.max acc d) 0. outs in
        clock := now +. wave_delta;
        (* stamp completions at the wave-end clock, in shard index order *)
        List.iter2
          (fun sh (_, completions) ->
            List.iter
              (fun co ->
                let finished_at = !clock in
                let r =
                  {
                    rr_id = co.co_conn.Traffic.cn_id;
                    rr_tenant = co.co_conn.Traffic.cn_tenant;
                    rr_kind = co.co_conn.Traffic.cn_kind;
                    rr_shard = sh.sh_id;
                    rr_arrival = co.co_conn.Traffic.cn_arrival;
                    rr_admitted = co.co_admitted;
                    rr_finished = finished_at;
                    rr_latency = finished_at -. co.co_conn.Traffic.cn_arrival;
                    rr_service_cycles = co.co_service;
                    rr_instructions = co.co_instructions;
                    rr_outcome = co.co_outcome;
                  }
                in
                records := r :: !records;
                makespan := Float.max !makespan finished_at;
                observe_completion r)
              completions)
          busy outs;
        if cfg.fl_migrate_every > 0 && cfg.fl_shards > 1 && !waves mod cfg.fl_migrate_every = 0 then
          rebalance ();
        (* timeline sampling: after the wave barrier and the completion
           stamps, at the wave-end clock, in a fixed order — the parent
           (fleet.* histograms observed just above) first, then each
           busy shard's child in shard index order. Shards that sat the
           wave out have unchanged metrics, so skipping them changes
           nothing. Deterministic by the same fold-after-barrier
           argument as the end-of-run merge. *)
        (match timeline with
        | None -> ()
        | Some tl ->
          let cos = List.concat_map snd outs in
          let n f = List.length (List.filter (fun co -> f co.co_outcome) cos) in
          Obs.Timeline.record tl ~clock:!clock
            ~counters:
              [
                ("fleet.completed", n (function System.Finished _ -> true | _ -> false));
                ("fleet.killed", n (function System.Killed _ -> true | _ -> false));
                ("fleet.shell", n (fun o -> o = System.Shell_spawned));
                ("fleet.out_of_fuel", n (fun o -> o = System.Out_of_fuel));
              ];
          Obs.Timeline.sample tl ~key:"fleet" ~clock:!clock (Obs.snapshot obs);
          List.iter
            (fun sh ->
              Obs.Timeline.sample tl
                ~key:(Printf.sprintf "shard%d" sh.sh_id)
                ~clock:!clock (Obs.snapshot sh.sh_obs))
            busy)
    done);
  (* fold the shard children back in index order (byte-identical
     exports whatever the domain layout was) *)
  Array.iter (fun sh -> Obs.merge ~into:obs sh.sh_obs) shards;
  let records = List.sort (fun a b -> compare a.rr_id b.rr_id) !records in
  let count f = List.length (List.filter f records) in
  let result =
    {
      r_records = records;
      r_makespan = !makespan;
      r_waves = !waves;
      r_completed = count (fun r -> match r.rr_outcome with System.Finished _ -> true | _ -> false);
      r_killed = count (fun r -> match r.rr_outcome with System.Killed _ -> true | _ -> false);
      r_shell = count (fun r -> r.rr_outcome = System.Shell_spawned);
      r_out_of_fuel = count (fun r -> r.rr_outcome = System.Out_of_fuel);
      r_live_migrations = !live_migrations;
    }
  in
  if observing then begin
    let c name by = if by > 0 then Obs.Metrics.incr ~by (Obs.Metrics.counter m ("fleet." ^ name)) in
    c "waves" result.r_waves;
    c "requests" (List.length records);
    c "completed" result.r_completed;
    c "killed" result.r_killed;
    c "shell" result.r_shell;
    c "out_of_fuel" result.r_out_of_fuel
  end;
  result

(* --- reporting helpers --------------------------------------------- *)

let latencies r = List.map (fun x -> x.rr_latency) r.r_records

let latency_percentile r q =
  match latencies r with
  | [] -> invalid_arg "Fleet.latency_percentile: no completed requests"
  | ls -> Stats.percentile ls q

let throughput r =
  (* completed requests per million guest cycles of fleet time *)
  if r.r_makespan <= 0. then 0. else float_of_int r.r_completed *. 1e6 /. r.r_makespan

let by_kind r =
  List.map
    (fun k ->
      let mine = List.filter (fun x -> x.rr_kind = k) r.r_records in
      let n f = List.length (List.filter f mine) in
      ( k,
        List.length mine,
        n (fun x -> match x.rr_outcome with System.Finished _ -> true | _ -> false),
        n (fun x -> match x.rr_outcome with System.Killed _ -> true | _ -> false) ))
    Traffic.kinds

let by_tenant r =
  let tenants = List.sort_uniq compare (List.map (fun x -> x.rr_tenant) r.r_records) in
  List.map
    (fun t ->
      let mine = List.filter (fun x -> x.rr_tenant = t) r.r_records in
      (t, mine))
    tenants
