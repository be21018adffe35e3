(* Host-time benchmark of the simulator.

   Guest cycles are the model's output; this benchmark measures how
   long the OCaml program takes to produce them. One process runs one
   workload for a fixed host time and prints its metrics; guest
   results serve only as correctness checks against [refs_path].
   Run it from the repository root:

     main.exe --workload suite|churn|fleet|snapshot --seed N
              --seconds S --trace 0|1 [--trace-dir DIR]
     main.exe --write-refs FILE

   --trace 0 reports the end-to-end metrics; --trace 1 reports the
   per-layer metrics from spans recorded around each call into a
   layer (see spans.ml). The last stdout line is one JSON object.
   End-to-end times are scaled to a reference host speed by a
   calibration kernel timed between jobs (see calib.ml).
   README.md lists every metric and the layer it is meant to move. *)

module System = Hipstr.System
module Desc = Hipstr_isa.Desc
module Config = Hipstr_psr.Config
module Code_cache = Hipstr_psr.Code_cache
module Vm = Hipstr_psr.Vm
module Machine = Hipstr_machine.Machine
module Decode_cache = Hipstr_machine.Decode_cache
module Fatbin = Hipstr_compiler.Fatbin
module Compile = Hipstr_compiler.Compile
module Workloads = Hipstr_workloads.Workloads
module Obs = Hipstr_obs.Obs
module Pool = Hipstr_cmp.Pool
module Traffic = Hipstr_fleet.Traffic
module Fleet = Hipstr_fleet.Fleet
module Snapshot = Hipstr_snapshot.Snapshot
module Json = Hipstr_util.Json
module Stats = Hipstr_util.Stats

let default_seed = 1
let refs_path = "hostbench/refs.json"
let setup_reps = 7
let sum = List.fold_left ( +. ) 0.

(* ------------------------------------------------------------------ *)
(* Workload definitions. *)

let modes = [ ("native", System.Native); ("psr", System.Psr_only); ("hipstr", System.Hipstr) ]
let suite_workloads = Workloads.all @ [ Workloads.httpd ]
let churn_names = [ "gobmk"; "bzip2"; "milc"; "sphinx3" ]
let churn_cfg = { Config.default with cache_bytes = 4096; cc_policy = Code_cache.Flush }
let fleet_procs = 200
let fleet_warmup_procs = 8
let fleet_jobs = min 2 (Domain.recommended_domain_count ())

(* A fleet round serves [fleet_traces] independent traces, one batch
   each: the guest work in a single 200-connection trace varies by
   ~10% from seed to seed, and averaging two halves that variance. *)
let fleet_traces = 2

(* The admission cap is half the default's 8 live connections per
   shard, which halves the host's peak RSS (~1.3 GB instead of
   ~2.8 GB: every live connection holds a 32 MiB guest image). *)
let fleet_cfg ~seed i =
  {
    Fleet.default with
    fl_mode = System.Hipstr;
    fl_seed = Pool.task_seed ~seed i;
    fl_migrate_every = 1;
    fl_max_live = 4;
  }

let fleet_trace ~seed i =
  Traffic.generate ~seed:(Pool.task_seed ~seed i) ~procs:fleet_procs
    ~arrival:(Traffic.Poisson 100.) ~mix:Traffic.default_mix ()

type job = {
  key : string;  (** reference key *)
  work : Workloads.t;
  mode : System.mode;
  cfg : Config.t option;
  seed : int;
}

let rec index_of p i = function
  | [] -> raise Not_found
  | x :: rest -> if p x then i else index_of p (i + 1) rest

(* A job's seed depends only on the benchmark seed, the workload and
   the mode, so a snapshot job's restored run must reproduce the suite
   job of the same workload in hipstr mode bit for bit. *)
let job ?cfg ~prefix ~seed (w : Workloads.t) (mname, mode) =
  let wi = index_of (fun (x : Workloads.t) -> x.w_name = w.w_name) 0 suite_workloads in
  let mi = index_of (fun (n, _) -> n = mname) 0 modes in
  {
    key = String.concat "/" [ prefix; w.w_name; mname ];
    work = w;
    mode;
    cfg;
    seed = Pool.task_seed ~seed ((3 * wi) + mi);
  }

let mode name = (name, List.assoc name modes)

let suite_jobs ~seed =
  List.concat_map (fun w -> List.map (job ~prefix:"suite" ~seed w) modes) suite_workloads

let churn_jobs ~seed =
  List.map
    (fun n -> job ~cfg:churn_cfg ~prefix:"churn" ~seed (Workloads.find n) (mode "psr"))
    churn_names

(* A snapshot job is checked against the uninterrupted suite run. *)
let snapshot_jobs ~seed =
  List.map (fun w -> job ~prefix:"suite" ~seed w (mode "hipstr")) suite_workloads

type task = Plain of job | Snap of job | Batch of int  (** a fleet trace index *)
type workload = { name : string; tasks : int -> task list; sources : Workloads.t list }

let workloads =
  [
    {
      name = "suite";
      tasks = (fun seed -> List.map (fun j -> Plain j) (suite_jobs ~seed));
      sources = suite_workloads;
    };
    {
      name = "churn";
      tasks = (fun seed -> List.map (fun j -> Plain j) (churn_jobs ~seed));
      sources = List.map Workloads.find churn_names;
    };
    {
      name = "fleet";
      tasks = (fun _ -> List.init fleet_traces (fun i -> Batch i));
      sources = [ Traffic.victim ];
    };
    {
      name = "snapshot";
      tasks = (fun seed -> List.map (fun j -> Snap j) (snapshot_jobs ~seed));
      sources = suite_workloads;
    };
  ]

(* ------------------------------------------------------------------ *)
(* Guest results and the committed references. *)

type result = { outcome : string; output : int list; instructions : int; cycles : float }

let outcome_string = function
  | System.Finished n -> Printf.sprintf "finished %d" n
  | System.Shell_spawned -> "shell"
  | System.Killed m -> "killed: " ^ m
  | System.Out_of_fuel -> "out_of_fuel"

let result_of outcome sys =
  {
    outcome = outcome_string outcome;
    output = System.output sys;
    instructions = System.instructions sys;
    cycles = System.cycles sys;
  }

type fleet_summary = {
  completed : int;
  killed : int;
  shell : int;
  waves : int;
  makespan : float;
  p99_latency : float;
  live_migrations : int;
}

let summary_of (r : Fleet.result) =
  {
    completed = r.r_completed;
    killed = r.r_killed;
    shell = r.r_shell;
    waves = r.r_waves;
    makespan = r.r_makespan;
    p99_latency = Fleet.latency_percentile r 99.;
    live_migrations = r.r_live_migrations;
  }

(* Floats travel as their IEEE bits so the comparison is exact. *)
let bits f = Json.Str (Printf.sprintf "%016Lx" (Int64.bits_of_float f))

let float_of_bits = function
  | Json.Str s -> Int64.float_of_bits (Int64.of_string ("0x" ^ s))
  | _ -> failwith "refs: expected a bit string"

let int_of = function
  | Json.Num f when Float.is_integer f -> int_of_float f
  | _ -> failwith "refs: expected an integer"

let field k j =
  match Json.member k j with Some v -> v | None -> failwith ("refs: missing field " ^ k)

type refs = {
  r_jobs : (string, result) Hashtbl.t;
      (** outcome and output hold for every seed; instructions and
          cycles for [default_seed] only *)
  r_fleet : fleet_summary list;  (** per trace, [default_seed] only *)
}

let result_json r =
  Json.Obj
    [
      ("outcome", Json.Str r.outcome);
      ("output", Json.List (List.map Json.num_of_int r.output));
      ("instructions", Json.num_of_int r.instructions);
      ("cycle_bits", bits r.cycles);
    ]

let summary_json s =
  Json.Obj
    [
      ("completed", Json.num_of_int s.completed);
      ("killed", Json.num_of_int s.killed);
      ("shell", Json.num_of_int s.shell);
      ("waves", Json.num_of_int s.waves);
      ("makespan_bits", bits s.makespan);
      ("p99_latency_bits", bits s.p99_latency);
      ("live_migrations", Json.num_of_int s.live_migrations);
    ]

let load_refs path =
  let doc =
    match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
    | Ok d -> d
    | Error e -> failwith (path ^ ": " ^ e)
  in
  if int_of (field "default_seed" doc) <> default_seed then failwith "refs: default seed differs";
  let r_jobs = Hashtbl.create 64 in
  (match field "jobs" doc with
  | Json.Obj kvs ->
    List.iter
      (fun (k, j) ->
        Hashtbl.replace r_jobs k
          {
            outcome =
              (match field "outcome" j with Json.Str s -> s | _ -> failwith "refs: outcome");
            output =
              (match field "output" j with
              | Json.List l -> List.map int_of l
              | _ -> failwith "refs: output");
            instructions = int_of (field "instructions" j);
            cycles = float_of_bits (field "cycle_bits" j);
          })
      kvs
  | _ -> failwith "refs: jobs");
  let summary f =
    {
      completed = int_of (field "completed" f);
      killed = int_of (field "killed" f);
      shell = int_of (field "shell" f);
      waves = int_of (field "waves" f);
      makespan = float_of_bits (field "makespan_bits" f);
      p99_latency = float_of_bits (field "p99_latency_bits" f);
      live_migrations = int_of (field "live_migrations" f);
    }
  in
  match field "fleet" doc with
  | Json.List l -> { r_jobs; r_fleet = List.map summary l }
  | _ -> failwith "refs: fleet"

(* ------------------------------------------------------------------ *)
(* Running one job. [tr] is [None] on the untraced path. *)

type ctx = {
  seed : int;
  fatbins : (string, Fatbin.t) Hashtbl.t;
  refs : refs;
  traces : Traffic.conn list array;  (** fleet only *)
  first : (string, result) Hashtbl.t;
      (** first result per job, which every repeat must match *)
  first_fleet : (int, fleet_summary) Hashtbl.t;  (** likewise per trace *)
}

(* Layer counters, summed over a phase's jobs. *)
type counts = {
  mutable instrs : int;
  mutable cycles : float;
  mutable translations : int;
  mutable flushes : int;
  mutable retranslate_cycles : float;
  mutable migrations : int;
  mutable dc_hits : int;
  mutable dc_misses : int;
  mutable follows : int;
  mutable ic_hits : int;
  mutable ic_misses : int;
  mutable live_migrations : int;
  mutable waves : int;
  mutable image_bytes : int list;
}

let new_counts () =
  {
    instrs = 0;
    cycles = 0.;
    translations = 0;
    flushes = 0;
    retranslate_cycles = 0.;
    migrations = 0;
    dc_hits = 0;
    dc_misses = 0;
    follows = 0;
    ic_hits = 0;
    ic_misses = 0;
    live_migrations = 0;
    waves = 0;
    image_bytes = [];
  }

(* The decode cache is host state that every system starts empty. *)
let add_decode_counts c sys =
  List.iter
    (fun isa ->
      match Machine.decode_cache_stats (System.machine sys) isa with
      | Some (s : Decode_cache.stats) ->
        c.dc_hits <- c.dc_hits + s.hits;
        c.dc_misses <- c.dc_misses + s.misses;
        c.follows <- c.follows + s.chain_follows;
        c.ic_hits <- c.ic_hits + s.ic_mono_hits + s.ic_poly_hits;
        c.ic_misses <- c.ic_misses + s.ic_misses
      | None -> ())
    [ Desc.Cisc; Desc.Risc ]

(* PSR and migration counters are guest state: a restored system
   carries the checkpointed run's totals, so count each job's final
   system only. *)
let add_guest_counts c sys =
  List.iter
    (fun isa ->
      match System.vm sys isa with
      | vm -> c.translations <- c.translations + (Vm.stats vm).translations
      | exception Invalid_argument _ -> ())
    [ Desc.Cisc; Desc.Risc ];
  c.flushes <- c.flushes + System.cache_flushes sys;
  c.retranslate_cycles <- c.retranslate_cycles +. System.retranslate_cycles sys;
  c.migrations <- c.migrations + System.security_migrations sys + System.forced_migrations sys

let boot ?(decode_cache = true) tr ctx j =
  Spans.with_span tr "system.boot" (fun () ->
      System.of_fatbin ~obs:Obs.disabled ?cfg:j.cfg ~seed:j.seed ~start_isa:Desc.Cisc
        ~decode_cache ~mode:j.mode
        (Hashtbl.find ctx.fatbins j.work.w_name))

let run tr sys ~fuel = Spans.with_span tr "system.run" (fun () -> System.run sys ~fuel)
let full_fuel j = 3 * j.work.w_fuel

let plain_job ?decode_cache tr c ctx j =
  let sys = boot ?decode_cache tr ctx j in
  let outcome = run tr sys ~fuel:(full_fuel j) in
  add_decode_counts c sys;
  add_guest_counts c sys;
  result_of outcome sys

(* Boot, stop mid-flight, checkpoint, restore, and finish the
   restored system. The stop point is half the reference run's
   length, backing off until the partial run genuinely stops before
   the program ends. *)
let snapshot_job tr c ctx j =
  let rec interrupted partial =
    let sys = boot tr ctx j in
    match run tr sys ~fuel:partial with
    | System.Out_of_fuel -> sys
    | _ when partial > 64 -> interrupted (partial / 4)
    | _ -> failwith (j.key ^ ": finished in under 64 instructions")
  in
  let sys = interrupted ((Hashtbl.find ctx.refs.r_jobs j.key).instructions / 2) in
  add_decode_counts c sys;
  let image =
    Spans.with_span tr "snapshot.checkpoint" (fun () ->
        Snapshot.checkpoint ~workload:j.work.w_name sys)
  in
  c.image_bytes <- String.length image :: c.image_bytes;
  let restored, _ =
    Spans.with_span tr "snapshot.restore" (fun () ->
        Snapshot.restore ~obs:Obs.disabled ~fatbin:(Hashtbl.find ctx.fatbins j.work.w_name) image)
  in
  let outcome = run tr restored ~fuel:(full_fuel j) in
  add_decode_counts c restored;
  add_guest_counts c restored;
  result_of outcome restored

(* A job is correct when its outcome and output match the reference,
   and its guest fingerprint matches the reference on the default
   seed and the first run of the same job in this process on any. *)
let check ctx j r =
  let expect = Hashtbl.find ctx.refs.r_jobs j.key in
  let first =
    match Hashtbl.find_opt ctx.first j.key with
    | Some f -> f
    | None ->
      Hashtbl.replace ctx.first j.key r;
      r
  in
  let same_print a b =
    a.instructions = b.instructions && Int64.bits_of_float a.cycles = Int64.bits_of_float b.cycles
  in
  r.outcome = expect.outcome && r.output = expect.output && same_print r first
  && (ctx.seed <> default_seed || same_print r expect)

(* Request kinds that must be served, and those the server may kill;
   a shell or an exhausted budget is always wrong under hipstr. *)
let conn_ok (rr : Fleet.req_record) =
  match (rr.rr_kind, rr.rr_outcome) with
  | (Traffic.Valid | Traffic.Malformed), System.Finished 0 -> true
  | (Traffic.Oversized | Traffic.Attack), (System.Finished 0 | System.Killed _) -> true
  | _ -> false

(* The guest summary of a full trace must match the first batch of
   the same trace, and on the default seed the reference. *)
let fleet_batch tr c ctx i =
  let conns = ctx.traces.(i) in
  let r =
    Spans.with_span tr "fleet.run" (fun () ->
        Fleet.run ~jobs:fleet_jobs (fleet_cfg ~seed:ctx.seed i) conns)
  in
  let s = summary_of r in
  let first = Option.value ~default:s (Hashtbl.find_opt ctx.first_fleet i) in
  Hashtbl.replace ctx.first_fleet i first;
  let pinned = ctx.seed = default_seed && List.length conns = fleet_procs in
  let summary_ok = s = first && ((not pinned) || s = List.nth ctx.refs.r_fleet i) in
  let bad = List.length (List.filter (fun rr -> not (conn_ok rr)) r.r_records) in
  let n = List.length conns in
  c.live_migrations <- c.live_migrations + r.r_live_migrations;
  c.waves <- c.waves + r.r_waves;
  List.iter
    (fun (rr : Fleet.req_record) ->
      c.instrs <- c.instrs + rr.rr_instructions;
      c.cycles <- c.cycles +. rr.rr_service_cycles)
    r.r_records;
  let failed =
    if (not summary_ok) || List.length r.r_records <> n then n else bad
  in
  (n, failed)

(* Returns (jobs attempted, jobs failed). An exception fails the
   whole task. *)
let run_task tr c ctx task =
  let raised n e =
    prerr_endline ("hostbench: task raised " ^ Printexc.to_string e);
    (n, n)
  in
  match task with
  | Batch i -> ( try fleet_batch tr c ctx i with e -> raised (List.length ctx.traces.(i)) e)
  | Plain j | Snap j -> (
    try
      let r = match task with Snap _ -> snapshot_job tr c ctx j | _ -> plain_job tr c ctx j in
      c.instrs <- c.instrs + r.instructions;
      c.cycles <- c.cycles +. r.cycles;
      (1, if check ctx j r then 0 else 1)
    with e -> raised 1 e)

(* ------------------------------------------------------------------ *)
(* Set-up and the measured phase. *)

type setup = {
  ctx : ctx;
  seconds : float;  (** at the reference speed *)
  compile_s : float;
  generate_s : float;
}

let setup ~tr (w : workload) ~seed =
  let before = Calib.run () in
  let t0 = Spans.now_ns () in
  let timed name f =
    let t = Spans.now_ns () in
    let v = Spans.with_span tr name f in
    (v, Spans.seconds_between t (Spans.now_ns ()))
  in
  let fatbins = Hashtbl.create 16 in
  let (), compile_s =
    timed "compile" (fun () ->
        List.iter
          (fun (src : Workloads.t) ->
            Hashtbl.replace fatbins src.w_name
              (Compile.to_fatbin (Workloads.full_source src)))
          w.sources)
  in
  let traces, generate_s =
    if w.name = "fleet" then
      timed "traffic.generate" (fun () -> Array.init fleet_traces (fleet_trace ~seed))
    else ([||], 0.)
  in
  let refs, _ = timed "refs.load" (fun () -> load_refs refs_path) in
  let ctx =
    { seed; fatbins; refs; traces; first = Hashtbl.create 64; first_fleet = Hashtbl.create 4 }
  in
  (* warm-up: the first task, checked; on fleet a short batch *)
  let warm_ctx =
    if w.name <> "fleet" then ctx
    else
      {
        ctx with
        traces = [| List.filteri (fun i _ -> i < fleet_warmup_procs) traces.(0) |];
        first_fleet = Hashtbl.create 1;
      }
  in
  let _, failed =
    Spans.with_span tr "warmup" (fun () ->
        run_task tr (new_counts ()) warm_ctx (List.hd (w.tasks seed)))
  in
  if failed > 0 then failwith (w.name ^ ": warm-up job failed");
  let raw = Spans.seconds_between t0 (Spans.now_ns ()) in
  { ctx; seconds = Calib.scale ~before ~after:(Calib.run ()) raw; compile_s; generate_s }

type round = {
  raw_s : float;  (** host seconds of the round's jobs, as measured *)
  seconds : float;  (** the same at the reference speed *)
  instrs : int;
  jobs : int;
  job_s : float list;
      (** per job at the reference speed; on fleet one sample per round,
          its time per connection *)
}

type phase = {
  rounds : round list;
  attempted : int;
  failed : int;
  counts : counts;
  kernel_s : float list;  (** calibration kernel times *)
}

let round_s p = List.map (fun r -> r.seconds) p.rounds
let round_raw_s p = List.map (fun r -> r.raw_s) p.rounds

(* Whole rounds over the task list until [seconds] have passed, so
   every round holds the same jobs. The calibration kernel runs before
   the first job and after every job; a job's time is scaled by the
   kernel times on either side of it. *)
let measure ?tr (w : workload) ctx ~seconds =
  let tasks = w.tasks ctx.seed in
  let c = new_counts () in
  let rounds = ref [] and attempted = ref 0 and failed = ref 0 in
  let start = Spans.now_ns () in
  let job_id = ref 0 in
  let kernel_s = ref [ Calib.run () ] in
  while !rounds = [] || Spans.seconds_between start (Spans.now_ns ()) < seconds do
    let instrs0 = c.instrs and attempted0 = !attempted in
    let times =
      List.map
        (fun task ->
          Option.iter (fun t -> Spans.set_job t !job_id) tr;
          incr job_id;
          let j0 = Spans.now_ns () in
          let n, bad = Spans.with_span tr "job" (fun () -> run_task tr c ctx task) in
          let raw = Spans.seconds_between j0 (Spans.now_ns ()) in
          let after = Calib.run () in
          let scaled = Calib.scale ~before:(List.hd !kernel_s) ~after raw in
          kernel_s := after :: !kernel_s;
          attempted := !attempted + n;
          failed := !failed + bad;
          (raw, scaled, n))
        tasks
    in
    let seconds = sum (List.map (fun (_, s, _) -> s) times) in
    let jobs = !attempted - attempted0 in
    rounds :=
      {
        raw_s = sum (List.map (fun (r, _, _) -> r) times);
        seconds;
        instrs = c.instrs - instrs0;
        jobs;
        job_s =
          (if w.name = "fleet" then [ seconds /. float_of_int jobs ]
           else List.map (fun (_, s, n) -> s /. float_of_int n) times);
      }
      :: !rounds
  done;
  {
    rounds = List.rev !rounds;
    attempted = !attempted;
    failed = !failed;
    counts = c;
    kernel_s = !kernel_s;
  }

(* ------------------------------------------------------------------ *)
(* Metrics. *)

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith "no VmHWM in /proc/self/status"
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
          Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.)
        | Some _ -> scan ()
      in
      scan ())

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let job_samples p = List.concat_map (fun r -> r.job_s) p.rounds

(* Times are at the reference speed. Round figures are medians over
   rounds, so a few rounds the scaling misses do not move them; job
   percentiles are over every job of the run. *)
let end_to_end ~setups p =
  let per_round f = Stats.median (List.map f p.rounds) in
  let job_ms q = 1000. *. Stats.percentile (job_samples p) q in
  [
    ("setup_s", "s", Stats.median (List.map (fun (s : setup) -> s.seconds) setups));
    ("wall_s", "s", per_round (fun r -> r.seconds));
    ("mips", "MIPS", per_round (fun r -> float_of_int r.instrs /. r.seconds /. 1e6));
    ("jobs_per_s", "1/s", per_round (fun r -> float_of_int r.jobs /. r.seconds));
    ("job_ms_p50", "ms", job_ms 50.);
    ("job_ms_p90", "ms", job_ms 90.);
    ("peak_rss_mb", "MB", peak_rss_mb ());
  ]

(* Per-layer metrics of the traced phase, per round unless stated. *)
let per_layer ~setups ~untraced ~traced selfs =
  let in_phase p = List.filter (fun (s, _) -> s.Spans.phase = p) selfs in
  let traced_spans = in_phase "traced" in
  let named l n = List.filter (fun (s, _) -> s.Spans.name = n) l in
  let self l n = sum (List.map snd (named l n)) in
  let durations l n = List.map (fun (s, _) -> Spans.duration s) (named l n) in
  let p50_ms l n = match durations l n with [] -> 0. | d -> 1000. *. Stats.median d in
  let c = traced.counts in
  let rounds = float_of_int (List.length traced.rounds) in
  let per_round x = x /. rounds in
  let wall = sum (round_raw_s traced) in
  let jobs = named traced_spans "job" in
  let run_s = self traced_spans "system.run" in
  let probe_spans = in_phase "probe" in
  let boot_src, boot_spans, boot_div =
    if probe_spans = [] then ("system.boot", traced_spans, rounds)
    else ("traffic.spawn", probe_spans, 1.)
  in
  let images = List.map float_of_int c.image_bytes in
  let mb_per_s name =
    let t = self traced_spans name in
    if t = 0. then 0. else sum images /. 1e6 /. t
  in
  let fleet_run_s = self traced_spans "fleet.run" in
  [
    ("compile.s", "s", Stats.median (List.map (fun s -> s.compile_s) setups));
    ("system.boot.s", "s", self boot_spans boot_src /. boot_div);
    ("system.boot.ms_p50", "ms", p50_ms boot_spans boot_src);
    ( "system.boot.count",
      "count",
      float_of_int (List.length (named boot_spans boot_src)) /. boot_div );
    ("system.run.s", "s", per_round run_s);
    ( "system.run.ns_per_instr",
      "ns",
      if c.instrs = 0 then 0. else run_s *. 1e9 /. float_of_int c.instrs );
    ("guest.instructions", "count", per_round (float_of_int c.instrs));
    ("guest.cycles", "cycles", per_round c.cycles);
    ("machine.decode_cache.hit_ratio", "ratio", ratio c.dc_hits (c.dc_hits + c.dc_misses));
    ( "machine.chain.follow_ratio",
      "ratio",
      ratio c.follows (c.follows + c.ic_hits + c.dc_hits + c.dc_misses) );
    ("machine.ic.hit_ratio", "ratio", ratio c.ic_hits (c.ic_hits + c.ic_misses));
    ("psr.translations", "count", per_round (float_of_int c.translations));
    ("psr.cache_flushes", "count", per_round (float_of_int c.flushes));
    ("psr.retranslate_cycles", "cycles", per_round c.retranslate_cycles);
    ( "psr.ns_per_translation",
      "ns",
      if c.translations = 0 then 0. else run_s *. 1e9 /. float_of_int c.translations );
    ("guest.migrations", "count", per_round (float_of_int c.migrations));
    ("fleet.live_migrations", "count", per_round (float_of_int c.live_migrations));
    ("snapshot.checkpoint.ms_p50", "ms", p50_ms traced_spans "snapshot.checkpoint");
    ("snapshot.restore.ms_p50", "ms", p50_ms traced_spans "snapshot.restore");
    ("snapshot.image_kb", "KiB", (match images with [] -> 0. | l -> Stats.median l /. 1024.));
    ("snapshot.checkpoint.mb_per_s", "MB/s", mb_per_s "snapshot.checkpoint");
    ("snapshot.restore.mb_per_s", "MB/s", mb_per_s "snapshot.restore");
    ("traffic.generate.s", "s", Stats.median (List.map (fun s -> s.generate_s) setups));
    ("traffic.spawn.ms_p50", "ms", p50_ms probe_spans "traffic.spawn");
    ("fleet.run.s", "s", per_round fleet_run_s);
    ("fleet.waves", "count", per_round (float_of_int c.waves));
    ( "fleet.ms_per_wave",
      "ms",
      if c.waves = 0 then 0. else 1000. *. fleet_run_s /. float_of_int c.waves );
    ( "gc.minor_words_per_instr",
      "words",
      if c.instrs = 0 then 0.
      else sum (List.map (fun (s, _) -> s.Spans.minor_words) jobs) /. float_of_int c.instrs );
    ( "gc.major_mwords",
      "Mwords",
      per_round (sum (List.map (fun (s, _) -> s.Spans.major_words) jobs)) /. 1e6 );
    ( "trace.overhead_pct",
      "%",
      100. *. ((Stats.median (round_s traced) /. Stats.median (round_s untraced)) -. 1.) );
    ( "trace.residual_pct",
      "%",
      100. *. (wall -. sum (List.map snd traced_spans)) /. wall );
  ]

(* ------------------------------------------------------------------ *)
(* Entry points. *)

let print_result ~correct ~attempted ~failed metrics =
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.num_of_int attempted);
            ("failed", Json.num_of_int failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (n, u, v) -> (n, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ]))
                   metrics) );
          ]))

let print_self_times selfs wall =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      if s.Spans.phase = "traced" then
        let n, t = Option.value ~default:(0, 0.) (Hashtbl.find_opt tbl s.Spans.name) in
        Hashtbl.replace tbl s.Spans.name (n + 1, t +. self))
    selfs;
  let rows =
    List.sort (fun (_, (_, a)) (_, (_, b)) -> compare b a) (List.of_seq (Hashtbl.to_seq tbl))
  in
  Printf.printf "traced self time (wall %.3f s):\n" wall;
  List.iter
    (fun (name, (n, t)) ->
      Printf.printf "  %-22s %7d spans %9.3f s %6.2f%%\n" name n t (100. *. t /. wall))
    rows;
  let covered = sum (List.map (fun (_, (_, t)) -> t) rows) in
  Printf.printf "  %-22s %7s       %9.3f s %6.2f%%\n" "(outside spans)" "" (wall -. covered)
    (100. *. (wall -. covered) /. wall)

let bench ~workload ~seed ~seconds ~trace ~trace_dir =
  let w =
    match List.find_opt (fun w -> w.name = workload) workloads with
    | Some w -> w
    | None -> failwith ("unknown workload " ^ workload)
  in
  (* Fleet.run boots every connection from the memoized victim binary;
     compile it once up front so no set-up repetition pays for it. *)
  if w.name = "fleet" then ignore (Traffic.fatbin ());
  let tr = if trace then Some (Spans.create ()) else None in
  let setups = List.init setup_reps (fun _ -> setup ~tr w ~seed) in
  let ctx = (List.nth setups (setup_reps - 1)).ctx in
  let report p =
    let rounds f = String.concat "" (List.map (Printf.sprintf " %.3f") (f p)) in
    Printf.printf
      "%s seed %d: %d/%d jobs failed, %d rounds, %d job-time samples; round seconds at the \
       reference speed:%s; as measured:%s; calibration kernel median %.3f ms (reference %.3f ms)\n"
      w.name seed p.failed p.attempted (List.length p.rounds)
      (List.length (job_samples p))
      (rounds round_s) (rounds round_raw_s)
      (1000. *. Stats.median p.kernel_s)
      (1000. *. Calib.reference_s)
  in
  match tr with
  | None ->
    let p = measure w ctx ~seconds in
    report p;
    print_result ~correct:(p.failed = 0) ~attempted:p.attempted ~failed:p.failed
      (end_to_end ~setups p)
  | Some t ->
    let untraced = measure w ctx ~seconds:(seconds /. 2.) in
    Spans.set_phase t "traced";
    let traced = measure ~tr:t w ctx ~seconds:(seconds /. 2.) in
    (* Connections boot inside Fleet.run, out of the benchmark's
       reach; spawn each once more here to time the boot layer. *)
    if w.name = "fleet" then begin
      Spans.set_phase t "probe";
      let seed = (fleet_cfg ~seed 0).fl_seed in
      List.iter
        (fun conn ->
          Spans.with_span tr "traffic.spawn" (fun () ->
              ignore (Traffic.spawn ~obs:Obs.disabled ~seed ~mode:System.Hipstr conn)))
        ctx.traces.(0)
    end;
    let selfs = Spans.self_times (Spans.spans t) in
    report untraced;
    report traced;
    print_self_times selfs (sum (round_raw_s traced));
    Option.iter
      (fun dir ->
        let path = Filename.concat dir (Printf.sprintf "%s-seed%d.spans.json" w.name seed) in
        Spans.write t path;
        Printf.printf "spans written to %s\n" path)
      trace_dir;
    let attempted = untraced.attempted + traced.attempted in
    let failed = untraced.failed + traced.failed in
    print_result ~correct:(failed = 0) ~attempted ~failed
      (per_layer ~setups ~untraced ~traced selfs)

(* ------------------------------------------------------------------ *)
(* Reference generation. Nothing is written unless the fast path and
   the [decode_cache:false] oracle agree on every job, every restored
   snapshot run reproduces its uninterrupted run, and the fleet serves
   each trace identically on one domain and on two, with every
   connection's standalone run agreeing with the oracle. *)

let write_refs path =
  let seed = default_seed in
  let fail fmt = Printf.ksprintf failwith fmt in
  let fatbins = Hashtbl.create 16 in
  List.iter
    (fun (w : Workloads.t) -> Hashtbl.replace fatbins w.w_name (Workloads.fatbin w))
    suite_workloads;
  let ctx =
    {
      seed;
      fatbins;
      refs = { r_jobs = Hashtbl.create 0; r_fleet = [] };
      traces = [||];
      first = Hashtbl.create 0;
      first_fleet = Hashtbl.create 0;
    }
  in
  let c = new_counts () in
  let same a b = result_json a = result_json b in
  let jobs =
    List.map
      (fun j ->
        let fast = plain_job None c ctx j in
        let oracle = plain_job ~decode_cache:false None c ctx j in
        if not (same fast oracle) then fail "%s: fast path and oracle disagree" j.key;
        if fast.outcome <> "finished 0" then fail "%s: %s" j.key fast.outcome;
        Printf.printf "  %-24s %10d instrs  agrees with the oracle\n%!" j.key fast.instructions;
        (j.key, fast))
      (suite_jobs ~seed @ churn_jobs ~seed)
  in
  List.iter (fun (k, r) -> Hashtbl.replace ctx.refs.r_jobs k r) jobs;
  List.iter
    (fun j ->
      if not (same (snapshot_job None c ctx j) (List.assoc j.key jobs)) then
        fail "%s: restored run differs from the uninterrupted one" j.key)
    (snapshot_jobs ~seed);
  let fleet_summary i =
    let cfg = fleet_cfg ~seed i and conns = fleet_trace ~seed i in
    let r1 = Fleet.run ~jobs:1 cfg conns and r2 = Fleet.run ~jobs:2 cfg conns in
    if r1.r_records <> r2.r_records || summary_of r1 <> summary_of r2 then
      fail "fleet trace %d: -j 1 and -j 2 disagree" i;
    List.iter
      (fun (rr : Fleet.req_record) ->
        if not (conn_ok rr) then
          fail "fleet trace %d: connection %d (%s) ended %s" i rr.rr_id
            (Traffic.kind_name rr.rr_kind) (outcome_string rr.rr_outcome))
      r1.r_records;
    List.iter
      (fun (conn : Traffic.conn) ->
        let standalone decode_cache =
          let sys =
            System.of_fatbin ~obs:Obs.disabled ~seed:(Pool.task_seed ~seed:cfg.fl_seed conn.cn_id)
              ~start_isa:Desc.Cisc ~decode_cache ~mode:System.Hipstr (Traffic.fatbin ())
          in
          Traffic.stage conn sys;
          result_of (System.run sys ~fuel:Traffic.default_fuel) sys
        in
        if not (same (standalone true) (standalone false)) then
          fail "fleet trace %d: connection %d: fast path and oracle disagree" i conn.cn_id)
      conns;
    Printf.printf "  fleet trace %d: %d waves, identical on 1 and 2 domains\n%!" i r1.r_waves;
    summary_of r1
  in
  let doc =
    Json.Obj
      [
        ("schema", Json.Str "hipstr-hostbench-refs/1");
        ("default_seed", Json.num_of_int seed);
        ("jobs", Json.Obj (List.map (fun (k, r) -> (k, result_json r)) jobs));
        ("fleet", Json.List (List.init fleet_traces (fun i -> summary_json (fleet_summary i))));
      ]
  in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (Json.to_string_pretty doc);
      Out_channel.output_char oc '\n');
  Printf.printf "references written to %s\n" path

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 10. and trace = ref 0 in
  let trace_dir = ref None and refs_out = ref None in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1 | --write-refs FILE" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME suite, churn, fleet or snapshot");
      ("--seed", Arg.Set_int seed, "N workload seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measured host seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--trace-dir", Arg.String (fun d -> trace_dir := Some d), "DIR where spans are written");
      ("--write-refs", Arg.String (fun f -> refs_out := Some f), "FILE regenerate the references");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  try
    match !refs_out with
    | Some path -> write_refs path
    | None ->
      if !trace <> 0 && !trace <> 1 then raise (Arg.Bad "--trace takes 0 or 1");
      if !seconds <= 0. then raise (Arg.Bad "--seconds must be positive");
      bench ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
        ~trace_dir:!trace_dir
  with Failure m | Arg.Bad m | Sys_error m ->
    prerr_endline ("hostbench: " ^ m);
    exit 2
