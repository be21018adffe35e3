(* The HIPStR command-line front end.

   Subcommands:
     run        — execute a workload natively / under PSR / under HIPStR
     cmp-run    — time-slice several workloads across a mixed-ISA CMP
     gadgets    — Galileo gadget-mining summary for a workload image
     attack     — deliver the execve ROP exploit against httpd
     experiment — regenerate paper tables/figures (comma ids or 'all'; -j fans
                  them across domains)
     disasm     — disassemble a function from a workload's fat binary
     list       — workloads and experiments

   Argument hygiene: workload/experiment names, seeds, probabilities,
   optimization levels, job counts and core specs are all validated by
   cmdliner converters, so a bad invocation dies with a usage error
   before any simulation starts. *)

open Cmdliner
module Desc = Hipstr_isa.Desc
module Isa = Hipstr_isa.Isa
module Minstr = Hipstr_isa.Minstr
module System = Hipstr.System
module Config = Hipstr_psr.Config
module Workloads = Hipstr_workloads.Workloads
module Galileo = Hipstr_galileo.Galileo
module Fatbin = Hipstr_compiler.Fatbin
module Machine = Hipstr_machine.Machine
module Registry = Hipstr_experiments.Registry
module Rop = Hipstr_attacks.Rop
module Obs = Hipstr_obs.Obs
module Cmp = Hipstr_cmp.Cmp
module Process = Hipstr_cmp.Process
module Code_cache = Hipstr_psr.Code_cache
module Traffic = Hipstr_fleet.Traffic
module Fleet = Hipstr_fleet.Fleet
module Snapshot = Hipstr_snapshot.Snapshot
module Wire = Hipstr_util.Wire

let isa_conv =
  Arg.conv
    ( (fun s ->
        match Isa.of_name s with
        | Some w -> Ok w
        | None -> Error (`Msg "isa must be cisc/x86 or risc/arm")),
      fun ppf w -> Format.pp_print_string ppf (Isa.name w) )

let mode_conv =
  Arg.conv
    ( (fun s ->
        match System.mode_of_name s with
        | Some m -> Ok m
        | None -> Error (`Msg "mode must be native, psr or hipstr")),
      fun ppf m -> Format.pp_print_string ppf (System.mode_name m) )

(* ------------------------------------------------------------------ *)
(* Validated converters: a bad workload name, seed, probability or
   core spec is a usage error at parse time, never a crash (or worse,
   a silently wrong run) minutes into a simulation. *)

let workload_conv =
  Arg.conv
    ( (fun s ->
        match Workloads.find s with
        | w -> Ok w
        | exception Not_found ->
          Error
            (`Msg
               (Printf.sprintf "unknown workload '%s' (expected one of: %s)" s
                  (String.concat ", " Workloads.names)))),
      fun ppf (w : Workloads.t) -> Format.pp_print_string ppf w.w_name )

let bounded_int_conv ~what ~lo ?hi () =
  let expected =
    match hi with
    | Some h -> Printf.sprintf "%s must be an integer in [%d, %d]" what lo h
    | None -> Printf.sprintf "%s must be an integer >= %d" what lo
  in
  Arg.conv
    ( (fun s ->
        match int_of_string_opt s with
        | Some n when n >= lo && (match hi with None -> true | Some h -> n <= h) -> Ok n
        | _ -> Error (`Msg (Printf.sprintf "%s (got '%s')" expected s))),
      Format.pp_print_int )

let seed_conv = bounded_int_conv ~what:"seed" ~lo:0 ()
let opt_conv = bounded_int_conv ~what:"optimization level" ~lo:0 ~hi:3 ()
let fuel_conv = bounded_int_conv ~what:"fuel" ~lo:1 ()
let jobs_conv = bounded_int_conv ~what:"jobs" ~lo:1 ()
let quantum_conv = bounded_int_conv ~what:"quantum" ~lo:1 ()
let cc_capacity_conv = bounded_int_conv ~what:"code-cache capacity (bytes)" ~lo:4096 ()

let cc_policy_conv =
  Arg.conv
    ( (fun s ->
        match Code_cache.policy_of_string s with
        | Some p -> Ok p
        | None -> Error (`Msg (Printf.sprintf "unknown cache policy '%s' (flush, fifo or clock)" s))),
      fun ppf p -> Format.pp_print_string ppf (Code_cache.policy_name p) )

let prob_conv =
  Arg.conv
    ( (fun s ->
        match float_of_string_opt s with
        | Some p when p >= 0.0 && p <= 1.0 -> Ok p
        | _ -> Error (`Msg (Printf.sprintf "probability must be in [0.0, 1.0] (got '%s')" s))),
      fun ppf p -> Format.fprintf ppf "%g" p )

let policy_conv =
  Arg.conv
    ( (fun s ->
        match Cmp.policy_of_string s with
        | Some p -> Ok p
        | None ->
          Error
            (`Msg
               (Printf.sprintf "unknown policy '%s' (round-robin, load-balance or security-first)"
                  s))),
      fun ppf p -> Format.pp_print_string ppf (Cmp.policy_name p) )

(* --cores takes either a core count N (tiling the paper's cisc/risc
   pair) or an explicit comma list like "cisc,risc,risc". *)
let cores_conv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 && n <= 64 ->
      Ok (List.init n (fun i -> if i mod 2 = 0 then Desc.Cisc else Desc.Risc))
    | Some _ -> Error (`Msg (Printf.sprintf "core count must be in [1, 64] (got '%s')" s))
    | None ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | p :: rest -> (
          match Isa.of_name (String.trim p) with
          | Some w -> go (w :: acc) rest
          | None ->
            Error
              (`Msg
                 (Printf.sprintf
                    "bad core '%s': expected a core count or a comma list of cisc/risc"
                    (String.lowercase_ascii (String.trim p)))))
      in
      go [] (String.split_on_char ',' s)
  in
  let print ppf cores =
    Format.pp_print_string ppf
      (String.concat "," (List.map Isa.name cores))
  in
  Arg.conv (parse, print)

(* The experiment positional: one id, a comma list of ids, or 'all'. *)
let experiments_conv =
  let all_ids () = String.concat ", " (List.map (fun e -> e.Registry.ex_id) Registry.all) in
  let parse s =
    if String.lowercase_ascii s = "all" then Ok Registry.all
    else
      let ids =
        List.filter (fun x -> x <> "") (List.map String.trim (String.split_on_char ',' s))
      in
      if ids = [] then Error (`Msg "no experiment ids given")
      else
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | id :: rest -> (
            match Registry.find id with
            | Some e -> go (e :: acc) rest
            | None ->
              Error
                (`Msg
                   (Printf.sprintf "unknown experiment '%s' (expected 'all' or one of: %s)" id
                      (all_ids ()))))
        in
        go [] ids
  in
  Arg.conv
    ( parse,
      fun ppf es ->
        Format.pp_print_string ppf (String.concat "," (List.map (fun e -> e.Registry.ex_id) es))
    )

let workload_arg =
  let doc = "Workload name (see `list')." in
  Arg.(required & pos 0 (some workload_conv) None & info [] ~docv:"WORKLOAD" ~doc)

let isa_arg = Arg.(value & opt isa_conv Desc.Cisc & info [ "isa" ] ~doc:"ISA/core to start on.")

let mode_arg ?(default = System.Hipstr) ~doc () =
  Arg.(value & opt mode_conv default & info [ "mode" ] ~doc)

let opt_arg = Arg.(value & opt opt_conv 3 & info [ "opt" ] ~doc:"PSR optimization level (0-3).")

let seed_arg = Arg.(value & opt seed_conv 1 & info [ "seed" ] ~doc:"Randomization seed (>= 0).")

let no_dcache_arg =
  Arg.(
    value & flag
    & info [ "no-decode-cache" ]
        ~doc:
          "Disable the host-side predecoded-basic-block cache and re-decode every instruction: \
           the interpreter's oracle (simulation results are bit-identical either way, only \
           slower).")

let jobs_arg =
  Arg.(
    value
    & opt jobs_conv 1
    & info [ "j"; "jobs" ]
        ~doc:
          "Domains to fan independent simulations across. Results are bit-identical to $(b,-j 1);\
           only the wall clock changes.")

let migrate_prob_arg =
  Arg.(
    value
    & opt (some prob_conv) None
    & info [ "migrate-prob" ]
        ~doc:"Probability of migrating on a suspicious code-cache miss (0.0-1.0; hipstr mode).")

(* --cc-capacity / --cc-policy are shared by run, run-file and cmp-run. *)
let cc_capacity_arg =
  Arg.(
    value
    & opt (some cc_capacity_conv) None
    & info [ "cc-capacity" ] ~docv:"BYTES"
        ~doc:"Per-ISA code-cache capacity in bytes (>= 4096; default 2 MiB).")

let cc_policy_arg =
  Arg.(
    value
    & opt (some cc_policy_conv) None
    & info [ "cc-policy" ] ~docv:"POLICY"
        ~doc:
          "Code-cache capacity policy: $(b,flush) (wholesale flush on shortfall), $(b,fifo) or \
           $(b,clock) (block-granular eviction with translation memo).")

(* The PSR config of run, checkpoint, run-file and cmp-run: the
   default, with whichever of the shared flags the command takes. *)
let make_config ?opt_level ?migrate_prob cc_capacity cc_policy =
  let set v f cfg = match v with None -> cfg | Some v -> f cfg v in
  Config.default
  |> set opt_level (fun c opt_level -> { c with Config.opt_level })
  |> set migrate_prob (fun c p -> { c with Config.migrate_prob = p })
  |> set cc_capacity (fun c b -> { c with Config.cache_bytes = b })
  |> set cc_policy (fun c p -> { c with Config.cc_policy = p })

let outcome_string = function
  | System.Finished c -> Printf.sprintf "finished (exit %d)" c
  | System.Shell_spawned -> "SHELL SPAWNED (attack succeeded)"
  | System.Killed m -> "killed: " ^ m
  | System.Out_of_fuel -> "out of fuel"

(* The result block of run, restore and run-file. *)
let print_summary label sys outcome =
  Printf.printf "%s: %s\n" label (outcome_string outcome);
  Printf.printf "output: %s\n" (String.concat " " (List.map string_of_int (System.output sys)));
  Printf.printf "instructions: %d  cycles: %.0f  simulated time: %.3f ms\n"
    (System.instructions sys) (System.cycles sys) (1000. *. System.seconds sys)

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ] ~doc:"Print the observability counter/histogram snapshot after the run.")

let print_obs obs =
  let snap = Obs.snapshot obs in
  Printf.printf "metrics (non-zero):\n";
  List.iter
    (fun (n, v) -> if v > 0 then Printf.printf "  %-44s %d\n" n v)
    snap.Obs.Metrics.snap_counters;
  List.iter
    (fun (n, (h : Obs.Metrics.histogram_summary)) ->
      if h.hs_count > 0 then
        Printf.printf "  %-44s n=%d sum=%.0f mean=%.1f min=%.0f max=%.0f p50=%.0f p95=%.0f p99=%.0f\n"
          n h.hs_count h.hs_sum h.hs_mean h.hs_min h.hs_max (Obs.Metrics.p50 h)
          (Obs.Metrics.p95 h) (Obs.Metrics.p99 h))
    snap.Obs.Metrics.snap_histograms;
  List.iter
    (fun (n, count, cycles) ->
      Printf.printf "  %-44s n=%d cycles=%.0f\n" ("span." ^ n) count cycles)
    (Obs.Export.span_rollup obs);
  let au = Obs.audit obs in
  if Obs.Audit.length au > 0 then begin
    let label_count l =
      Obs.Audit.count au (fun e -> Obs.Audit.kind_label e.Obs.Audit.au_kind = l)
    in
    Printf.printf "  %-44s %d (suspicious=%d decisions=%d migrations=%d faults=%d sched=%d)\n"
      "audit.entries" (Obs.Audit.length au) (label_count "suspicious") (label_count "decision")
      (label_count "migration") (label_count "fault") (label_count "sched-migrate")
  end

let print_metrics sys = print_obs (System.obs sys)

(* ------------------------------------------------------------------ *)
(* Snapshot plumbing shared by run, checkpoint and restore. *)

let read_binary path = In_channel.with_open_bin path In_channel.input_all

let write_binary path data =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data)

(* Every command probes its output paths before it simulates
   anything, so an unwritable path costs a second rather than the
   whole run. A file is opened for appending, and removed again if the
   probe created it; a checkpoint prefix's directory gets a throwaway
   file. A failure is a [Sys_error], which the entry point reports in
   one line with exit 1. *)
let probe_out path =
  let existed = Sys.file_exists path in
  Out_channel.with_open_gen [ Open_wronly; Open_creat; Open_append; Open_binary ] 0o644 path ignore;
  if not existed then Sys.remove path

let probe_dir dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    raise (Sys_error (dir ^ ": No such directory"));
  Sys.remove (Filename.temp_file ~temp_dir:dir "hipstr" ".probe")

let probe_outputs ?checkpoint_prefix paths =
  List.iter (Option.iter probe_out) paths;
  Option.iter (fun prefix -> probe_dir (Filename.dirname prefix)) checkpoint_prefix

(* Canonical end-state dump: everything the determinism contract
   covers, in a stable text form — two runs are equivalent iff their
   dumps are byte-identical (cycle floats and histogram moments go in
   as IEEE bits, so "equal" never means "approximately"). The
   migrate-smoke target diffs these across checkpoint/restore. *)
let write_state_dump path sys outcome =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "outcome: %s\n" (outcome_string outcome);
  add "output: %s\n" (String.concat " " (List.map string_of_int (System.output sys)));
  add "instructions: %d\n" (System.instructions sys);
  add "cycle_bits: %Lx\n" (Int64.bits_of_float (System.cycles sys));
  let snap = Obs.Metrics.snapshot (Obs.metrics (System.obs sys)) in
  List.iter (fun (n, v) -> add "counter %s %d\n" n v) snap.Obs.Metrics.snap_counters;
  List.iter
    (fun (n, (h : Obs.Metrics.histogram_summary)) ->
      add "histogram %s n=%d sum=%Lx min=%Lx max=%Lx\n" n h.hs_count
        (Int64.bits_of_float h.hs_sum)
        (Int64.bits_of_float h.hs_min)
        (Int64.bits_of_float h.hs_max))
    snap.Obs.Metrics.snap_histograms;
  write_binary path (Buffer.contents buf);
  Printf.printf "wrote state dump: %s\n" path

let state_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "state-out" ] ~docv:"FILE"
        ~doc:
          "Write a canonical end-state dump (outcome, output, instruction count, cycle bits, \
           metrics) to $(docv). Two runs are equivalent under the determinism contract iff \
           their dumps are byte-identical.")

let checkpoint_every_arg =
  Arg.(
    value
    & opt (some (bounded_int_conv ~what:"checkpoint-every" ~lo:1 ())) None
    & info [ "checkpoint-every" ] ~docv:"N"
        ~doc:
          "Checkpoint every $(docv) instructions into files named from $(b,--checkpoint-out). \
           The run continues after each checkpoint.")

let checkpoint_out_arg =
  Arg.(
    value
    & opt string "checkpoint"
    & info [ "checkpoint-out" ] ~docv:"PREFIX"
        ~doc:"Filename prefix for $(b,--checkpoint-every) images.")

let memo_in_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "memo-in" ] ~docv:"FILE"
        ~doc:
          "Warm-start: load a translation-memo artifact (from $(b,--memo-out)) before the run, \
           so previously translated units re-install at memo cost instead of re-translating. \
           Only consulted under an evicting $(b,--cc-policy) (fifo/clock). The artifact is \
           pinned to the binary, mode and config; a mismatch is a hard error.")

let memo_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "memo-out" ] ~docv:"FILE"
        ~doc:"Write the run's translation-memo warm-start artifact to $(docv) after the run.")

let corrupt_exit what = function
  | Wire.Corrupt m ->
    Printf.eprintf "%s: rejected: %s\n" what m;
    exit 1
  | e -> raise e

(* A checkpoint the snapshot layer refuses (live code the program has
   rewritten, see Snapshot.checkpoint) ends the command: one line,
   exit 1. *)
let checkpoint_or_exit take =
  match take () with
  | image -> image
  | exception Invalid_argument m ->
    prerr_endline ("hipstr: " ^ m);
    exit 1

(* Host-side decode-cache statistics for the starting core, including
   the chaining and inline-cache counters. Silent when the cache is
   disabled (--no-decode-cache). *)
let print_decode_cache_stats sys isa =
  match Hipstr_machine.Machine.decode_cache_stats (System.machine sys) isa with
  | None -> ()
  | Some st ->
    let open Hipstr_machine.Decode_cache in
    Printf.printf "host decode cache: hits=%d misses=%d invalidations=%d flushes=%d\n" st.hits
      st.misses st.invalidations st.flushes;
    Printf.printf "host chaining: follows=%d breaks=%d patches=%d  ic: mono=%d poly=%d misses=%d\n"
      st.chain_follows st.chain_breaks st.chain_patches st.ic_mono_hits st.ic_poly_hits
      st.ic_misses

(* ------------------------------------------------------------------ *)
(* Export flags shared by run, run-file, restore, cmp-run and
   fleet-run: the machine-readable side of the observability layer. *)

let export_args =
  let out name docv doc =
    Arg.(value & opt (some string) None & info [ name ] ~docv ~doc)
  in
  let trace_out =
    out "trace-out" "FILE.json"
      "Write the phase timeline as Chrome trace_event JSON (load in Perfetto or \
       chrome://tracing) to $(docv)."
  in
  let profile_out =
    out "profile-out" "FILE.folded"
      "Write a folded-stack cycle profile (flamegraph.pl / speedscope ready) to $(docv)."
  in
  let metrics_out =
    out "metrics-out" "FILE"
      "Write the full metrics dump to $(docv): Prometheus text if the name ends in .prom, \
       pretty JSON otherwise."
  in
  let audit_out =
    out "audit-out" "FILE.jsonl"
      "Write the security audit log (one JSON object per entry) to $(docv)."
  in
  Term.(
    const (fun a b c d -> (a, b, c, d)) $ trace_out $ profile_out $ metrics_out $ audit_out)

let export_paths (trace_out, profile_out, metrics_out, audit_out) =
  [ trace_out; profile_out; metrics_out; audit_out ]

let write_exports ?timeline ~obs (trace_out, profile_out, metrics_out, audit_out) =
  let write path what render =
    match path with
    | None -> ()
    | Some path ->
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc (render obs));
      Printf.printf "wrote %s: %s\n" what path
  in
  write trace_out "trace" (Obs.Export.trace_json ?timeline);
  write profile_out "profile" Obs.Export.folded;
  write metrics_out "metrics"
    (match metrics_out with
    | Some p when Filename.check_suffix p ".prom" -> Obs.Export.metrics_prom
    | _ -> Obs.Export.metrics_json);
  write audit_out "audit" Obs.Export.audit_jsonl

(* ------------------------------------------------------------------ *)
(* Timeline / SLO / hostprof flags. The timeline rides the guest
   clock and stays inside the byte-identity contract; hostprof output
   is host-side Gc accounting and explicitly does not. *)

let timeline_args =
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "timeline-out" ] ~docv:"FILE.json"
          ~doc:
            "Write the windowed timeline (schema $(b,hipstr-timeline/1): per-window counter \
             deltas and latency-histogram percentiles on the guest clock) to $(docv). \
             Deterministic: bit-identical across $(b,-j) values.")
  in
  let csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "timeline-csv" ] ~docv:"FILE.csv"
          ~doc:"Write the windowed timeline as long-format CSV (window,series,stat,value) to $(docv).")
  in
  let window =
    Arg.(
      value
      & opt (bounded_int_conv ~what:"timeline window (cycles)" ~lo:1 ()) 50_000
      & info [ "timeline-window" ] ~docv:"CYCLES"
          ~doc:"Timeline window width in guest cycles (default 50000).")
  in
  Term.(const (fun a b c -> (a, b, c)) $ out $ csv $ window)

let timeline_paths (out, csv, _window) = [ out; csv ]

let make_timeline ?(force = false) (out, csv, window) =
  if force || out <> None || csv <> None then
    Some (Obs.Timeline.create ~window:(float_of_int window) ())
  else None

let write_timeline ?slo ?hostprof timeline (out, csv, _window) =
  match timeline with
  | None -> ()
  | Some tl ->
    let write path what render =
      match path with
      | None -> ()
      | Some path ->
        Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc (render tl));
        Printf.printf "wrote %s: %s\n" what path
    in
    write out "timeline" (Obs.Export.timeline_json ?slo ?hostprof);
    write csv "timeline csv" Obs.Export.timeline_csv

let print_timeline_summary timeline =
  match timeline with
  | None -> ()
  | Some tl ->
    Printf.printf "timeline: %d windows of %.0f cycles%s\n" (Obs.Timeline.window_count tl)
      (Obs.Timeline.window_cycles tl)
      (match Obs.Timeline.span tl with
      | None -> ""
      | Some (lo, hi) -> Printf.sprintf " (indices %d..%d)" lo hi)

let hostprof_arg =
  Arg.(
    value & flag
    & info [ "hostprof" ]
        ~doc:
          "Profile host-side allocation: Gc minor-word deltas at span boundaries (per-phase \
           table) and quick_stat deltas over the whole run, from which \
           minor-words-per-retired-instruction is derived. Host-dependent and \
           $(b,non-deterministic) — excluded from the -j byte-identity contract; do not \
           combine with exports you intend to diff. $(b,fleet-run) takes it at $(b,-j 1) \
           only: the run totals count the calling domain's allocation.")

let start_hostprof ~obs enabled =
  if not enabled then None
  else begin
    let hp = Obs.Hostprof.create () in
    Obs.set_hostprof obs hp;
    Obs.Hostprof.start_run hp;
    Some hp
  end

let print_hostprof = function
  | None -> ()
  | Some hp ->
    Printf.printf "host allocation profile (non-deterministic):\n";
    (match Obs.Hostprof.run hp with
    | None -> ()
    | Some rd ->
      Printf.printf
        "  minor=%.0f words promoted=%.0f major=%.0f collections: minor=%d major=%d instrs=%d\n"
        rd.Obs.Hostprof.hd_minor_words rd.hd_promoted_words rd.hd_major_words
        rd.hd_minor_collections rd.hd_major_collections rd.hd_instructions;
      match Obs.Hostprof.minor_words_per_instr hp with
      | Some w -> Printf.printf "  minor words per retired instruction: %.3f\n" w
      | None -> ());
    List.iter
      (fun (name, spans, words) ->
        Printf.printf "  phase %-28s spans=%-7d minor-words=%.0f\n" name spans words)
      (Obs.Hostprof.phases hp)

let assert_alloc_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "assert-alloc" ] ~docv:"WORDS"
        ~doc:
          "With $(b,--hostprof): exit non-zero unless host minor words allocated per retired \
           instruction stayed at or below $(docv). The alloc-smoke CI gate drives this to pin \
           the allocation-free hot path of $(b,run) and the per-connection cost of \
           $(b,fleet-run).")

(* The CI allocation gate: --hostprof measures, this enforces. *)
let check_alloc hp limit =
  match limit with
  | None -> ()
  | Some limit -> (
    match hp with
    | None ->
      prerr_endline "--assert-alloc requires --hostprof";
      exit 2
    | Some hp -> (
      match Obs.Hostprof.minor_words_per_instr hp with
      | None ->
        prerr_endline "--assert-alloc: no retired instructions measured";
        exit 2
      | Some w ->
        if w > limit then begin
          Printf.eprintf "alloc gate: %.3f minor words/instr exceeds the %.3f budget\n" w limit;
          exit 1
        end
        else Printf.printf "alloc gate: %.3f minor words/instr <= %.3f budget\n" w limit))

let run_cmd =
  let action (w : Workloads.t) mode isa seed opt_level migrate_prob cc_capacity cc_policy
      no_dcache metrics hostprof assert_alloc checkpoint_every
      checkpoint_out memo_in memo_out state_out exports =
    probe_outputs
      ?checkpoint_prefix:(Option.map (fun _ -> checkpoint_out) checkpoint_every)
      ([ memo_out; state_out ] @ export_paths exports);
    let cfg = make_config ~opt_level ?migrate_prob cc_capacity cc_policy in
    let obs = Obs.create () in
    let hp = start_hostprof ~obs hostprof in
    let sys =
      System.of_fatbin ~obs ~cfg ~seed ~start_isa:isa ~decode_cache:(not no_dcache) ~mode
        (Workloads.fatbin w)
    in
    (match memo_in with
    | None -> ()
    | Some path -> (
      match Snapshot.load_memo sys (read_binary path) with
      | () -> Printf.printf "loaded memo: %s\n" path
      | exception e -> corrupt_exit ("memo " ^ path) e));
    let fuel = 3 * w.w_fuel in
    (* rebaseline so words/instr measures the run itself, not the
       compile/link/boot allocations that precede it *)
    Option.iter Obs.Hostprof.start_run hp;
    let outcome =
      match checkpoint_every with
      | None -> System.run sys ~fuel
      | Some n ->
        (* run in checkpoint-sized instruction steps; each image lands
           in its own PREFIX.<instrs>.snap so a crashed run can resume
           from the latest one. [System.run]'s fuel is a per-call
           budget: image k lands at k*n, and the steps hand out [fuel]
           in total. *)
        let rec go given =
          let step = min n (fuel - given) in
          match System.run sys ~fuel:step with
          | System.Out_of_fuel when given + step < fuel ->
            let image =
              checkpoint_or_exit (fun () -> Snapshot.checkpoint ~workload:w.w_name sys)
            in
            let path = Printf.sprintf "%s.%d.snap" checkpoint_out (System.instructions sys) in
            write_binary path image;
            Printf.printf "checkpoint: %s (%d bytes at %d instructions)\n" path
              (String.length image) (System.instructions sys);
            go (given + step)
          | o -> o
        in
        go 0
    in
    Option.iter (fun hp -> Obs.Hostprof.stop_run hp ~instructions:(System.instructions sys)) hp;
    print_summary (Printf.sprintf "%s [%s]" w.w_name w.w_description) sys outcome;
    print_decode_cache_stats sys isa;
    if mode <> System.Native then begin
      let vm = System.vm sys isa in
      let st = Hipstr_psr.Vm.stats vm in
      Printf.printf
        "translations: %d  source instrs: %d -> emitted: %d  traps: %d  suspicious: %d\n"
        st.translations st.source_instrs st.emitted_instrs st.traps st.suspicious;
      Printf.printf "cache: flushes=%d evictions=%d memo-installs=%d retranslate-cycles=%.0f\n"
        (System.cache_flushes sys) (System.cache_evictions sys) (System.memo_installs sys)
        (System.retranslate_cycles sys);
      if mode = System.Hipstr then
        Printf.printf "migrations: %d security + %d forced\n" (System.security_migrations sys)
          (System.forced_migrations sys)
    end;
    if metrics then print_metrics sys;
    print_hostprof hp;
    check_alloc hp assert_alloc;
    (match memo_out with
    | None -> ()
    | Some path ->
      let memo = Snapshot.save_memo sys in
      write_binary path memo;
      Printf.printf "wrote memo: %s (%d bytes)\n" path (String.length memo));
    Option.iter (fun path -> write_state_dump path sys outcome) state_out;
    write_exports ~obs exports
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a workload on the simulated heterogeneous-ISA CMP.")
    Term.(
      const action $ workload_arg $ mode_arg ~doc:"native, psr or hipstr." () $ isa_arg
      $ seed_arg $ opt_arg $ migrate_prob_arg $ cc_capacity_arg $ cc_policy_arg $ no_dcache_arg
      $ metrics_arg $ hostprof_arg $ assert_alloc_arg $ checkpoint_every_arg
      $ checkpoint_out_arg
      $ memo_in_arg $ memo_out_arg $ state_out_arg $ export_args)

(* ------------------------------------------------------------------ *)
(* checkpoint / restore: one-shot image plumbing around lib/snapshot.
   `checkpoint` runs a workload to an instruction point and writes the
   image; `restore` rebuilds the system from an image (resolving the
   fat binary from the manifest's workload name) and runs it to
   completion. Restore-then-run is bit-identical to the checkpointing
   run continuing — the migrate-smoke target diffs --state-out dumps
   from both sides. *)

let checkpoint_cmd =
  let at_arg =
    Arg.(
      required
      & opt (some fuel_conv) None
      & info [ "at" ] ~docv:"INSTRUCTIONS" ~doc:"Instruction count to checkpoint at (> 0).")
  in
  let out_arg =
    Arg.(
      value
      & opt string "checkpoint.snap"
      & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Where to write the image.")
  in
  let action (w : Workloads.t) mode isa seed opt_level migrate_prob cc_capacity cc_policy at out =
    probe_outputs [ Some out ];
    let cfg = make_config ~opt_level ?migrate_prob cc_capacity cc_policy in
    let obs = Obs.create () in
    let sys = System.of_fatbin ~obs ~cfg ~seed ~start_isa:isa ~mode (Workloads.fatbin w) in
    match System.run sys ~fuel:at with
    | System.Out_of_fuel ->
      let image = checkpoint_or_exit (fun () -> Snapshot.checkpoint ~workload:w.w_name sys) in
      write_binary out image;
      Printf.printf "checkpoint: %s (%d bytes)\n" out (String.length image);
      Printf.printf "  workload=%s mode=%s seed=%d at %d instructions, %.0f cycles\n" w.w_name
        (System.mode_name mode) seed (System.instructions sys) (System.cycles sys)
    | o ->
      Printf.eprintf "%s finished before --at %d (%s); nothing to checkpoint\n" w.w_name at
        (outcome_string o);
      exit 1
  in
  Cmd.v
    (Cmd.info "checkpoint"
       ~doc:
         "Run a workload to an instruction point and write a versioned snapshot image. The \
          image carries the memory delta, machine and PSR VM state; translated code \
          re-materializes on restore.")
    Term.(
      const action $ workload_arg $ mode_arg ~doc:"native, psr or hipstr." () $ isa_arg
      $ seed_arg $ opt_arg $ migrate_prob_arg $ cc_capacity_arg $ cc_policy_arg $ at_arg $ out_arg)

let restore_cmd =
  let file_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"IMAGE" ~doc:"Snapshot image file.")
  in
  let fuel_arg =
    Arg.(
      value
      & opt (some fuel_conv) None
      & info [ "fuel" ]
          ~doc:"Instruction budget for the resumed run (default: 3x the workload's nominal fuel).")
  in
  let info_arg =
    Arg.(
      value & flag
      & info [ "info" ] ~doc:"Print the image manifest and exit without running anything.")
  in
  let action file fuel only_info no_dcache metrics state_out exports =
    probe_outputs (state_out :: export_paths exports);
    let image = read_binary file in
    let mf =
      try Snapshot.manifest_of image with e -> corrupt_exit ("image " ^ file) e
    in
    Printf.printf "%s: workload=%s mode=%s seed=%d pid=%d at %d instructions, %.0f cycles\n" file
      mf.Snapshot.mf_workload (System.mode_name mf.Snapshot.mf_mode) mf.Snapshot.mf_seed
      mf.Snapshot.mf_pid mf.Snapshot.mf_instructions mf.Snapshot.mf_cycles;
    if not only_info then begin
      let w =
        match Workloads.find mf.Snapshot.mf_workload with
        | w -> w
        | exception Not_found ->
          Printf.eprintf
            "image names workload '%s', which this build does not know — cannot resolve the fat \
             binary\n"
            mf.Snapshot.mf_workload;
          exit 1
      in
      let obs = Obs.create () in
      let sys, _ =
        try
          Snapshot.restore ~obs ~decode_cache:(not no_dcache) ~fatbin:(Workloads.fatbin w) image
        with e -> corrupt_exit ("image " ^ file) e
      in
      let fuel = match fuel with Some f -> f | None -> 3 * w.w_fuel in
      let outcome = System.run sys ~fuel in
      print_summary (w.w_name ^ " [resumed]") sys outcome;
      if metrics then print_metrics sys;
      Option.iter (fun path -> write_state_dump path sys outcome) state_out;
      write_exports ~obs exports
    end
  in
  Cmd.v
    (Cmd.info "restore"
       ~doc:
         "Restore a snapshot image and run it to completion. Bit-identical to the checkpointing \
          run continuing uninterrupted (compare --state-out dumps). The image does not record \
          the execution engine; --no-decode-cache picks it here as it does for $(b,run). \
          Truncated, version-skewed or wrong-binary images are rejected loudly.")
    Term.(
      const action $ file_arg $ fuel_arg $ info_arg $ no_dcache_arg $ metrics_arg $ state_out_arg
      $ export_args)

let gadgets_cmd =
  let action (w : Workloads.t) isa =
      let fb = Workloads.fatbin w in
      let gadgets = Galileo.mine_program (Fatbin.baseline fb) fb isa in
      let rets = List.filter (fun g -> g.Galileo.g_kind = Galileo.Ret_gadget) gadgets in
      let desc = Isa.desc isa in
      let viable = List.filter (fun g -> Galileo.is_viable (Galileo.classify ~sp:desc.sp g)) rets in
      Printf.printf "%s (%s): %d return gadgets, %d JOP gadgets, %d viable, %d unintentional\n"
        w.w_name (Isa.name isa)
        (List.length rets)
        (Galileo.count gadgets Galileo.Jop_gadget)
        (List.length viable)
        (List.length (List.filter (fun g -> not g.Galileo.g_aligned) rets));
      List.iteri
        (fun i g ->
          if i < 10 then
            Printf.printf "  0x%x: %s\n" g.Galileo.g_addr
              (String.concat " ; "
                 (List.map
                    (Minstr.to_string ~reg_name:(Desc.reg_name desc))
                    g.Galileo.g_instrs)))
        viable
  in
  Cmd.v
    (Cmd.info "gadgets" ~doc:"Mine a workload image with the Galileo algorithm.")
    Term.(const action $ workload_arg $ isa_arg)

let attack_cmd =
  let action mode seed =
    let fb = Workloads.fatbin Workloads.httpd in
    match Rop.build_chain (Fatbin.baseline fb) fb Desc.Cisc ~victim_func:"handle_request" with
    | None ->
      Printf.eprintf "could not construct an execve chain\n";
      exit 1
    | Some chain ->
      Printf.printf "execve chain: %d payload words, return slot at word %d\n"
        (List.length chain.Rop.c_payload) chain.Rop.c_ret_index;
      List.iter
        (fun s ->
          Printf.printf "  gadget 0x%x pops r%d := %d\n" s.Rop.s_gadget s.Rop.s_reg s.Rop.s_value)
        chain.Rop.c_steps;
      Printf.printf "  final return into syscall at 0x%x\n" chain.Rop.c_syscall_addr;
      let cfg = { Config.default with migrate_prob = 1.0 } in
      let sys = System.of_fatbin ~cfg ~seed ~start_isa:Desc.Cisc ~mode fb in
      (match Rop.deliver sys chain ~fuel:4_000_000 with
      | Rop.Shell -> Printf.printf "result: SHELL SPAWNED — the exploit won\n"
      | Rop.Crashed m -> Printf.printf "result: process killed (%s)\n" m
      | Rop.Survived -> Printf.printf "result: overflow silently absorbed; program completed\n")
  in
  Cmd.v
    (Cmd.info "attack" ~doc:"Deliver the ROP exploit against httpd.")
    Term.(const action $ mode_arg ~default:System.Native ~doc:"Defense to attack." () $ seed_arg)

let experiment_cmd =
  let ids_arg =
    Arg.(
      required
      & pos 0 (some experiments_conv) None
      & info [] ~docv:"IDS" ~doc:"Experiment id, comma list of ids, or 'all'.")
  in
  let action es jobs = List.iter print_string (Registry.run_many ~jobs es) in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:
         "Regenerate tables/figures from the paper. With -j N, independent experiments run on N \
          domains; output is printed in registry order and is bit-identical to -j 1.")
    Term.(const action $ ids_arg $ jobs_arg)

let disasm_cmd =
  let func_arg = Arg.(required & pos 1 (some string) None & info [] ~docv:"FUNC" ~doc:"Function name.") in
  let action (w : Workloads.t) func isa =
    (
      let fb = Workloads.fatbin w in
      match Fatbin.find_func fb func with
      | exception Not_found ->
        Printf.eprintf "no function %s\n" func;
        exit 1
      | fs ->
        let im = Fatbin.image fs isa in
        let mem = Fatbin.baseline fb in
        let desc = Isa.desc isa in
        let read = Hipstr_machine.Mem.reader mem in
        let pos = ref im.im_entry in
        let stop = im.im_entry + im.im_size in
        let continue_ = ref true in
        while !continue_ && !pos < stop do
          match Isa.decode isa ~read !pos with
          | None -> continue_ := false
          | Some (i, len) ->
            Printf.printf "0x%x: %s\n" !pos (Minstr.to_string ~reg_name:(Desc.reg_name desc) i);
            pos := !pos + len
        done)
  in
  Cmd.v
    (Cmd.info "disasm" ~doc:"Disassemble a function from a workload's fat binary.")
    Term.(const action $ workload_arg $ func_arg $ isa_arg)

let run_file_cmd =
  let file_arg = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"MiniC source file.") in
  let fuel_arg = Arg.(value & opt fuel_conv 10_000_000 & info [ "fuel" ] ~doc:"Instruction budget.") in
  let action file mode isa seed fuel cc_capacity cc_policy no_dcache metrics exports =
    probe_outputs (export_paths exports);
    let src = In_channel.with_open_text file In_channel.input_all in
    let obs = Obs.create () in
    let cfg = make_config cc_capacity cc_policy in
    match
      System.create ~obs ~cfg ~seed ~start_isa:isa ~decode_cache:(not no_dcache) ~mode ~src ()
    with
    | exception Hipstr_compiler.Compile.Error m ->
      Printf.eprintf "%s: %s\n" file m;
      exit 1
    | sys ->
      let outcome = System.run sys ~fuel in
      print_summary file sys outcome;
      print_decode_cache_stats sys isa;
      if metrics then print_metrics sys;
      write_exports ~obs exports
  in
  Cmd.v
    (Cmd.info "run-file" ~doc:"Compile and run a MiniC source file.")
    Term.(
      const action $ file_arg $ mode_arg ~doc:"native, psr or hipstr." () $ isa_arg $ seed_arg
      $ fuel_arg $ cc_capacity_arg $ cc_policy_arg $ no_dcache_arg $ metrics_arg $ export_args)

(* ------------------------------------------------------------------ *)
(* cmp-run: boot K workloads as processes and time-slice them across
   a mixed-ISA CMP. Start ISAs follow the core list, so pinned
   (native/psr) processes always have a home core; hipstr processes
   may be placed cross-ISA by the policy and migrate at equivalence
   points. --verify re-runs every process standalone with the same
   seed and demands identical outcome, output and shell state — the
   scheduler must be semantically invisible. *)
let cmp_run_cmd =
  let workloads_arg =
    Arg.(
      non_empty & pos_all workload_conv []
      & info [] ~docv:"WORKLOAD"
          ~doc:"Workloads to boot as processes (repeat a name to run several copies).")
  in
  let policy_arg =
    Arg.(
      value
      & opt policy_conv Cmp.Security_first
      & info [ "policy" ] ~doc:"Scheduling policy: round-robin, load-balance or security-first.")
  in
  let cores_arg =
    Arg.(
      value
      & opt cores_conv Cmp.default_cores
      & info [ "cores" ]
          ~doc:"Core count (tiling cisc/risc pairs) or an explicit list like 'cisc,risc,risc'.")
  in
  let quantum_arg =
    Arg.(value & opt quantum_conv 20_000 & info [ "quantum" ] ~doc:"Slice length in instructions.")
  in
  let fuel_arg =
    Arg.(
      value
      & opt (some fuel_conv) None
      & info [ "fuel" ]
          ~doc:"Per-process instruction budget (default: 3x the workload's nominal fuel).")
  in
  let verify_arg =
    Arg.(
      value & flag
      & info [ "verify" ]
          ~doc:
            "Re-run every process standalone with the same seed and check that outcome, output \
             and shell state are identical — scheduling must not change program semantics.")
  in
  let sched_arg =
    Arg.(value & flag & info [ "trace-schedule" ] ~doc:"Print every scheduling slice.")
  in
  let action ws mode policy cores quantum fuel seed migrate_prob cc_capacity cc_policy no_dcache
      metrics sched verify tl_args exports =
    probe_outputs (timeline_paths tl_args @ export_paths exports);
    let cfg = make_config ?migrate_prob cc_capacity cc_policy in
    let core_arr = Array.of_list cores in
    let start_isa i = core_arr.(i mod Array.length core_arr) in
    let budget (w : Workloads.t) = match fuel with Some f -> f | None -> 3 * w.w_fuel in
    let obs = Obs.create () in
    let procs =
      List.mapi
        (fun i (w : Workloads.t) ->
          Process.create ~obs ~cfg ~seed:(seed + i) ~start_isa:(start_isa i)
            ~decode_cache:(not no_dcache) ~mode
            ~pid:i ~name:w.w_name
            ~fuel:(budget w) (Workloads.fatbin w))
        ws
    in
    let cmp = Cmp.create ~obs ~policy ~quantum ~cores procs in
    let timeline = make_timeline tl_args in
    Cmp.run ?timeline cmp;
    let m = Cmp.metrics cmp in
    Printf.printf "cmp-run: %d processes on %d cores [%s], policy %s, quantum %d\n"
      (List.length ws) (Array.length core_arr)
      (String.concat "," (List.map Isa.name cores))
      (Cmp.policy_name policy) quantum;
    List.iter
      (fun (pm : Cmp.proc_metrics) ->
        let p = Cmp.proc cmp pm.pm_pid in
        Printf.printf
          "  pid %d %-10s %-28s instrs=%-9d slices=%-4d migrations: sched=%d sec=%d forced=%d \
           cache: flush=%d evict=%d memo=%d host: chain=%d ic=%d\n"
          pm.pm_pid pm.pm_name
          (match pm.pm_outcome with Some o -> outcome_string o | None -> "runnable?")
          pm.pm_instructions pm.pm_slices pm.pm_sched_migrations pm.pm_security_migrations
          pm.pm_forced_migrations pm.pm_cache_flushes pm.pm_cache_evictions pm.pm_memo_installs
          pm.pm_chain_follows pm.pm_ic_hits;
        Printf.printf "    output: %s\n"
          (String.concat " " (List.map string_of_int (System.output (Process.sys p)))))
      m.m_procs;
    List.iter
      (fun (cm : Cmp.core_metrics) ->
        Printf.printf "  core %d (%s): instrs=%-9d cycles=%-11.0f slices=%-4d cold-switches=%d\n"
          cm.cm_id (Isa.name cm.cm_isa) cm.cm_instructions cm.cm_cycles cm.cm_slices
          cm.cm_switches)
      m.m_cores;
    Printf.printf
      "rounds=%d slices=%d context-switches=%d migrations: security-policy=%d load-policy=%d\n"
      m.m_rounds m.m_slices m.m_context_switches m.m_migrations_security_policy
      m.m_migrations_load_policy;
    if sched then print_string (Cmp.schedule_to_string cmp);
    if metrics then print_obs obs;
    if verify then begin
      let failures = ref 0 in
      List.iteri
        (fun i (w : Workloads.t) ->
          let p = Cmp.proc cmp i in
          (* deliberately created on the *default* engine: under
             --no-decode-cache this doubles as an end-to-end
             differential check of the fast path against the oracle *)
          let alone =
            System.of_fatbin ~obs:Obs.disabled ~cfg ~seed:(seed + i) ~start_isa:(start_isa i)
              ~mode (Workloads.fatbin w)
          in
          let alone_outcome = System.run alone ~fuel:(budget w) in
          let sys = Process.sys p in
          let ok =
            Process.outcome p = Some alone_outcome
            && System.output sys = System.output alone
            && System.shell sys = System.shell alone
          in
          if ok then Printf.printf "  verify pid %d (%s): OK\n" i w.w_name
          else begin
            incr failures;
            Printf.printf "  verify pid %d (%s): MISMATCH\n    cmp:   %s / %s\n    alone: %s / %s\n"
              i w.w_name
              (match Process.outcome p with Some o -> outcome_string o | None -> "runnable")
              (String.concat " " (List.map string_of_int (System.output sys)))
              (outcome_string alone_outcome)
              (String.concat " " (List.map string_of_int (System.output alone)))
          end)
        ws;
      if !failures > 0 then begin
        Printf.eprintf "verify: %d of %d processes diverged from their standalone runs\n" !failures
          (List.length ws);
        exit 1
      end
      else
        Printf.printf "verify: all %d processes match their standalone runs exactly\n"
          (List.length ws)
    end;
    print_timeline_summary timeline;
    write_exports ?timeline ~obs exports;
    write_timeline timeline tl_args
  in
  Cmd.v
    (Cmd.info "cmp-run"
       ~doc:"Time-slice several workloads across a simulated mixed-ISA chip multiprocessor.")
    Term.(
      const action $ workloads_arg
      $ mode_arg
          ~doc:"Process mode: native, psr or hipstr (only hipstr processes migrate across ISAs)."
          ()
      $ policy_arg $ cores_arg $ quantum_arg $ fuel_arg
      $ seed_arg $ migrate_prob_arg $ cc_capacity_arg $ cc_policy_arg $ no_dcache_arg
      $ metrics_arg $ sched_arg $ verify_arg $ timeline_args $ export_args)

(* ------------------------------------------------------------------ *)
(* fleet-run: serve an open-loop trace of staged httpd connections
   across a sharded pool of CMPs and report tail latency. The whole
   run is named by (--seed, --procs, --arrival, --mix): -j N output
   is bit-identical to -j 1. *)
let fleet_run_cmd =
  let arrival_conv =
    Arg.conv
      ( (fun s -> Result.map_error (fun m -> `Msg m) (Traffic.arrival_of_string s)),
        fun ppf a -> Format.pp_print_string ppf (Traffic.arrival_name a) )
  in
  let mix_conv =
    Arg.conv
      ( (fun s -> Result.map_error (fun m -> `Msg m) (Traffic.mix_of_string s)),
        fun ppf m -> Format.pp_print_string ppf (Traffic.mix_name m) )
  in
  let procs_arg =
    Arg.(
      value
      & opt (bounded_int_conv ~what:"procs" ~lo:1 ~hi:100_000 ()) 200
      & info [ "procs" ] ~doc:"Connections to generate (each one is a staged httpd process).")
  in
  let arrival_arg =
    Arg.(
      value
      & opt arrival_conv (Traffic.Poisson 50.)
      & info [ "arrival" ] ~docv:"MODEL"
          ~doc:
            "Arrival process: $(b,poisson:RATE) or $(b,bursty:RATE:BURST), RATE in requests per \
             million guest cycles.")
  in
  let mix_arg =
    Arg.(
      value
      & opt mix_conv Traffic.default_mix
      & info [ "mix" ] ~docv:"MIX"
          ~doc:
            "Request mix weights as $(b,V,O,M,A) or \
             $(b,valid=V,oversized=O,malformed=M,attack=A).")
  in
  let policy_arg =
    Arg.(
      value
      & opt policy_conv Cmp.Round_robin
      & info [ "policy" ] ~doc:"Per-shard scheduling policy: round-robin, load-balance or security-first.")
  in
  let shards_arg =
    Arg.(
      value
      & opt (bounded_int_conv ~what:"shards" ~lo:1 ~hi:1024 ()) Fleet.default.Fleet.fl_shards
      & info [ "shards" ] ~doc:"CMPs in the fleet (connection $(i,i) lands on shard $(i,i) mod shards).")
  in
  let cores_arg =
    Arg.(
      value
      & opt cores_conv Cmp.default_cores
      & info [ "cores" ]
          ~doc:"Cores per shard: a count (tiling cisc/risc pairs) or a list like 'cisc,risc,risc'.")
  in
  let quantum_arg =
    Arg.(
      value
      & opt quantum_conv Fleet.default.Fleet.fl_quantum
      & info [ "quantum" ] ~doc:"Slice length in instructions.")
  in
  let fuel_arg =
    Arg.(
      value
      & opt fuel_conv Hipstr_fleet.Traffic.default_fuel
      & info [ "fuel" ] ~doc:"Per-connection instruction budget.")
  in
  let max_live_arg =
    Arg.(
      value
      & opt (bounded_int_conv ~what:"max-live" ~lo:1 ()) Fleet.default.Fleet.fl_max_live
      & info [ "max-live" ] ~doc:"Admission cap: live connections per shard (excess arrivals queue).")
  in
  let tenants_arg =
    Arg.(
      value
      & opt (bounded_int_conv ~what:"tenants" ~lo:1 ()) 4
      & info [ "tenants" ] ~doc:"Tenants the connections tile across (per-tenant metric namespaces).")
  in
  let migrate_every_arg =
    Arg.(
      value
      & opt (bounded_int_conv ~what:"migrate-every" ~lo:0 ()) 0
      & info [ "migrate-every" ] ~docv:"WAVES"
          ~doc:
            "Live migration: every $(docv) waves, checkpoint one runnable process off the \
             most-loaded shard and restore it on the least-loaded one (0 disables). \
             Deterministic: the rebalance schedule is decided after the wave barrier.")
  in
  let slo_target_arg =
    Arg.(
      value
      & opt (some (bounded_int_conv ~what:"slo target (cycles)" ~lo:1 ())) None
      & info [ "slo-target" ] ~docv:"CYCLES"
          ~doc:
            "Latency objective: target sojourn latency in guest cycles. Enables the timeline's \
             SLO section: per-window burn rate, cumulative error-budget remaining and \
             time-to-exhaustion over $(b,fleet.latency_cycles).")
  in
  let slo_budget_arg =
    let budget_conv =
      Arg.conv
        ( (fun s ->
            match float_of_string_opt s with
            | Some p when p > 0.0 && p < 1.0 -> Ok p
            | _ ->
              Error
                (`Msg (Printf.sprintf "slo budget must be a fraction in (0, 1) (got '%s')" s))),
          fun ppf p -> Format.fprintf ppf "%g" p )
    in
    Arg.(
      value
      & opt budget_conv 0.1
      & info [ "slo-budget" ] ~docv:"FRACTION"
          ~doc:"Error budget: fraction of requests allowed over the SLO target (default 0.1).")
  in
  let action procs arrival mix policy shards cores quantum mode fuel max_live tenants
      migrate_every seed migrate_prob jobs metrics hostprof assert_alloc tl_args slo_target
      slo_budget exports =
    (* the run's allocation totals read the calling domain's Gc
       counters, so other domains' shards would go uncounted *)
    if hostprof && jobs > 1 then begin
      prerr_endline "--hostprof requires -j 1";
      exit 2
    end;
    probe_outputs (timeline_paths tl_args @ export_paths exports);
    let cfg =
      match (mode, migrate_prob) with
      | System.Hipstr, Some p -> Some { Config.default with migrate_prob = p }
      | _ -> None
    in
    let fleet_cfg =
      {
        Fleet.fl_shards = shards;
        fl_cores = cores;
        fl_policy = policy;
        fl_quantum = quantum;
        fl_mode = mode;
        fl_cfg = cfg;
        fl_seed = seed;
        fl_fuel = fuel;
        fl_max_live = max_live;
        fl_migrate_every = migrate_every;
      }
    in
    let conns = Traffic.generate ~tenants ~seed ~procs ~arrival ~mix () in
    let obs = Obs.create () in
    let timeline = make_timeline ~force:(slo_target <> None) tl_args in
    let hp = start_hostprof ~obs hostprof in
    let r = Fleet.run ~jobs ~obs ?timeline fleet_cfg conns in
    Option.iter
      (fun hp ->
        Obs.Hostprof.stop_run hp
          ~instructions:
            (List.fold_left (fun acc rr -> acc + rr.Fleet.rr_instructions) 0 r.Fleet.r_records))
      hp;
    Printf.printf "fleet-run: %d conns on %d shards x %d cores, policy %s, mode %s\n" procs shards
      (List.length cores) (Cmp.policy_name policy) (System.mode_name mode);
    Printf.printf "traffic: %s, mix %s, seed %d\n" (Traffic.arrival_name arrival)
      (Traffic.mix_name mix) seed;
    Printf.printf
      "served %d: completed=%d killed=%d shell=%d out-of-fuel=%d in %d waves, makespan %.0f cycles\n"
      (List.length r.Fleet.r_records) r.Fleet.r_completed r.Fleet.r_killed r.Fleet.r_shell
      r.Fleet.r_out_of_fuel r.Fleet.r_waves r.Fleet.r_makespan;
    if migrate_every > 0 then Printf.printf "live migrations: %d\n" r.Fleet.r_live_migrations;
    Printf.printf "throughput: %.3f completed/Mcycle\n" (Fleet.throughput r);
    (if r.Fleet.r_records = [] then
       (* zero admitted requests: percentiles are undefined
          (Fleet.latency_percentile raises), say so instead *)
       Printf.printf "latency cycles: n/a (no requests served)\n"
     else
       Printf.printf "latency cycles: p50=%.0f p95=%.0f p99=%.0f max=%.0f\n"
         (Fleet.latency_percentile r 50.) (Fleet.latency_percentile r 95.)
         (Fleet.latency_percentile r 99.) (Fleet.latency_percentile r 100.));
    List.iter
      (fun (k, total, completed, killed) ->
        if total > 0 then
          Printf.printf "  %-10s total=%-5d completed=%-5d killed=%d\n" (Traffic.kind_name k) total
            completed killed)
      (Fleet.by_kind r);
    let slo =
      match (slo_target, timeline) with
      | Some target, Some tl ->
        let obj = Obs.Slo.objective ~target:(float_of_int target) ~budget:slo_budget in
        Some (obj, Obs.Slo.evaluate obj ~latency:"fleet.latency_cycles" tl)
      | _ -> None
    in
    print_timeline_summary timeline;
    (match slo with
    | None -> ()
    | Some (obj, reports) -> (
      match List.rev reports with
      | [] -> Printf.printf "slo: no windows recorded\n"
      | (last : Obs.Slo.window_report) :: _ ->
        let exhausted_at =
          List.find_opt (fun (sw : Obs.Slo.window_report) -> sw.Obs.Slo.sw_exhausted) reports
        in
        Printf.printf
          "slo: target=%.0f cycles budget=%g: %.1f violations / %d requests, budget remaining \
           %.1f%s\n"
          obj.Obs.Slo.slo_target obj.Obs.Slo.slo_budget last.Obs.Slo.sw_cum_violations
          last.Obs.Slo.sw_cum_requests last.Obs.Slo.sw_budget_remaining
          (match exhausted_at with
          | Some sw -> Printf.sprintf " (EXHAUSTED from window %d)" sw.Obs.Slo.sw_index
          | None -> "")));
    if metrics then print_obs obs;
    print_hostprof hp;
    write_exports ?timeline ~obs exports;
    write_timeline ?slo ?hostprof:hp timeline tl_args;
    check_alloc hp assert_alloc
  in
  Cmd.v
    (Cmd.info "fleet-run"
       ~doc:
         "Serve an open-loop httpd traffic trace across a sharded fleet of heterogeneous-ISA \
          CMPs and report throughput and tail latency. Deterministic: -j N is bit-identical to \
          -j 1.")
    Term.(
      const action $ procs_arg $ arrival_arg $ mix_arg $ policy_arg $ shards_arg $ cores_arg
      $ quantum_arg
      $ mode_arg ~doc:"Server mode: native, psr or hipstr." ()
      $ fuel_arg $ max_live_arg $ tenants_arg $ migrate_every_arg
      $ seed_arg $ migrate_prob_arg $ jobs_arg $ metrics_arg $ hostprof_arg
      $ assert_alloc_arg $ timeline_args $ slo_target_arg $ slo_budget_arg $ export_args)

let list_cmd =
  let action () =
    Printf.printf "workloads:\n";
    List.iter
      (fun n ->
        let w = Workloads.find n in
        Printf.printf "  %-12s %s (%s)\n" w.w_name w.w_description w.w_paper_name)
      Workloads.names;
    Printf.printf "\nexperiments:\n";
    List.iter (fun e -> Printf.printf "  %-8s %s\n" e.Registry.ex_id e.Registry.ex_title) Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List workloads and experiments.") Term.(const action $ const ())

let () =
  let info =
    Cmd.info "hipstr"
      ~doc:"HIPStR: heterogeneous-ISA program state relocation (ASPLOS 2016 reproduction)"
  in
  let cmd =
    Cmd.group info
      [
        run_cmd;
        run_file_cmd;
        checkpoint_cmd;
        restore_cmd;
        cmp_run_cmd;
        fleet_run_cmd;
        gadgets_cmd;
        attack_cmd;
        experiment_cmd;
        disasm_cmd;
        list_cmd;
      ]
  in
  (* A file named on the command line that cannot be opened (a missing
     --memo-in, an --*-out into a missing directory) is the user's
     error: one line and exit 1, like a rejected image. *)
  exit
    (try Cmd.eval ~catch:false cmd with
    | Sys_error m ->
      prerr_endline ("hipstr: " ^ m);
      1)
