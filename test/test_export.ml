(* The exporter pipeline: the properties ISSUE 3's acceptance
   criteria name directly.

   - Reconciliation: span-attributed cycles agree exactly with the
     machine/core cycle counters — the profiler never invents or
     loses simulated time.
   - Formats: the Chrome trace parses as JSON and carries the
     per-core tracks, quantum spans and migration instants Perfetto
     needs; folded lines are flamegraph-shaped; the audit JSONL is
     one valid object per line with counts matching the log. *)

module Obs = Hipstr_obs.Obs
module Json = Hipstr_util.Json
module Desc = Hipstr_isa.Desc
module System = Hipstr.System
module Config = Hipstr_psr.Config
module Workloads = Hipstr_workloads.Workloads
module Process = Hipstr_cmp.Process
module Cmp = Hipstr_cmp.Cmp

(* One CMP workload mix, heavy enough to exercise migrations on both
   policies, small enough for a quick test. *)
let run_cmp () =
  let cfg = { Config.default with migrate_prob = 0.3 } in
  let obs = Obs.create () in
  let names = [ "mcf"; "libquantum"; "hmmer" ] in
  let procs =
    List.mapi
      (fun i name ->
        let w = Workloads.find name in
        Process.create ~obs ~cfg ~seed:(1 + i)
          ~start_isa:(if i mod 2 = 0 then Desc.Cisc else Desc.Risc)
          ~mode:System.Hipstr ~pid:i ~name:w.Workloads.w_name ~fuel:(3 * w.Workloads.w_fuel)
          (Workloads.fatbin w))
      names
  in
  let cmp = Cmp.create ~obs ~policy:Cmp.Load_balance ~quantum:20_000 procs in
  Cmp.run cmp;
  (obs, cmp)

let mix_run = lazy (run_cmp ())

let test_spans_reconcile_with_cycle_counters () =
  let obs, cmp = Lazy.force mix_run in
  let spans = Obs.spans obs in
  let core_cycles =
    List.fold_left (fun acc c -> acc +. c.Cmp.cm_cycles) 0. (Cmp.metrics cmp).Cmp.m_cores
  in
  (* the acceptance bar is 0% drift: every simulated cycle a core
     accumulated is inside exactly one schedule span, and all
     scheduled time was spent executing *)
  Alcotest.(check (float 1e-6)) "schedule spans = core cycles" core_cycles
    (Obs.Span.total spans ~name:"schedule");
  Alcotest.(check (float 1e-6)) "exec spans = core cycles" core_cycles
    (Obs.Span.total spans ~name:"exec");
  let sys_cycles =
    List.fold_left (fun acc p -> acc +. System.cycles (Process.sys p)) 0. (Cmp.processes cmp)
  in
  Alcotest.(check (float 1e-6)) "process machines agree" core_cycles sys_cycles

let test_trace_json_is_perfetto_shaped () =
  let obs, cmp = Lazy.force mix_run in
  let s = Obs.Export.trace_json obs in
  let doc =
    match Json.parse s with
    | Ok d -> d
    | Error e -> Alcotest.failf "trace does not parse: %s" e
  in
  let events =
    match Json.member "traceEvents" doc with
    | Some (Json.List l) -> l
    | _ -> Alcotest.fail "no traceEvents array"
  in
  let ph e = match Json.member "ph" e with Some (Json.Str p) -> p | _ -> "" in
  let name e = match Json.member "name" e with Some (Json.Str n) -> n | _ -> "" in
  let count p = List.length (List.filter p events) in
  (* one metadata track-name record per CMP core *)
  let cores = List.length (Cmp.metrics cmp).Cmp.m_cores in
  Alcotest.(check int) "a named track per core" cores
    (count (fun e ->
         ph e = "M" && name e = "thread_name"
         && match Json.member "pid" e with Some (Json.Num 0.) -> true | _ -> false));
  (* every scheduling quantum is a complete-span on the core track *)
  let m = Cmp.metrics cmp in
  Alcotest.(check int) "a quantum span per slice" m.Cmp.m_slices
    (count (fun e -> ph e = "X" && name e = "schedule"));
  (* migrations show as instant events *)
  let migrations =
    Obs.Audit.count (Obs.audit obs) (fun e ->
        match e.Obs.Audit.au_kind with Obs.Audit.Migration _ -> true | _ -> false)
  in
  Alcotest.(check bool) "the mix migrated at all" true (migrations > 0);
  Alcotest.(check int) "an instant event per migration" migrations
    (count (fun e -> ph e = "i" && name e = "migration"))

let test_folded_lines_are_flamegraph_shaped () =
  let obs, _ = Lazy.force mix_run in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' (Obs.Export.folded obs))
  in
  Alcotest.(check bool) "profile is non-empty" true (lines <> []);
  List.iter
    (fun line ->
      match String.rindex_opt line ' ' with
      | None -> Alcotest.failf "no sample count: %S" line
      | Some i ->
        let stack = String.sub line 0 i in
        let count = String.sub line (i + 1) (String.length line - i - 1) in
        (match int_of_string_opt count with
        | Some n when n > 0 -> ()
        | _ -> Alcotest.failf "bad self-time %S in %S" count line);
        if stack = "" then Alcotest.failf "empty stack in %S" line)
    lines;
  Alcotest.(check bool) "translate frames carry the function leaf" true
    (List.exists
       (fun l ->
         match String.rindex_opt l ' ' with
         | Some i ->
           let frames = String.split_on_char ';' (String.sub l 0 i) in
           (* translate followed by a deeper (function-name) frame *)
           let rec has = function
             | "translate" :: _ :: _ -> true
             | _ :: rest -> has rest
             | [] -> false
           in
           has frames
         | None -> false)
       lines)

let test_audit_jsonl_matches_log () =
  let obs, _ = Lazy.force mix_run in
  let out = Obs.Export.audit_jsonl obs in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' out) in
  Alcotest.(check int) "one line per audit entry" (Obs.Audit.length (Obs.audit obs))
    (List.length lines);
  List.iteri
    (fun i line ->
      match Json.parse line with
      | Error e -> Alcotest.failf "audit line %d does not parse: %s" (i + 1) e
      | Ok doc -> (
        (* re-sequenced canonically: seq is the line's position *)
        (match Json.member "seq" doc with
        | Some (Json.Num s) -> Alcotest.(check int) "seq is positional" i (int_of_float s)
        | _ -> Alcotest.failf "audit line %d lacks seq" (i + 1));
        match Json.member "kind" doc with
        | Some (Json.Str _) -> ()
        | _ -> Alcotest.failf "audit line %d lacks kind" (i + 1)))
    lines

let test_metrics_formats () =
  let obs, _ = Lazy.force mix_run in
  let js = Obs.Export.metrics_json obs in
  (match Json.parse js with
  | Error e -> Alcotest.failf "metrics JSON does not parse: %s" e
  | Ok (Json.Obj sections) ->
    Alcotest.(check (list string)) "metrics JSON sections"
      [ "counters"; "histograms"; "spans"; "audit" ]
      (List.map fst sections)
  | Ok _ -> Alcotest.fail "metrics JSON is not an object");
  let prom = Obs.Export.metrics_prom obs in
  let contains sub =
    let n = String.length sub and m = String.length prom in
    let rec go i = i + n <= m && (String.sub prom i n = sub || go (i + 1)) in
    go 0
  in
  List.iter
    (fun sub ->
      Alcotest.(check bool) (Printf.sprintf "prom contains %S" sub) true (contains sub))
    [ "# TYPE"; "hipstr_span_cycles{phase=\"exec\"}"; "hipstr_audit_entries" ]

let test_timeline_formats () =
  (* a real timeline from a CMP run: Cmp.step samples its obs context
     at the end of every accounting stage *)
  let cfg = { Config.default with migrate_prob = 0.3 } in
  let obs = Obs.create () in
  let w = Workloads.find "mcf" in
  let procs =
    [
      Process.create ~obs ~cfg ~seed:1 ~start_isa:Desc.Cisc ~mode:System.Hipstr ~pid:0
        ~name:"mcf"
        ~fuel:(3 * w.Workloads.w_fuel)
        (Workloads.fatbin w);
    ]
  in
  let cmp = Cmp.create ~obs ~policy:Cmp.Load_balance ~quantum:20_000 procs in
  let tl = Obs.Timeline.create ~window:50_000. () in
  Cmp.run ~timeline:tl cmp;
  Alcotest.(check bool) "cmp run produced windows" true (Obs.Timeline.window_count tl > 0);
  (* JSON: schema tag and the per-window fields *)
  (match Json.parse (Obs.Export.timeline_json tl) with
  | Error e -> Alcotest.fail e
  | Ok doc ->
    (match Json.member "schema" doc with
    | Some (Json.Str s) -> Alcotest.(check string) "schema" "hipstr-timeline/1" s
    | _ -> Alcotest.fail "schema missing");
    if Json.member "window_cycles" doc = None then Alcotest.fail "window_cycles missing";
    (match Json.member "windows" doc with
    | Some (Json.List (wn :: _)) ->
      List.iter
        (fun k -> if Json.member k wn = None then Alcotest.failf "window lacks %S" k)
        [ "index"; "start"; "stop"; "counters"; "histograms" ]
    | _ -> Alcotest.fail "windows missing or empty"));
  (* CSV: fixed header, 6 comma-separated fields per row *)
  (match String.split_on_char '\n' (Obs.Export.timeline_csv tl) with
  | header :: rows ->
    Alcotest.(check string) "csv header" "window,start,stop,series,stat,value" header;
    Alcotest.(check bool) "csv has rows" true (List.exists (fun r -> r <> "") rows);
    List.iter
      (fun r ->
        if r <> "" then
          Alcotest.(check int) "csv row has 6 fields" 6
            (List.length (String.split_on_char ',' r)))
      rows
  | [] -> Alcotest.fail "empty csv");
  (* trace_json ?timeline: per-window series become Perfetto counter
     ("C") tracks; the per-tenant namespaces are excluded to bound
     track cardinality *)
  let stl = Obs.Timeline.create ~window:100. () in
  Obs.Timeline.record stl ~clock:50.
    ~counters:[ ("fleet.completed", 3); ("fleet.tenant.t0.requests", 5) ];
  (match Json.parse (Obs.Export.trace_json ~timeline:stl obs) with
  | Error e -> Alcotest.fail e
  | Ok doc ->
    let evs = match Json.member "traceEvents" doc with Some (Json.List l) -> l | _ -> [] in
    let counter_names =
      List.filter_map
        (fun e ->
          match (Json.member "ph" e, Json.member "name" e) with
          | Some (Json.Str "C"), Some (Json.Str n) -> Some n
          | _ -> None)
        evs
    in
    Alcotest.(check bool) "counter track present" true
      (List.mem "fleet.completed" counter_names);
    Alcotest.(check bool) "tenant tracks excluded" false
      (List.exists
         (fun n -> String.length n >= 12 && String.sub n 0 12 = "fleet.tenant")
         counter_names));
  (* the optional slo section carries the objective *)
  let obj = Obs.Slo.objective ~target:100. ~budget:0.1 in
  let rep = Obs.Slo.evaluate obj ~latency:"fleet.latency_cycles" stl in
  (match Json.parse (Obs.Export.timeline_json ~slo:(obj, rep) stl) with
  | Error e -> Alcotest.fail e
  | Ok doc -> (
    match Json.member "slo" doc with
    | Some s ->
      if Json.member "target_cycles" s = None then Alcotest.fail "slo lacks target_cycles"
    | None -> Alcotest.fail "slo section missing"));
  (* hostprof export is flagged non-deterministic in-band *)
  let hp = Obs.Hostprof.create () in
  Obs.Hostprof.note hp ~phase:"exec" ~words:42.;
  match Json.parse (Obs.Export.hostprof_json hp) with
  | Error e -> Alcotest.fail e
  | Ok doc -> (
    match Json.member "deterministic" doc with
    | Some (Json.Bool false) -> ()
    | _ -> Alcotest.fail "hostprof not flagged non-deterministic")

let test_timeline_json_deterministic () =
  (* two identically fed timelines serialize to identical bytes *)
  let build () =
    let tl = Obs.Timeline.create ~window:100. () in
    Obs.Timeline.record tl ~clock:50. ~counters:[ ("a", 1); ("b", 2) ];
    Obs.Timeline.record tl ~clock:250. ~counters:[ ("b", 3) ];
    Obs.Export.timeline_json tl
  in
  Alcotest.(check string) "replayed timeline bytes identical" (build ()) (build ())

let () =
  Alcotest.run "export"
    [
      ( "reconciliation",
        [
          Alcotest.test_case "span cycles = machine cycles" `Quick
            test_spans_reconcile_with_cycle_counters;
        ] );
      ( "formats",
        [
          Alcotest.test_case "chrome trace is perfetto-shaped" `Quick
            test_trace_json_is_perfetto_shaped;
          Alcotest.test_case "folded profile is flamegraph-shaped" `Quick
            test_folded_lines_are_flamegraph_shaped;
          Alcotest.test_case "audit jsonl matches the log" `Quick test_audit_jsonl_matches_log;
          Alcotest.test_case "metrics json + prometheus" `Quick test_metrics_formats;
          Alcotest.test_case "timeline json, csv, counter tracks" `Quick test_timeline_formats;
          Alcotest.test_case "timeline json deterministic" `Quick
            test_timeline_json_deterministic;
        ] );
    ]
