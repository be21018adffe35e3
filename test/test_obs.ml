(* The observability layer: counter monotonicity, snapshot stability
   across System.run re-entry, the counters of a real PSR run, and the
   metric invariants that tie
   the migration counters to the paper's trigger rule (a migration
   happens only on a suspicious code-cache miss, and with
   migrate_prob = 1 on *every* one). *)

module Obs = Hipstr_obs.Obs
module Desc = Hipstr_isa.Desc
module System = Hipstr.System
module Config = Hipstr_psr.Config
module Workloads = Hipstr_workloads.Workloads

(* --- Metrics --- *)

let test_counters_monotonic () =
  let m = Obs.Metrics.create () in
  let c = Obs.Metrics.counter m "x" in
  Alcotest.(check int) "starts at 0" 0 (Obs.Metrics.value c);
  Obs.Metrics.incr c;
  Obs.Metrics.incr ~by:41 c;
  Alcotest.(check int) "accumulates" 42 (Obs.Metrics.value c);
  (match Obs.Metrics.incr ~by:(-1) c with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "negative increment accepted");
  Alcotest.(check int) "unchanged after rejection" 42 (Obs.Metrics.value c);
  (* find-or-create returns the same handle *)
  Obs.Metrics.incr (Obs.Metrics.counter m "x");
  Alcotest.(check int) "same counter by name" 43 (Obs.Metrics.value c);
  (* name collisions across kinds are programming errors *)
  match Obs.Metrics.histogram m "x" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "histogram registered over a counter"

let test_histogram_summary () =
  let m = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram m "lat" in
  List.iter (Obs.Metrics.observe h) [ 1.; 2.; 3.; 10. ];
  let snap = Obs.Metrics.snapshot m in
  match List.assoc_opt "lat" snap.Obs.Metrics.snap_histograms with
  | None -> Alcotest.fail "histogram missing from snapshot"
  | Some s ->
    Alcotest.(check int) "count" 4 s.Obs.Metrics.hs_count;
    Alcotest.(check (float 1e-9)) "sum" 16. s.Obs.Metrics.hs_sum;
    Alcotest.(check (float 1e-9)) "min" 1. s.Obs.Metrics.hs_min;
    Alcotest.(check (float 1e-9)) "max" 10. s.Obs.Metrics.hs_max;
    Alcotest.(check (float 1e-9)) "mean" 4. s.Obs.Metrics.hs_mean;
    Alcotest.(check int) "bucketed everything" 4
      (Array.fold_left ( + ) 0 s.Obs.Metrics.hs_buckets)

let summary_of values =
  let m = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram m "lat" in
  List.iter (Obs.Metrics.observe h) values;
  let snap = Obs.Metrics.snapshot m in
  List.assoc "lat" snap.Obs.Metrics.snap_histograms

let test_histogram_quantiles () =
  (* empty histogram: all quantiles are 0 *)
  let empty = summary_of [] in
  Alcotest.(check (float 1e-9)) "empty p50" 0. (Obs.Metrics.p50 empty);
  (* a single sample: every quantile is that sample (clamped to
     [min, max], not the bucket boundary) *)
  let one = summary_of [ 5. ] in
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-9)) "single-sample quantile" 5. (Obs.Metrics.quantile one q))
    [ 0.; 0.5; 0.95; 1. ];
  (* uniform 1..100: within-bucket interpolation lands p50 on 51
     (rank 50 is 19/32 of the way through the [32, 64) bucket) *)
  let u = summary_of (List.init 100 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (float 1e-9)) "uniform p50" 51. (Obs.Metrics.p50 u);
  let p50 = Obs.Metrics.p50 u and p95 = Obs.Metrics.p95 u and p99 = Obs.Metrics.p99 u in
  Alcotest.(check bool) "quantiles are monotone" true (p50 <= p95 && p95 <= p99);
  Alcotest.(check bool) "quantiles clamp into [min, max]" true
    (p50 >= u.Obs.Metrics.hs_min && p99 <= u.Obs.Metrics.hs_max);
  (* a tail-heavy distribution separates the median from the tail *)
  let t = summary_of (List.init 100 (fun i -> if i < 95 then 10. else 5000.)) in
  Alcotest.(check bool) "p50 stays in the body" true (Obs.Metrics.p50 t < 20.);
  Alcotest.(check bool) "p99 reaches the tail" true (Obs.Metrics.p99 t > 1000.);
  match Obs.Metrics.quantile u 1.5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "q outside [0, 1] accepted"

let test_quantile_edge_cases () =
  (* empty histogram: every quantile is 0, not NaN and not a crash *)
  let empty = summary_of [] in
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-9)) "empty-histogram quantile" 0. (Obs.Metrics.quantile empty q))
    [ 0.; 0.5; 0.99; 1. ];
  (* every sample in one bucket ([4, 8)): quantiles interpolate inside
     the [min, max] span of that bucket, never out to its boundaries *)
  let one_bucket = summary_of [ 4.; 5.; 6.; 7. ] in
  Alcotest.(check int) "single-bucket count" 4 one_bucket.Obs.Metrics.hs_count;
  Alcotest.(check (float 1e-9)) "q0 is min" 4. (Obs.Metrics.quantile one_bucket 0.);
  Alcotest.(check (float 1e-9)) "q1 is max" 7. (Obs.Metrics.quantile one_bucket 1.);
  List.iter
    (fun q ->
      let v = Obs.Metrics.quantile one_bucket q in
      Alcotest.(check bool) "single-bucket quantile within [min, max]" true (v >= 4. && v <= 7.))
    [ 0.25; 0.5; 0.75; 0.95 ];
  Alcotest.(check bool) "single-bucket quantiles monotone" true
    (Obs.Metrics.quantile one_bucket 0.25 <= Obs.Metrics.quantile one_bucket 0.75)

let test_count_above () =
  let empty = summary_of [] in
  Alcotest.(check (float 1e-9)) "empty" 0. (Obs.Metrics.count_above empty 10.);
  (* one populated bucket [4, 8), min 4, max 7 *)
  let h = summary_of [ 4.; 5.; 6.; 7. ] in
  Alcotest.(check (float 1e-9)) "threshold below min: everything" 4.
    (Obs.Metrics.count_above h 0.);
  Alcotest.(check (float 1e-9)) "threshold at max: nothing" 0. (Obs.Metrics.count_above h 7.);
  Alcotest.(check (float 1e-9)) "threshold above max: nothing" 0.
    (Obs.Metrics.count_above h 100.);
  (* linear interpolation across the occupied [4, 7] span:
     (7 - 5.5) / (7 - 4) of 4 samples = 2 *)
  Alcotest.(check (float 1e-9)) "interpolated tail" 2. (Obs.Metrics.count_above h 5.5);
  (* a far bucket is either wholly above or wholly below *)
  let t = summary_of [ 10.; 10.; 5000. ] in
  Alcotest.(check (float 1e-9)) "tail bucket counted whole" 1.
    (Obs.Metrics.count_above t 1000.)

let test_summary_delta_combine () =
  let m = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram m "lat" in
  List.iter (Obs.Metrics.observe h) [ 1.; 2.; 3. ];
  let base = List.assoc "lat" (Obs.Metrics.snapshot m).Obs.Metrics.snap_histograms in
  List.iter (Obs.Metrics.observe h) [ 100.; 200. ];
  let now = List.assoc "lat" (Obs.Metrics.snapshot m).Obs.Metrics.snap_histograms in
  let d = Obs.Metrics.delta ~base now in
  Alcotest.(check int) "delta count" 2 d.Obs.Metrics.hs_count;
  Alcotest.(check (float 1e-9)) "delta sum" 300. d.Obs.Metrics.hs_sum;
  Alcotest.(check bool) "delta bounds cover the new samples" true
    (d.Obs.Metrics.hs_min <= 100. && d.Obs.Metrics.hs_max >= 200.);
  (* delta against itself is empty *)
  let z = Obs.Metrics.delta ~base:now now in
  Alcotest.(check int) "self delta empty" 0 z.Obs.Metrics.hs_count;
  (* combine adds counts and sums, takes extreme bounds *)
  let c = Obs.Metrics.combine_summaries base d in
  Alcotest.(check int) "combined count" 5 c.Obs.Metrics.hs_count;
  Alcotest.(check (float 1e-9)) "combined sum" 306. c.Obs.Metrics.hs_sum;
  Alcotest.(check (float 1e-9)) "combined min" 1. c.Obs.Metrics.hs_min;
  Alcotest.(check (float 1e-9)) "combined max" 200. c.Obs.Metrics.hs_max;
  (* combining with an empty summary is the identity *)
  let id = Obs.Metrics.combine_summaries c Obs.Metrics.empty_summary in
  Alcotest.(check int) "identity count" 5 id.Obs.Metrics.hs_count;
  Alcotest.(check (float 1e-9)) "identity sum" 306. id.Obs.Metrics.hs_sum

(* --- Timeline --- *)

let test_timeline_windows () =
  (match Obs.Timeline.create ~window:0. () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero window width accepted");
  let tl = Obs.Timeline.create ~window:100. () in
  Alcotest.(check (float 1e-9)) "width" 100. (Obs.Timeline.window_cycles tl);
  Alcotest.(check int) "clock 0 is window 0" 0 (Obs.Timeline.index_of tl 0.);
  Alcotest.(check int) "clock 250 is window 2" 2 (Obs.Timeline.index_of tl 250.);
  let m = Obs.Metrics.create () in
  let c = Obs.Metrics.counter m "reqs" in
  let h = Obs.Metrics.histogram m "lat" in
  Obs.Metrics.incr ~by:3 c;
  List.iter (Obs.Metrics.observe h) [ 10.; 20. ];
  Obs.Timeline.sample tl ~key:"k" ~clock:50. (Obs.Metrics.snapshot m);
  Obs.Metrics.incr ~by:4 c;
  Obs.Metrics.observe h 5000.;
  Obs.Timeline.sample tl ~key:"k" ~clock:150. (Obs.Metrics.snapshot m);
  Obs.Timeline.record tl ~clock:150. ~counters:[ ("extra", 2); ("dropped", 0) ];
  Alcotest.(check int) "two windows" 2 (Obs.Timeline.window_count tl);
  (match Obs.Timeline.windows tl with
  | [ w0; w1 ] ->
    Alcotest.(check int) "w0 index" 0 w0.Obs.Timeline.tw_index;
    Alcotest.(check int) "first sample charges cumulative state" 3
      (Obs.Timeline.counter_value w0 "reqs");
    Alcotest.(check int) "w1 counter delta" 4 (Obs.Timeline.counter_value w1 "reqs");
    Alcotest.(check int) "record lands in w1" 2 (Obs.Timeline.counter_value w1 "extra");
    Alcotest.(check int) "non-positive record dropped" 0
      (Obs.Timeline.counter_value w1 "dropped");
    (match Obs.Timeline.histogram w1 "lat" with
    | None -> Alcotest.fail "w1 histogram delta missing"
    | Some d ->
      Alcotest.(check int) "w1 histogram delta count" 1 d.Obs.Metrics.hs_count;
      Alcotest.(check bool) "w1 delta is the tail sample" true (Obs.Metrics.p99 d > 1000.))
  | ws -> Alcotest.fail (Printf.sprintf "expected 2 windows, got %d" (List.length ws)));
  Alcotest.(check (option (pair int int))) "span" (Some (0, 1)) (Obs.Timeline.span tl);
  (* merge folds windows; mismatched widths are programming errors *)
  let tl2 = Obs.Timeline.create ~window:100. () in
  Obs.Timeline.record tl2 ~clock:120. ~counters:[ ("extra", 5) ];
  Obs.Timeline.merge ~into:tl tl2;
  (match List.rev (Obs.Timeline.windows tl) with
  | w1 :: _ -> Alcotest.(check int) "merged counter adds" 7 (Obs.Timeline.counter_value w1 "extra")
  | [] -> Alcotest.fail "windows vanished after merge");
  match Obs.Timeline.merge ~into:tl (Obs.Timeline.create ~window:50. ()) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "merge across widths accepted"

let test_slo_arithmetic () =
  let tl = Obs.Timeline.create ~window:100. () in
  let m = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram m "lat" in
  (* window 0: 10 requests all far below target *)
  for _ = 1 to 10 do
    Obs.Metrics.observe h 10.
  done;
  Obs.Timeline.sample tl ~key:"k" ~clock:50. (Obs.Metrics.snapshot m);
  (* window 1: 10 requests all far above target *)
  for _ = 1 to 10 do
    Obs.Metrics.observe h 5000.
  done;
  Obs.Timeline.sample tl ~key:"k" ~clock:150. (Obs.Metrics.snapshot m);
  let obj = Obs.Slo.objective ~target:1000. ~budget:0.1 in
  (match Obs.Slo.evaluate obj ~latency:"lat" tl with
  | [ w0; w1 ] ->
    Alcotest.(check int) "w0 requests" 10 w0.Obs.Slo.sw_requests;
    Alcotest.(check (float 1e-9)) "w0 violations" 0. w0.Obs.Slo.sw_violations;
    Alcotest.(check (float 1e-9)) "w0 burn" 0. w0.Obs.Slo.sw_burn;
    Alcotest.(check (float 1e-9)) "w0 budget remaining" 1. w0.Obs.Slo.sw_budget_remaining;
    Alcotest.(check bool) "w0 not exhausted" false w0.Obs.Slo.sw_exhausted;
    Alcotest.(check bool) "w0 no exhaustion forecast" true (w0.Obs.Slo.sw_tte_windows = None);
    Alcotest.(check int) "w1 requests" 10 w1.Obs.Slo.sw_requests;
    Alcotest.(check (float 1e-9)) "w1 violations" 10. w1.Obs.Slo.sw_violations;
    Alcotest.(check (float 1e-9)) "w1 burn = 10x budget" 10. w1.Obs.Slo.sw_burn;
    Alcotest.(check int) "w1 cumulative requests" 20 w1.Obs.Slo.sw_cum_requests;
    Alcotest.(check (float 1e-9)) "w1 budget overdrawn" (-8.) w1.Obs.Slo.sw_budget_remaining;
    Alcotest.(check bool) "w1 exhausted" true w1.Obs.Slo.sw_exhausted
  | rs -> Alcotest.fail (Printf.sprintf "expected 2 reports, got %d" (List.length rs)));
  match Obs.Slo.objective ~target:0. ~budget:0.1 with
  | exception Invalid_argument _ -> (
    match Obs.Slo.objective ~target:10. ~budget:1.5 with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "budget outside (0,1) accepted")
  | _ -> Alcotest.fail "non-positive target accepted"

(* --- Hostprof --- *)

let test_hostprof_phases () =
  let obs = Obs.create () in
  let hp = Obs.Hostprof.create () in
  Obs.set_hostprof obs hp;
  Alcotest.(check bool) "attached" true
    (match Obs.hostprof obs with Some h -> h == hp | None -> false);
  Obs.Hostprof.start_run hp;
  let sp = Obs.enter_span obs ~name:"alloc_phase" ~cycle:0. () in
  (* allocate something the span must be charged for *)
  let junk = Sys.opaque_identity (List.init 10_000 (fun i -> (i, float_of_int i))) in
  ignore (Sys.opaque_identity (List.length junk));
  Obs.exit_span obs sp ~cycle:10.;
  Obs.Hostprof.stop_run hp ~instructions:1_000;
  (match Obs.Hostprof.phases hp with
  | [ (name, spans, words) ] ->
    Alcotest.(check string) "phase name" "alloc_phase" name;
    Alcotest.(check int) "one span" 1 spans;
    Alcotest.(check bool) "allocation charged" true (words > 0.)
  | ps -> Alcotest.fail (Printf.sprintf "expected 1 phase, got %d" (List.length ps)));
  (match Obs.Hostprof.minor_words_per_instr hp with
  | Some w -> Alcotest.(check bool) "words per instr positive" true (w > 0.)
  | None -> Alcotest.fail "no words-per-instruction after stop_run");
  match Obs.Hostprof.run hp with
  | Some rd ->
    Alcotest.(check int) "instructions recorded" 1_000 rd.Obs.Hostprof.hd_instructions;
    Alcotest.(check bool) "minor words moved" true (rd.Obs.Hostprof.hd_minor_words > 0.)
  | None -> Alcotest.fail "no run delta after stop_run"

(* A child context goes to another domain (a fleet shard), so it gets
   a profiler of its own and never writes its parent's table; merging
   the child adds its phases' spans and words to the parent's. *)
let test_hostprof_child_owns_and_merges () =
  let obs = Obs.create () in
  let hp = Obs.Hostprof.create () in
  Obs.set_hostprof obs hp;
  Obs.Hostprof.note hp ~phase:"exec" ~words:100.;
  let child = Obs.child obs in
  let child_hp =
    match Obs.hostprof child with Some h -> h | None -> Alcotest.fail "child has no profiler"
  in
  Alcotest.(check bool) "child's profiler is not the parent's" false (child_hp == hp);
  List.iter
    (fun name ->
      let sp = Obs.enter_span child ~name ~cycle:0. () in
      ignore (Sys.opaque_identity (List.init 100 Fun.id));
      Obs.exit_span child sp ~cycle:1.)
    [ "exec"; "child_phase" ];
  let phases = Alcotest.(list (triple string int (float 0.))) in
  Alcotest.check phases "parent untouched by the child's spans" [ ("exec", 1, 100.) ]
    (Obs.Hostprof.phases hp);
  let child_words name =
    match List.find_opt (fun (n, _, _) -> n = name) (Obs.Hostprof.phases child_hp) with
    | Some (_, 1, w) when w > 0. -> w
    | _ -> Alcotest.failf "child phase %s: expected one span with words" name
  in
  let exec_w = child_words "exec" and child_w = child_words "child_phase" in
  Obs.merge ~into:obs child;
  Alcotest.check phases "merge adds the child's spans and words"
    [ ("child_phase", 1, child_w); ("exec", 2, 100. +. exec_w) ]
    (Obs.Hostprof.phases hp)

(* --- spans --- *)

let test_span_nesting_and_parents () =
  let st = Obs.Span.create () in
  let outer = Obs.Span.enter st ~name:"exec" ~attrs:[ ("isa", "cisc") ] ~cycle:100. () in
  let inner = Obs.Span.enter st ~name:"translate" ~cycle:110. () in
  Obs.Span.exit st inner ~cycle:150.;
  Obs.Span.exit st outer ~cycle:300.;
  Alcotest.(check int) "two completed spans" 2 (Obs.Span.count st);
  let by_name n =
    match List.find_opt (fun s -> Obs.Span.name s = n) (Obs.Span.completed st) with
    | Some s -> s
    | None -> Alcotest.failf "span %s missing" n
  in
  let e = by_name "exec" and t = by_name "translate" in
  Alcotest.(check (option int)) "outer has no parent" None (Obs.Span.parent_id e);
  Alcotest.(check (option int)) "inner's parent is outer" (Some (Obs.Span.id e))
    (Obs.Span.parent_id t);
  Alcotest.(check (float 1e-9)) "outer duration" 200. (Obs.Span.duration e);
  Alcotest.(check (float 1e-9)) "inner duration" 40. (Obs.Span.duration t);
  Alcotest.(check (option string)) "attrs kept" (Some "cisc") (Obs.Span.attr e "isa");
  Alcotest.(check (float 1e-9)) "total sums by name" 40. (Obs.Span.total st ~name:"translate");
  (* end clamped to begin: a zero-duration span is legal, negative is not *)
  let z = Obs.Span.enter st ~name:"flush" ~cycle:500. () in
  Obs.Span.exit st z ~cycle:400.;
  Alcotest.(check (float 1e-9)) "exit clamps to begin" 0. (Obs.Span.total st ~name:"flush")

let test_span_canonical_is_order_free () =
  (* the same span multiset entered in two different orders must
     canonicalize to the same content sequence — the property that
     makes parallel-run exports byte-identical *)
  let mk order =
    let st = Obs.Span.create () in
    List.iter
      (fun (name, b, e) ->
        let s = Obs.Span.enter st ~name ~cycle:b () in
        Obs.Span.exit st s ~cycle:e)
      order;
    List.map
      (fun s -> (Obs.Span.name s, Obs.Span.begin_cycle s, Obs.Span.end_cycle s))
      (Obs.Span.canonical (Obs.Span.completed st))
  in
  let spans = [ ("exec", 0., 50.); ("translate", 5., 9.); ("exec", 50., 80.) ] in
  Alcotest.(check bool) "canonical order independent of insertion" true
    (mk spans = mk (List.rev spans))

let test_span_merge_rebases_ids () =
  let parent = Obs.Span.create () in
  let p0 = Obs.Span.enter parent ~name:"exec" ~cycle:0. () in
  Obs.Span.exit parent p0 ~cycle:10.;
  let child = Obs.Span.create () in
  let c0 = Obs.Span.enter child ~name:"exec" ~cycle:0. () in
  let c1 = Obs.Span.enter child ~name:"translate" ~cycle:2. () in
  Obs.Span.exit child c1 ~cycle:4.;
  Obs.Span.exit child c0 ~cycle:10.;
  Obs.Span.merge ~into:parent child;
  Alcotest.(check int) "all spans present after merge" 3 (Obs.Span.count parent);
  let ids = List.map Obs.Span.id (Obs.Span.completed parent) in
  Alcotest.(check int) "ids stay unique after re-basing" 3
    (List.length (List.sort_uniq compare ids));
  (* the child's internal parent link survived the re-base *)
  let tr =
    List.find (fun s -> Obs.Span.name s = "translate") (Obs.Span.completed parent)
  in
  let ex_id =
    match Obs.Span.parent_id tr with
    | Some i -> i
    | None -> Alcotest.fail "merge dropped the parent link"
  in
  let ex = List.find (fun s -> Obs.Span.id s = ex_id) (Obs.Span.completed parent) in
  Alcotest.(check string) "link points at the merged exec span" "exec" (Obs.Span.name ex)

let test_span_helpers_guard_disabled () =
  Alcotest.(check bool) "disabled context hands out no span" true
    (Obs.enter_span Obs.disabled ~name:"exec" ~cycle:0. () = None);
  Obs.exit_span Obs.disabled None ~cycle:1.;
  Obs.audit_emit Obs.disabled ~cycle:0. ~isa:"cisc" ~pid:0
    (Obs.Audit.Fault { reason = "nope" });
  Alcotest.(check int) "disabled audit stays empty" 0 (Obs.Audit.length (Obs.audit Obs.disabled));
  (* enabled: the span lands in the store *)
  let obs = Obs.create () in
  let sp = Obs.enter_span obs ~name:"exec" ~cycle:3. () in
  Obs.exit_span obs sp ~cycle:8.;
  Alcotest.(check int) "span closed into the store" 1 (Obs.Span.count (Obs.spans obs))

(* --- audit log --- *)

let test_audit_log () =
  let a = Obs.Audit.create () in
  let k1 = Obs.Audit.Suspicious { target_src = 0x40 } in
  let k2 = Obs.Audit.Decision { target_src = 0x40; migrate = true; forced = false } in
  let k3 =
    Obs.Audit.Migration
      { to_isa = "risc"; forced = false; frames = 2; words = 9; cost_cycles = 300.; outcome = "resumed" }
  in
  ignore (Obs.Audit.record a ~cycle:10. ~isa:"cisc" ~pid:0 k1);
  ignore (Obs.Audit.record a ~cycle:10. ~isa:"cisc" ~pid:0 k2);
  ignore (Obs.Audit.record a ~cycle:310. ~isa:"risc" ~pid:0 k3);
  Alcotest.(check int) "three entries" 3 (Obs.Audit.length a);
  Alcotest.(check (list string)) "labels"
    [ "suspicious"; "decision"; "migration" ]
    (List.map (fun e -> Obs.Audit.kind_label e.Obs.Audit.au_kind) (Obs.Audit.entries a));
  Alcotest.(check int) "count by predicate" 1
    (Obs.Audit.count a (fun e ->
         match e.Obs.Audit.au_kind with Obs.Audit.Migration m -> m.outcome = "resumed" | _ -> false));
  let b = Obs.Audit.create () in
  ignore (Obs.Audit.record b ~cycle:1. ~isa:"cisc" ~pid:1 (Obs.Audit.Fault { reason = "x" }));
  Obs.Audit.merge ~into:a b;
  Alcotest.(check int) "merge appends" 4 (Obs.Audit.length a);
  let seqs = List.map (fun e -> e.Obs.Audit.au_seq) (Obs.Audit.entries a) in
  Alcotest.(check int) "seqs unique after merge" 4 (List.length (List.sort_uniq compare seqs))

(* Every process kill leaves exactly one audit entry, a native machine
   fault included: an oversized request line smashes the native httpd
   server's frame, and its return faults. *)
let test_native_kill_audited () =
  let module Fatbin = Hipstr_compiler.Fatbin in
  let module Machine = Hipstr_machine.Machine in
  let module Mem = Hipstr_machine.Mem in
  let obs = Obs.create () in
  let sys =
    System.of_fatbin ~obs ~start_isa:Desc.Cisc ~mode:System.Native
      (Workloads.fatbin Workloads.httpd)
  in
  let fb = System.fatbin sys and mem = Machine.mem (System.machine sys) in
  let input = Fatbin.global_addr fb "net_input" in
  List.iteri (fun i w -> Mem.write32 mem (input + (4 * i)) w)
    (List.init 64 (fun i -> 0x0BAD0000 lor (i * 4)));
  Mem.write32 mem (Fatbin.global_addr fb "net_len") 64;
  Mem.write32 mem (Fatbin.global_addr fb "requests") 3;
  match System.run sys ~fuel:200_000 with
  | System.Killed m -> (
    match Obs.Audit.entries (Obs.audit obs) with
    | [ { Obs.Audit.au_kind = Obs.Audit.Fault { reason }; _ } ] ->
      Alcotest.(check string) "the entry gives the kill's reason" m reason
    | es ->
      Alcotest.failf "%d audit entries (%s), wanted one fault" (List.length es)
        (String.concat ", " (List.map (fun e -> Obs.Audit.kind_label e.Obs.Audit.au_kind) es)))
  | _ -> Alcotest.fail "the oversized request line must kill the native server"

(* --- a real PSR run --- *)

let run_to_finish sys ~fuel =
  match System.run sys ~fuel with
  | System.Finished _ -> ()
  | o ->
    Alcotest.failf "run did not finish: %s"
      (match o with
      | System.Killed m -> m
      | System.Out_of_fuel -> "fuel"
      | System.Shell_spawned -> "shell"
      | System.Finished _ -> assert false)

(* The PSR VM's events are counters: they agree with the VM's own
   statistics. *)
let test_psr_run_events () =
  let obs = Obs.create () in
  let w = Workloads.find "mcf" in
  let sys = System.of_fatbin ~obs ~seed:1 ~start_isa:Desc.Cisc ~mode:System.Psr_only (Workloads.fatbin w) in
  run_to_finish sys ~fuel:(3 * w.w_fuel);
  let snap = System.metrics sys in
  let translates = Obs.Metrics.counter_value snap "psr.cisc.translations" in
  let hits = Obs.Metrics.counter_value snap "psr.cisc.cache_hits" in
  Alcotest.(check bool) "at least one translation" true (translates >= 1);
  Alcotest.(check bool) "at least one cache hit" true (hits >= 1);
  Alcotest.(check int) "translation counter = VM translations" translates
    (Hipstr_psr.Vm.stats (System.vm sys Desc.Cisc)).Hipstr_psr.Vm.translations

(* The [translate] span covers the translation miss path. With a
   hostprof attached, its phase is charged the miss path's allocation,
   hundreds of words per translation where the span's own bookkeeping
   is a handful. A translation that raises from inside (a function
   whose code now starts with a VM pseudo-instruction) still closes its
   span: it is recorded, and a span entered afterwards has no parent. *)
let test_translate_span_covers_miss () =
  let module Vm = Hipstr_psr.Vm in
  let module Fatbin = Hipstr_compiler.Fatbin in
  let module Machine = Hipstr_machine.Machine in
  let obs = Obs.create () in
  let hp = Obs.Hostprof.create () in
  Obs.set_hostprof obs hp;
  let fb = Workloads.fatbin (Workloads.find "mcf") in
  let sys = System.of_fatbin ~obs ~seed:1 ~start_isa:Desc.Cisc ~mode:System.Psr_only fb in
  ignore (System.run sys ~fuel:20_000);
  (match List.find_opt (fun (n, _, _) -> n = "translate") (Obs.Hostprof.phases hp) with
  | Some (_, spans, words) ->
    if words /. float_of_int spans < 100. then
      Alcotest.failf "translate phase: %.0f words over %d spans" words spans
  | None -> Alcotest.fail "no translate phase");
  let vm = System.vm sys Desc.Cisc in
  let fs =
    List.find
      (fun (fs : Fatbin.func_sym) ->
        Hipstr_psr.Code_cache.find (Vm.cache vm) fs.fs_cisc.im_entry = None)
      (Array.to_list fb.Fatbin.fb_funcs)
  in
  let entry = fs.fs_cisc.im_entry in
  Hipstr_machine.Mem.blit_string
    (Machine.mem (System.machine sys))
    entry
    (Hipstr_isa.Isa.encode Desc.Cisc ~at:entry (Hipstr_isa.Minstr.Trap 0));
  (match Vm.enter vm entry with
  | exception Hipstr_psr.Translator.Wild _ -> ()
  | () -> Alcotest.fail "a pseudo-instruction terminator was translated");
  let last = List.hd (List.rev (Obs.Span.completed (Obs.spans obs))) in
  Alcotest.(check string) "the raising translation's span" "translate" (Obs.Span.name last);
  Alcotest.(check (option string)) "of its function" (Some fs.fs_name) (Obs.Span.attr last "func");
  let probe = Obs.enter_span obs ~name:"probe" ~cycle:0. () in
  Obs.exit_span obs probe ~cycle:0.;
  let probe = List.hd (List.rev (Obs.Span.completed (Obs.spans obs))) in
  Alcotest.(check (option int)) "no span left open" None (Obs.Span.parent_id probe)

(* A mirror pretranslation opens no span, since its cycle charge is
   rewound, but with a hostprof attached its allocation is a phase of
   its own: [pretranslate], one entry per [Vm.pretranslate] call, hit
   or miss, hundreds of words per entry. The bracket opens no span, so
   the trace export is byte-identical with and without the hostprof. *)
let test_pretranslate_phase () =
  let module Vm = Hipstr_psr.Vm in
  let module Fatbin = Hipstr_compiler.Fatbin in
  let fb = Workloads.fatbin (Workloads.find "mcf") in
  let cfg = { Config.default with migrate_prob = 0.0 } in
  let run hp =
    let obs = Obs.create () in
    Option.iter (Obs.set_hostprof obs) hp;
    let sys = System.of_fatbin ~cfg ~obs ~seed:1 ~start_isa:Desc.Cisc ~mode:System.Hipstr fb in
    ignore (System.run sys ~fuel:20_000);
    (obs, sys)
  in
  let hp = Obs.Hostprof.create () in
  let obs, sys = run (Some hp) in
  let bare, _ = run None in
  Alcotest.(check string) "trace export unchanged by the hostprof" (Obs.Export.trace_json bare)
    (Obs.Export.trace_json obs);
  let entries () =
    match List.find_opt (fun (n, _, _) -> n = "pretranslate") (Obs.Hostprof.phases hp) with
    | Some (_, n, words) -> (n, words)
    | None -> Alcotest.fail "no pretranslate phase"
  in
  let n, words = entries () in
  (* with no migration, the idle ISA's VM translates only when the
     mirror pretranslates into it *)
  let idle = System.vm sys Desc.Risc in
  let mirrored = (Vm.stats idle).Vm.translations in
  if mirrored = 0 || n < mirrored then
    Alcotest.failf "%d pretranslate entries for %d mirrored translations" n mirrored;
  if words /. float_of_int n < 100. then
    Alcotest.failf "pretranslate phase: %.0f words over %d entries" words n;
  let targets =
    Array.to_list (Array.map (fun (fs : Fatbin.func_sym) -> fs.fs_risc.im_entry) fb.Fatbin.fb_funcs)
  in
  List.iter (fun a -> ignore (Vm.pretranslate idle a)) targets;
  Alcotest.(check int) "one entry per pretranslation" (n + List.length targets) (fst (entries ()))

let test_snapshot_stable_across_reentry () =
  let obs = Obs.create () in
  let w = Workloads.find "lbm" in
  let sys = System.of_fatbin ~obs ~start_isa:Desc.Cisc ~mode:System.Psr_only (Workloads.fatbin w) in
  (match System.run sys ~fuel:10_000 with
  | System.Out_of_fuel -> ()
  | _ -> Alcotest.fail "expected to run out of fuel");
  let s1 = System.metrics sys in
  run_to_finish sys ~fuel:(3 * w.w_fuel);
  let s2 = System.metrics sys in
  (* monotone across re-entry: nothing resets when run resumes *)
  List.iter
    (fun (name, v1) ->
      let v2 = Obs.Metrics.counter_value s2 name in
      if v2 < v1 then Alcotest.failf "%s went backwards across re-entry (%d -> %d)" name v1 v2)
    s1.Obs.Metrics.snap_counters;
  Alcotest.(check bool) "instructions advanced" true
    (Obs.Metrics.counter_value s2 "machine.cisc.instructions"
    > Obs.Metrics.counter_value s1 "machine.cisc.instructions");
  (* snapshotting is read-only: two in a row are identical *)
  let s3 = System.metrics sys in
  Alcotest.(check bool) "snapshot has no side effects" true (s3 = s2)

(* Obs.disabled is the context any number of domains may share: systems
   booted and run on it from two domains at once leave it empty, with
   no name registered and nothing counted. *)
let test_disabled_stays_empty_across_domains () =
  let run name =
    let w = Workloads.find name in
    let sys =
      System.of_fatbin ~obs:Obs.disabled ~start_isa:Desc.Cisc ~mode:System.Hipstr
        (Workloads.fatbin w)
    in
    ignore (System.run sys ~fuel:50_000);
    System.instructions sys
  in
  List.iter
    (fun n -> Alcotest.(check bool) "instructions retired" true (n > 0))
    (Hipstr_cmp.Pool.map ~jobs:2 run [ "gobmk"; "mcf" ]);
  let snap = Obs.snapshot Obs.disabled in
  Alcotest.(check (list string)) "no counter" [] (List.map fst snap.Obs.Metrics.snap_counters);
  Alcotest.(check (list string)) "no histogram" []
    (List.map fst snap.Obs.Metrics.snap_histograms)

let test_disabled_records_nothing () =
  let w = Workloads.find "mcf" in
  let sys =
    System.of_fatbin ~obs:Obs.disabled ~start_isa:Desc.Cisc ~mode:System.Psr_only
      (Workloads.fatbin w)
  in
  run_to_finish sys ~fuel:(3 * w.w_fuel);
  let snap = System.metrics sys in
  List.iter
    (fun (name, v) ->
      if v <> 0 then Alcotest.failf "disabled obs counted %s = %d" name v)
    snap.Obs.Metrics.snap_counters

(* --- mode invariants --- *)

let test_psr_only_never_migrates () =
  let obs = Obs.create () in
  let w = Workloads.find "gobmk" in
  let sys =
    System.of_fatbin ~obs ~seed:6 ~start_isa:Desc.Cisc ~mode:System.Psr_only (Workloads.fatbin w)
  in
  run_to_finish sys ~fuel:(3 * w.w_fuel);
  let snap = System.metrics sys in
  Alcotest.(check bool) "suspicious events happened" true
    (Obs.Metrics.counter_value snap "psr.cisc.suspicious" >= 1);
  Alcotest.(check int) "no security migrations" 0
    (Obs.Metrics.counter_value snap "system.migrations.security");
  Alcotest.(check int) "no forced migrations" 0
    (Obs.Metrics.counter_value snap "system.migrations.forced");
  Alcotest.(check int) "no stack transforms" 0
    (Obs.Metrics.counter_value snap "migration.stack_transforms")

let test_hipstr_prob1_migrates_on_every_miss () =
  (* the paper's trigger rule: with migrate_prob = 1 every suspicious
     code-cache miss — on either core — becomes a migration *)
  let obs = Obs.create () in
  let cfg = { Config.default with migrate_prob = 1.0 } in
  let w = Workloads.find "gobmk" in
  let sys =
    System.of_fatbin ~obs ~cfg ~seed:6 ~start_isa:Desc.Cisc ~mode:System.Hipstr (Workloads.fatbin w)
  in
  run_to_finish sys ~fuel:(3 * w.w_fuel);
  let snap = System.metrics sys in
  let suspicious =
    Obs.Metrics.counter_value snap "psr.cisc.suspicious"
    + Obs.Metrics.counter_value snap "psr.risc.suspicious"
  in
  let migrations = Obs.Metrics.counter_value snap "system.migrations.security" in
  Alcotest.(check bool) "at least one trigger" true (suspicious >= 1);
  Alcotest.(check int) "every suspicious miss migrated" suspicious migrations;
  Alcotest.(check int) "counter agrees with the accessor" (System.security_migrations sys)
    migrations;
  Alcotest.(check int) "each migration transformed the stack" migrations
    (Obs.Metrics.counter_value snap "migration.stack_transforms")

let test_forced_migration_counted () =
  let obs = Obs.create () in
  let cfg = { Config.default with migrate_prob = 0.0 } in
  let w = Workloads.find "hmmer" in
  let sys =
    System.of_fatbin ~obs ~cfg ~seed:7 ~start_isa:Desc.Cisc ~mode:System.Hipstr (Workloads.fatbin w)
  in
  (match System.run sys ~fuel:20_000 with
  | System.Out_of_fuel -> ()
  | _ -> Alcotest.fail "expected fuel to run out");
  System.request_migration sys;
  run_to_finish sys ~fuel:(3 * w.w_fuel);
  let snap = System.metrics sys in
  Alcotest.(check int) "forced migration observed" (System.forced_migrations sys)
    (Obs.Metrics.counter_value snap "system.migrations.forced");
  Alcotest.(check bool) "at least one" true
    (Obs.Metrics.counter_value snap "system.migrations.forced" >= 1);
  Alcotest.(check int) "none misattributed to security" 0
    (Obs.Metrics.counter_value snap "system.migrations.security")

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counters monotonic" `Quick test_counters_monotonic;
          Alcotest.test_case "histogram summary" `Quick test_histogram_summary;
          Alcotest.test_case "histogram quantiles" `Quick test_histogram_quantiles;
          Alcotest.test_case "quantile edge cases" `Quick test_quantile_edge_cases;
          Alcotest.test_case "count_above interpolation" `Quick test_count_above;
          Alcotest.test_case "summary delta and combine" `Quick test_summary_delta_combine;
        ] );
      ( "timeline",
        [
          Alcotest.test_case "windowing, deltas, merge" `Quick test_timeline_windows;
          Alcotest.test_case "slo arithmetic" `Quick test_slo_arithmetic;
        ] );
      ( "hostprof",
        [
          Alcotest.test_case "per-phase words and run delta" `Quick test_hostprof_phases;
          Alcotest.test_case "child owns its profiler; merge folds it" `Quick
            test_hostprof_child_owns_and_merges;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting and parent links" `Quick test_span_nesting_and_parents;
          Alcotest.test_case "canonical order is insertion-free" `Quick
            test_span_canonical_is_order_free;
          Alcotest.test_case "merge re-bases ids, keeps links" `Quick test_span_merge_rebases_ids;
          Alcotest.test_case "helpers guard the disabled context" `Quick
            test_span_helpers_guard_disabled;
        ] );
      ( "audit",
        [
          Alcotest.test_case "record, count, label, merge" `Quick test_audit_log;
          Alcotest.test_case "native kill is audited" `Quick test_native_kill_audited;
        ] );
      ( "system",
        [
          Alcotest.test_case "psr run emits events" `Quick test_psr_run_events;
          Alcotest.test_case "translate span covers the miss path" `Quick
            test_translate_span_covers_miss;
          Alcotest.test_case "pretranslate phase" `Quick test_pretranslate_phase;
          Alcotest.test_case "snapshot stable across re-entry" `Quick
            test_snapshot_stable_across_reentry;
          Alcotest.test_case "disabled records nothing" `Quick test_disabled_records_nothing;
          Alcotest.test_case "disabled stays empty across domains" `Quick
            test_disabled_stays_empty_across_domains;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "psr-only never migrates" `Quick test_psr_only_never_migrates;
          Alcotest.test_case "prob-1 migrates on every miss" `Quick
            test_hipstr_prob1_migrates_on_every_miss;
          Alcotest.test_case "forced migrations counted" `Quick test_forced_migration_counted;
        ] );
    ]
