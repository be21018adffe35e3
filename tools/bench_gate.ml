(* Benchmark regression gate: diff two BENCH_*.json files of the same
   schema and fail when a metric regressed past a threshold. The
   cache, fleet and migrate smoke targets run the --selftest mode (a
   synthetic 10% degradation must always be caught) on the file they
   then gate, so the gate itself is regression-tested by the same
   target that uses it.

   Schemas and the metrics extracted from them:
     hipstr-bench-fleet/1   per point: throughput_per_mcycle (higher),
                            latency p99 (lower)
     hipstr-bench-cache/1   per workload x capacity x policy:
                            retranslate_cycles (lower)
     hipstr-bench-migrate/1 per workload: image_bytes, total warm/cold
                            migration cycles (all lower is better),
                            plus the fleet-wide totals

   Usage:
     bench_gate [--max-drop PCT] [--max-rise PCT] OLD.json NEW.json
     bench_gate [--max-drop PCT] [--max-rise PCT] --selftest FILE.json

   Exit codes: 0 ok, 1 regression (or selftest failure), 2 usage or
   parse error. *)

module Json = Hipstr_util.Json

type dir = Higher_better | Lower_better

type metric = { m_key : string; m_value : float; m_dir : dir }

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("bench_gate: " ^ s);
      exit 2)
    fmt

let mem name j =
  match Json.member name j with Some v -> v | None -> fail "missing field '%s'" name

let str name j =
  match mem name j with Json.Str s -> s | _ -> fail "field '%s' is not a string" name

let num name j =
  match mem name j with Json.Num n -> n | _ -> fail "field '%s' is not a number" name

let list name j =
  match mem name j with Json.List l -> l | _ -> fail "field '%s' is not a list" name

(* ------------------------------------------------------------------ *)
(* Per-schema metric extraction. Keys are stable content-derived
   paths, so reordered points still pair up old-to-new. *)

let fleet_metrics doc =
  List.concat_map
    (fun p ->
      let key suffix =
        Printf.sprintf "fleet.%s.%s.%s" (str "policy" p) (str "arrival" p) suffix
      in
      let lat = mem "latency_cycles" p in
      [
        {
          m_key = key "throughput_per_mcycle";
          m_value = num "throughput_per_mcycle" p;
          m_dir = Higher_better;
        };
        { m_key = key "latency_p99"; m_value = num "p99" lat; m_dir = Lower_better };
      ])
    (list "points" doc)

let cache_metrics doc =
  List.concat_map
    (fun w ->
      let name = str "name" w in
      List.concat_map
        (fun cap ->
          let capacity = int_of_float (num "capacity" cap) in
          let point policy j =
            {
              m_key =
                Printf.sprintf "cache.%s.%d.%s.retranslate_cycles" name capacity policy;
              m_value = num "retranslate_cycles" j;
              m_dir = Lower_better;
            }
          in
          point "flush" (mem "flush" cap)
          :: List.map
               (fun e ->
                 let p = mem "point" e in
                 point (str "policy" p) p)
               (list "eviction" cap))
        (list "capacities" w))
    (list "workloads" doc)

let migrate_metrics doc =
  let totals =
    List.map
      (fun field ->
        { m_key = "migrate." ^ field; m_value = num field doc; m_dir = Lower_better })
      [ "total_warm_cycles"; "total_cold_cycles" ]
  in
  totals
  @ List.concat_map
      (fun p ->
        let name = str "workload" p in
        List.map
          (fun field ->
            {
              m_key = Printf.sprintf "migrate.%s.%s" name field;
              m_value = num field p;
              m_dir = Lower_better;
            })
          [ "image_bytes"; "total_warm_cycles"; "total_cold_cycles" ])
      (list "points" doc)

let extract path doc =
  match str "schema" doc with
  | "hipstr-bench-fleet/1" -> fleet_metrics doc
  | "hipstr-bench-cache/1" -> cache_metrics doc
  | "hipstr-bench-migrate/1" -> migrate_metrics doc
  | s ->
    fail
      "%s: unsupported schema '%s' (expected hipstr-bench-fleet/1, hipstr-bench-cache/1 or \
       hipstr-bench-migrate/1)"
      path s

let load path =
  let s =
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error e -> fail "%s" e
  in
  match Json.parse s with Ok j -> j | Error e -> fail "%s: %s" path e

(* ------------------------------------------------------------------ *)
(* Comparison: percentage change relative to the old value; a drop of
   a higher-is-better metric past --max-drop (or a rise of a
   lower-is-better one past --max-rise) is a failure. A metric that
   vanished from the new file is too — silently losing coverage must
   not read as "no regression".

   A zero or NaN baseline admits no percent-change at all: such a
   metric is reported as "new/incomparable" and excluded from the
   gate rather than crashing or — worse — passing silently (NaN
   poisons every float comparison to false, which used to read as
   "no regression"). A finite baseline going to NaN, by contrast, IS
   a failure: the metric stopped being measurable. *)

type verdict =
  | Regression of string
  | Incomparable of string  (* reported, never silent, never fatal *)

let compare_metrics ~max_drop ~max_rise olds news =
  List.filter_map
    (fun om ->
      match List.find_opt (fun nm -> nm.m_key = om.m_key) news with
      | None ->
        Some (Regression (Printf.sprintf "%s: present in old file, missing from new" om.m_key))
      | Some nm ->
        if Float.is_nan om.m_value || om.m_value = 0. then
          Some
            (Incomparable
               (Printf.sprintf "%s: baseline is %s — new/incomparable metric, not gated"
                  om.m_key
                  (if Float.is_nan om.m_value then "NaN" else "0")))
        else if Float.is_nan nm.m_value then
          Some
            (Regression
               (Printf.sprintf "%s: %.6g -> NaN (metric stopped being measurable)" om.m_key
                  om.m_value))
        else begin
          let pct = 100. *. (nm.m_value -. om.m_value) /. om.m_value in
          match om.m_dir with
          | Higher_better when pct < -.max_drop ->
            Some
              (Regression
                 (Printf.sprintf "%s: %.6g -> %.6g (%.1f%% drop, max %.1f%%)" om.m_key
                    om.m_value nm.m_value (-.pct) max_drop))
          | Lower_better when pct > max_rise ->
            Some
              (Regression
                 (Printf.sprintf "%s: %.6g -> %.6g (%.1f%% rise, max %.1f%%)" om.m_key
                    om.m_value nm.m_value pct max_rise))
          | _ -> None
        end)
    olds

let split verdicts =
  List.partition_map
    (function Regression m -> Either.Left m | Incomparable m -> Either.Right m)
    verdicts

let selftest ~max_drop ~max_rise path =
  let metrics = extract path (load path) in
  if metrics = [] then fail "%s: no metrics extracted" path;
  let comparable = List.filter (fun m -> m.m_value <> 0. && not (Float.is_nan m.m_value)) metrics in
  if comparable = [] then fail "%s: no comparable (non-zero, non-NaN) metrics" path;
  let clean, _ = split (compare_metrics ~max_drop ~max_rise metrics metrics) in
  let degraded =
    List.map
      (fun m ->
        {
          m with
          m_value =
            (match m.m_dir with
            | Higher_better -> m.m_value *. 0.9
            | Lower_better -> m.m_value *. 1.1);
        })
      comparable
  in
  let caught, _ = split (compare_metrics ~max_drop ~max_rise comparable degraded) in
  Printf.printf
    "selftest %s: %d metrics, self-compare failures=%d, 10%%-degradation failures=%d\n" path
    (List.length metrics) (List.length clean) (List.length caught);
  if clean <> [] then begin
    List.iter (fun f -> Printf.eprintf "  unexpected self-compare failure: %s\n" f) clean;
    exit 1
  end;
  if List.length caught <> List.length comparable then begin
    Printf.eprintf "  injected 10%% degradation was not detected on every comparable metric\n";
    exit 1
  end;
  (* Zero and NaN baselines must be reported as incomparable — neither a
     crash, a regression, nor (the old bug) a silent pass. *)
  let probe = List.hd comparable in
  List.iter
    (fun (what, baseline) ->
      match compare_metrics ~max_drop ~max_rise [ { probe with m_value = baseline } ] [ probe ] with
      | [ Incomparable _ ] -> ()
      | [] -> fail "selftest: %s baseline passed silently" what
      | _ -> fail "selftest: %s baseline was not reported as incomparable" what)
    [ ("zero", 0.); ("NaN", Float.nan) ];
  (* ...and a comparable metric going to NaN is a regression. *)
  (match
     compare_metrics ~max_drop ~max_rise [ probe ] [ { probe with m_value = Float.nan } ]
   with
  | [ Regression _ ] -> ()
  | _ -> fail "selftest: metric going to NaN was not reported as a regression");
  print_endline "selftest: ok"

let gate ~max_drop ~max_rise old_path new_path =
  let old_doc = load old_path and new_doc = load new_path in
  let old_schema = str "schema" old_doc and new_schema = str "schema" new_doc in
  if old_schema <> new_schema then
    fail "schema mismatch: %s is %s, %s is %s" old_path old_schema new_path new_schema;
  let olds = extract old_path old_doc and news = extract new_path new_doc in
  let failures, notes = split (compare_metrics ~max_drop ~max_rise olds news) in
  List.iter (fun n -> Printf.printf "bench_gate: note: %s\n" n) notes;
  match failures with
  | [] ->
    Printf.printf "bench_gate: ok — %d metrics within max-drop %.1f%% / max-rise %.1f%%\n"
      (List.length olds - List.length notes)
      max_drop max_rise
  | failures ->
    Printf.eprintf "bench_gate: %d regression(s) %s -> %s\n" (List.length failures) old_path
      new_path;
    List.iter (fun f -> Printf.eprintf "  %s\n" f) failures;
    exit 1

let usage () =
  prerr_endline
    "usage: bench_gate [--max-drop PCT] [--max-rise PCT] OLD.json NEW.json\n\
    \       bench_gate [--max-drop PCT] [--max-rise PCT] --selftest FILE.json";
  exit 2

let () =
  let pct what s =
    match float_of_string_opt s with
    | Some p when p >= 0. -> p
    | _ -> fail "%s must be a non-negative percentage (got '%s')" what s
  in
  let max_drop = ref 5. and max_rise = ref 5. and self = ref false in
  let files = ref [] in
  let rec go = function
    | [] -> ()
    | "--max-drop" :: v :: rest ->
      max_drop := pct "--max-drop" v;
      go rest
    | "--max-rise" :: v :: rest ->
      max_rise := pct "--max-rise" v;
      go rest
    | "--selftest" :: rest ->
      self := true;
      go rest
    | f :: _ when String.length f > 1 && f.[0] = '-' -> fail "unknown option '%s'" f
    | f :: rest ->
      files := f :: !files;
      go rest
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!self, List.rev !files) with
  | true, [ path ] -> selftest ~max_drop:!max_drop ~max_rise:!max_rise path
  | false, [ old_path; new_path ] ->
    gate ~max_drop:!max_drop ~max_rise:!max_rise old_path new_path
  | _ -> usage ()
