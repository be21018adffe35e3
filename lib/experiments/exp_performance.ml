module Table = Hipstr_util.Table
module Stats = Hipstr_util.Stats
module Rng = Hipstr_util.Rng
module Workloads = Hipstr_workloads.Workloads
module Safety = Hipstr_migration.Safety
module Transform = Hipstr_migration.Transform
module Isomeron = Hipstr_isomeron.Isomeron
module Config = Hipstr_psr.Config
module System = Hipstr.System
module Machine = Hipstr_machine.Machine
module Core_desc = Hipstr_machine.Core_desc
open Hipstr_isa

let fig6_migration_safety () =
  let t =
    Table.create
      [ "benchmark"; "x86->ARM baseline"; "x86->ARM on-demand"; "ARM->x86 baseline"; "ARM->x86 on-demand" ]
  in
  let od_c = ref [] and od_r = ref [] in
  List.iter
    (fun (w : Workloads.t) ->
      let fb = Workloads.fatbin w in
      let sc = Safety.summarize fb ~from_isa:Desc.Cisc in
      let sr = Safety.summarize fb ~from_isa:Desc.Risc in
      od_c := Safety.fraction_ondemand sc :: !od_c;
      od_r := Safety.fraction_ondemand sr :: !od_r;
      Table.add_row t
        [
          w.w_name;
          Stats.percent (Safety.fraction_baseline sc);
          Stats.percent (Safety.fraction_ondemand sc);
          Stats.percent (Safety.fraction_baseline sr);
          Stats.percent (Safety.fraction_ondemand sr);
        ])
    Harness.spec_workloads;
  Table.add_row t
    [ "average"; ""; Stats.percent (Stats.mean !od_c); ""; Stats.percent (Stats.mean !od_r) ];
  t

let fig9_opt_levels () =
  let t = Table.create [ "benchmark"; "PSR-O1"; "PSR-O2"; "PSR-O3"; "native" ] in
  let per_level = Array.make 4 [] in
  List.iter
    (fun (w : Workloads.t) ->
      let native = Harness.native_steady w in
      let rel lvl =
        let cfg = { Config.default with opt_level = lvl } in
        let _, p, _ = Harness.run_steady ~cfg ~seed:2 ~mode:System.Psr_only w in
        Harness.relative ~native p
      in
      let r1 = rel 1 and r2 = rel 2 and r3 = rel 3 in
      per_level.(1) <- r1 :: per_level.(1);
      per_level.(2) <- r2 :: per_level.(2);
      per_level.(3) <- r3 :: per_level.(3);
      Table.add_row t
        [ w.w_name; Stats.percent r1; Stats.percent r2; Stats.percent r3; "100.0%" ])
    Harness.spec_workloads;
  Table.add_row t
    [
      "average";
      Stats.percent (Stats.mean per_level.(1));
      Stats.percent (Stats.mean per_level.(2));
      Stats.percent (Stats.mean per_level.(3));
      "100.0%";
    ];
  t

let fig10_stack_sizes () =
  let pads = [ (8192, "PSR-S8"); (16384, "PSR-S16"); (32768, "PSR-S32"); (65536, "PSR-S64") ] in
  let t = Table.create ("benchmark" :: List.map snd pads) in
  let per_pad = Hashtbl.create 8 in
  List.iter
    (fun (w : Workloads.t) ->
      let native = Harness.native_steady w in
      let rels =
        List.map
          (fun (pad_bytes, label) ->
            let cfg = { Config.default with pad_bytes } in
            let _, p, _ = Harness.run_steady ~cfg ~seed:2 ~mode:System.Psr_only w in
            let r = Harness.relative ~native p in
            Hashtbl.replace per_pad label (r :: (try Hashtbl.find per_pad label with Not_found -> []));
            r)
          pads
      in
      Table.add_row t (w.w_name :: List.map Stats.percent rels))
    Harness.spec_workloads;
  Table.add_row t
    ("average" :: List.map (fun (_, label) -> Stats.percent (Stats.mean (Hashtbl.find per_pad label))) pads);
  t

let fig11_rat_sizes () =
  (* our binaries' call-site working sets are tens of sites, so the
     knee sits far left of the paper's 32..2048 sweep; sizes 1-2 show
     it *)
  let sizes = [ 1; 2; 4; 8; 32; 128; 512; 2048 ] in
  let t = Table.create ("benchmark" :: List.map (fun s -> Printf.sprintf "RAT %d" s) sizes) in
  let per_size = Hashtbl.create 8 in
  List.iter
    (fun (w : Workloads.t) ->
      let ideal =
        let cfg = { Config.default with rat_capacity = 1 lsl 20 } in
        let _, p, _ = Harness.run_steady ~cfg ~seed:2 ~mode:System.Psr_only w in
        p
      in
      let overheads =
        List.map
          (fun rat_capacity ->
            let cfg = { Config.default with rat_capacity } in
            let _, p, _ = Harness.run_steady ~cfg ~seed:2 ~mode:System.Psr_only w in
            let ov = (p.pf_cycles /. ideal.pf_cycles) -. 1. in
            Hashtbl.replace per_size rat_capacity
              (ov :: (try Hashtbl.find per_size rat_capacity with Not_found -> []));
            ov)
          sizes
      in
      Table.add_row t (w.w_name :: List.map Stats.percent overheads))
    Harness.spec_workloads;
  Table.add_row t
    ("average" :: List.map (fun s -> Stats.percent (Stats.mean (Hashtbl.find per_size s))) sizes);
  t

(* Run in 500-instruction slices, within [fuel] in all, while the
   requested migration has not fired. Slicing never changes outputs
   ({!System.run}), and with [migrate_prob = 0] nothing after the
   forced migration can replace it as the last one, so stopping once
   it fired reads what running to the end would. *)
let rec run_until_migrated sys fuel =
  if fuel > 0 && System.migration_pending sys then
    match System.run sys ~fuel:(Int.min 500 fuel) with
    | System.Out_of_fuel -> run_until_migrated sys (fuel - 500)
    | _ -> ()

(* Force a migration at a random checkpoint and report its wall-clock
   cost on the destination core. *)
let one_migration (w : Workloads.t) ~from_isa ~checkpoint_fuel ~seed =
  let cfg = { Config.default with migrate_prob = 0.0 } in
  let sys = System.of_fatbin ~cfg ~seed ~start_isa:from_isa ~mode:System.Hipstr (Workloads.fatbin w) in
  match System.run sys ~fuel:checkpoint_fuel with
  | System.Out_of_fuel -> (
    System.request_migration sys;
    run_until_migrated sys w.w_fuel;
    match System.last_migration sys with
    | Some r ->
      let freq = (Core_desc.for_isa (Desc.other from_isa)).freq_ghz in
      Some (r.Transform.r_cycles /. (freq *. 1000.)) (* microseconds *)
    | None -> None)
  | _ -> None

let fig12_migration_overhead () =
  let t = Table.create [ "benchmark"; "x86 -> ARM (us)"; "ARM -> x86 (us)" ] in
  let avg_c = ref [] and avg_r = ref [] in
  let rng = Rng.create 0xF16 in
  List.iter
    (fun (w : Workloads.t) ->
      let native = Harness.native_perf w in
      let measure from_isa =
        let samples =
          List.filter_map
            (fun i ->
              let checkpoint = 2000 + Rng.int rng (native.pf_instructions / 2) in
              one_migration w ~from_isa ~checkpoint_fuel:checkpoint ~seed:(100 + i))
            (List.init 10 (fun i -> i))
        in
        Stats.mean samples
      in
      let c = measure Desc.Cisc in
      let r = measure Desc.Risc in
      avg_c := c :: !avg_c;
      avg_r := r :: !avg_r;
      Table.add_row t [ w.w_name; Printf.sprintf "%.0f" c; Printf.sprintf "%.0f" r ])
    Harness.spec_workloads;
  Table.add_row t
    [
      "average";
      Printf.sprintf "%.0f" (Stats.mean !avg_c);
      Printf.sprintf "%.0f" (Stats.mean !avg_r);
    ];
  t

let fig13_cache_sizes () =
  let sizes_kb = [ 5; 6; 8; 10; 12; 16; 24; 48 ] in
  let t =
    Table.create
      ("code cache (KB)"
      :: (List.map (fun (w : Workloads.t) -> w.w_name) Harness.spec_workloads @ [ "average" ]))
  in
  let rows =
    List.map
      (fun kb ->
        let cfg = { Config.default with cache_bytes = kb * 1024; migrate_prob = 0.5 } in
        let overheads =
          List.map
            (fun (w : Workloads.t) ->
              let _, p, migrations = Harness.run_steady ~cfg ~seed:2 ~mode:System.Hipstr w in
              float_of_int migrations *. Transform.fixed_cycles /. p.pf_cycles)
            Harness.spec_workloads
        in
        (kb, overheads))
      sizes_kb
  in
  List.iter
    (fun (kb, overheads) ->
      Table.add_row t
        ((string_of_int kb :: List.map Stats.percent overheads)
        @ [ Stats.percent (Stats.mean overheads) ]))
    rows;
  t

let fig14_vs_isomeron () =
  let probs = [ 0.0; 0.25; 0.5; 0.75; 1.0 ] in
  (* the paper compares on the six common applications *)
  let six = List.filteri (fun i _ -> i < 6) Harness.spec_workloads in
  let t =
    Table.create
      [ "diversification p"; "Isomeron"; "PSR+Isomeron"; "HIPStR (8KB cache)"; "HIPStR (2MB cache)" ]
  in
  (* per-workload measurements reused across probabilities *)
  let per_w =
    List.map
      (fun (w : Workloads.t) ->
        let native = Harness.native_steady w in
        let _, psr, _ = Harness.run_steady ~seed:2 ~mode:System.Psr_only w in
        (w, native, psr))
      six
  in
  let hipstr_rel w native cache_bytes p seed =
    let cfg = { Config.default with cache_bytes; migrate_prob = p } in
    let _, perf, migrations = Harness.run_steady ~cfg ~seed ~mode:System.Hipstr w in
    (* charge the steady-state migrations' fixed cost explicitly so
       runs of different lengths compare fairly *)
    ignore migrations;
    Harness.relative ~native perf
  in
  List.iter
    (fun p ->
      let iso = Isomeron.create ~diversification_prob:p in
      let iso_rels =
        List.map
          (fun (_, native, _) ->
            Isomeron.relative_performance iso ~native_cycles:native.Harness.pf_cycles
              ~calls:native.Harness.pf_calls ~returns:native.Harness.pf_returns)
          per_w
      in
      let psr_iso_rels =
        List.map
          (fun ((_ : Workloads.t), native, psr) ->
            let extra = Isomeron.overhead_cycles iso ~calls:psr.Harness.pf_calls ~returns:psr.Harness.pf_returns in
            native.Harness.pf_cycles /. (psr.Harness.pf_cycles +. extra))
          per_w
      in
      let hip_small =
        List.map (fun (w, native, _) -> hipstr_rel w native (8 * 1024) p 2) per_w
      in
      let hip_big =
        List.map (fun (w, native, _) -> hipstr_rel w native (2 * 1024 * 1024) p 2) per_w
      in
      Table.add_row t
        [
          Printf.sprintf "%.2f" p;
          Stats.percent (Stats.mean iso_rels);
          Stats.percent (Stats.mean psr_iso_rels);
          Stats.percent (Stats.mean hip_small);
          Stats.percent (Stats.mean hip_big);
        ])
    probs;
  t
